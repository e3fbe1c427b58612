"""One pipeline run in a fresh interpreter: build the corpus, then call
``gcnx.cli.main`` for train, explain, metrics and mine.

Run by run.py with the working directory set to an empty run directory::

    python3 bench/worker.py --workload synth-desk --seed 1 --trace 0 --result result.json

The corpus goes to ``corpus.csv`` and the artifacts to ``out/``, both
relative, so that repeated runs hash identical configurations. The result
file holds the end of set-up on the monotonic clock (the parent knows when
it started the interpreter), each stage's wall time and exit code, the peak
RSS and, with ``--trace 1``, the per-function statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import gcnx.cli  # noqa: E402  (part of the measured set-up)
from workloads import CORPUS, OUT, WORKLOADS, stage_argv, write_corpus  # noqa: E402


def run_stage(argv: list[str]) -> int:
    """Exit code of one CLI invocation; an escaped exception counts as 1."""
    try:
        return gcnx.cli.main(argv)
    except Exception:  # noqa: BLE001 - the benchmark records the failure and goes on
        traceback.print_exc()
        return 1


def blas_runtime() -> dict:
    """OpenBLAS configuration and thread count as the loaded library reports
    them; None where the library or its entry points cannot be found."""
    import numpy

    info = {"blas_config": None, "blas_threads": None}
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        return info
    lib = ctypes.CDLL(str(libs[0]))
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"blas_config": config().decode(), "blas_threads": threads()}
    return info


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GCNX_THREADS": os.environ.get("GCNX_THREADS"),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    write_corpus(CORPUS, workload.corpus(args.seed))
    setup_end = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stages = {}
    for stage, argv in stage_argv(workload, args.seed, CORPUS, OUT):
        if tracer is not None:
            tracer.stage = stage
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            code = run_stage(argv)
            elapsed = time.perf_counter() - start
        stages[stage] = {"s": elapsed, "exit": code}

    result = {
        "setup_end": setup_end,
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
        result["traced_functions"] = sorted(set(tracer.wrapped_codes.values()))
    result["env"] = environment(args.seed)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
