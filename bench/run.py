"""Benchmark of the gcnx CLI pipeline: train -> explain -> metrics -> mine.

    python3 bench/run.py --workload synth-desk --seed 1 --seconds 42 --trace 0

Each repeat starts a fresh interpreter (worker.py) that builds a corpus,
writes it as a CSV and calls ``gcnx.cli.main`` for the four stages. Repeats
run back to back (a closed loop of one caller) until the next one would pass
``--seconds``. Each repeat draws its corpus from its own seed, derived from
``--seed`` (see ``corpus_seed``), so that a run's medians average over
several corpora. Every repeat's artifacts are checked (checks.py), and the
repeat that reuses an earlier repeat's corpus must write byte-identical
artifacts.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repeats. ``--trace 1`` alternates untraced and traced repeats and
reports its per-layer metrics from the traced ones (tracer.py), plus
``trace.overhead_s``, the traced minus the untraced median pipeline time.
The last line of standard output is the JSON result; the lines before it
give the environment, every metric with its unit and spread, and the
failed-operation fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
STAGES = ("train", "explain", "metrics", "mine")
# the whole invocation must end within 180 s
RUN_LIMIT_S = 170.0
# corpus seeds of one run are CORPORA_PER_SEED * seed + 0, 1, 2, ...
CORPORA_PER_SEED = 1000


def corpus_seed(seed: int, rep: int, traced_run: bool) -> int:
    """Seed of a repeat's corpus and CLI runs. The second repeat reuses the
    first one's (in a traced run: each traced repeat reuses the preceding
    untraced one's), so byte identity is checked on every run."""
    index = rep // 2 if traced_run else max(rep - 1, 0)
    return CORPORA_PER_SEED * seed + index


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


class Rep:
    """One repeat: its corpus seed, timings, exit codes and check results."""

    def __init__(self, seed: int, traced: bool, result: dict | None, wall_s: float, spawn: float):
        self.seed = seed
        self.traced = traced
        self.result = result or {}
        self.wall_s = wall_s
        stages = self.result.get("stages", {})
        self.exits = {s: stages.get(s, {}).get("exit", -1) for s in STAGES}
        self.stage_s = {s: stages.get(s, {}).get("s") for s in STAGES}
        self.setup_s = self.result["setup_end"] - spawn if "setup_end" in self.result else None
        self.checks: dict[str, str | None] = {}

    @property
    def ok(self) -> bool:
        return all(code == 0 for code in self.exits.values())

    def end_to_end(self) -> dict[str, float]:
        m = {f"{s}_s": self.stage_s[s] for s in STAGES}
        m["pipeline_s"] = sum(self.stage_s.values())
        m["setup_s"] = self.setup_s
        m["peak_rss_mb"] = self.result["peak_rss_mb"]
        return m


def run_worker(workload: str, seed: int, traced: bool, rep_dir: Path, timeout: float) -> Rep:
    rep_dir.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("GCNX_THREADS", None)
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--result", "result.json",
    ]
    with open(rep_dir / "worker.log", "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=rep_dir, env=env, stdout=log, stderr=log)
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.monotonic() - spawn
    result_path = rep_dir / "result.json"
    result = json.loads(result_path.read_text()) if proc.returncode == 0 and result_path.exists() else None
    return Rep(seed, traced, result, wall, spawn)


def per_layer(rep: Rep, n_molecules: int) -> dict[str, float]:
    """Flat ``<stage>.<module>.<function>.<stat>`` metrics of a traced repeat.
    A function the commit has but a stage never called reads 0; a function
    the commit lacks is absent."""
    trace = rep.result["trace"]
    flat: dict[str, float] = {}
    for stage in STAGES:
        functions = trace.get(stage, {})
        for name in rep.result["traced_functions"]:
            entry = functions.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat, value in entry.items():
                flat[f"{stage}.{name}.{stat}"] = value
            flat[f"{stage}.{name}.per_mol"] = entry["calls"] / n_molecules
            if "flop" in entry:
                flat[f"{stage}.{name}.gflop"] = entry["flop"] / 1e9
                flat[f"{stage}.{name}.gflops"] = entry["flop"] / 1e9 / entry["s"]
        flat[f"{stage}.cli.self_s"] = sum(
            e["self_s"] for name, e in functions.items() if name.startswith("cli.")
        )
    return flat


def summarize(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name:48s} {statistics.median(values):12.6g} {unit:14s}"
        f" min {min(values):.6g} max {max(values):.6g} n={len(values)}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gcnx" / "__init__.py").is_file():
        return fail(f"no gcnx sources under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        return fail(f"cannot read BENCHMARK.json: {err}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    started = time.monotonic()
    reps: list[Rep] = []
    expectations: dict[int, object] = {}  # corpus seed -> checks.Expectations
    first_digests: dict[int, dict] = {}  # corpus seed -> artifact digests
    keep = False
    min_reps = 2 if args.trace else 1  # a traced run needs one repeat of each kind
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_dir = run_dir / f"rep{len(reps)}"
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            seed = corpus_seed(args.seed, len(reps), bool(args.trace))
            rep = run_worker(args.workload, seed, traced, rep_dir, remaining)
            reps.append(rep)
            if rep.result:
                if seed not in expectations:
                    expectations[seed] = checks.Expectations(workload, seed, rep_dir)
                rep.checks = checks.check_run(rep_dir, rep.exits, expectations[seed])
                digests = checks.artifact_digests(rep_dir)
                if seed in first_digests:
                    rep.checks["identical"] = checks.check_identical(first_digests[seed], digests)
                else:
                    first_digests[seed] = digests
            if not rep.ok or any(rep.checks.values()):
                keep = True
                break
            if len(reps) > 1:  # the first repeat stays for the per-invocation checks
                shutil.rmtree(rep_dir)
            used = time.monotonic() - started
            if len(reps) >= min_reps and used + max(r.wall_s for r in reps) > min(args.seconds, RUN_LIMIT_S):
                break

        extra = checks.check_invocation(run_dir / "rep0", workload, reps[0].seed) if reps[0].ok else {}
        attempted = sum(len(STAGES) + len(r.checks) for r in reps) + len(extra)
        failed = sum(
            sum(code != 0 for code in r.exits.values()) + sum(v is not None for v in r.checks.values())
            for r in reps
        ) + sum(v is not None for v in extra.values())
        for name, message in [(n, m) for r in reps for n, m in r.checks.items()] + list(extra.items()):
            if message is not None:
                print(f"bench: check {name} failed: {message}", file=sys.stderr)
                keep = True

        env = dict(next((r.result["env"] for r in reps if r.result), {}), seed=args.seed, corpus_seeds=[r.seed for r in reps])
        print("env " + json.dumps(env, sort_keys=True))
        untraced = [r for r in reps if r.ok and not r.traced]
        metrics = {}
        if args.trace:
            traced_reps = [r for r in reps if r.ok and r.traced]
            if traced_reps and untraced:
                layers = [per_layer(r, len(expectations[r.seed].atoms)) for r in traced_reps]
                overhead = statistics.median(sum(r.stage_s.values()) for r in traced_reps) - statistics.median(
                    sum(r.stage_s.values()) for r in untraced
                )
                for layer in layers:
                    layer["trace.overhead_s"] = overhead
                for m in spec["per_layer"]:
                    values = [layer[m["name"]] for layer in layers if m["name"] in layer]
                    if values:
                        print(summarize(m["name"], values, m["unit"]))
                        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
                    else:
                        print(f"{m['name']:48s} absent at this commit")
                (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                    json.dumps([r.result["trace"] for r in traced_reps], indent=1)
                )
        elif untraced:
            rows = [r.end_to_end() for r in untraced]
            for m in spec["end_to_end"]:
                values = [row[m["name"]] for row in rows]
                print(summarize(m["name"], values, m["unit"]))
                metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print(f"failed_ops_frac {failed / attempted:.6g} ({failed} of {attempted} stage runs and checks)")
        correct = failed == 0 and bool(metrics)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        if not keep:
            shutil.rmtree(run_dir, ignore_errors=True)
        elif run_dir.exists():
            print(f"bench: artifacts kept in {run_dir}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
