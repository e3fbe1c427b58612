"""Every function a pinned per-layer metric names is still called in its stage.

A per-layer metric of BENCHMARK.json reads 0 once the pipeline stops calling
the function it names, and nothing else fails. This runs a small traced
pipeline (train, explain --render, metrics, mine) in a subprocess, with the
benchmark's own tracer installed as ``bench/selftest.py`` installs it, and
checks each pinned function's call count in its stage. It only reads
``bench/`` and ``BENCHMARK.json``, and writes under a temporary directory.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pinned metrics whose function no stage calls any more; each has a live
# replacement that the metric should be pointed at (ROADMAP item 12).
KNOWN_DEAD = {
    ("explain", "model.score_gradients"),
    ("metrics", "model.score_gradients"),
    ("metrics", "metrics.fidelity"),
    ("mine", "mining.count_dataset_occurrences"),
    ("explain", "render.layout_molecule"),
}

PIPELINE = """
import contextlib, dataclasses, io, json, sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import gcnx.cli
from tracer import Tracer
from workloads import DESK_WIDTHS, WORKLOADS, stage_argv, write_corpus

desk = WORKLOADS["synth-desk"]
rows = desk.corpus(3)
write_corpus("corpus.csv", rows[:15] + rows[-15:])
workload = dataclasses.replace(
    desk,
    train=("--layers", DESK_WIDTHS, "--epochs", "1"),
    explain=("--layers", "1,2,3", "--render"),
    mine=("--tau", "-1", "--all-samples", "--min-occurrence", "1"),
)
tracer = Tracer()
tracer.install()
exits = {}
with contextlib.redirect_stdout(io.StringIO()):
    for stage, argv in stage_argv(workload, 3, "corpus.csv", "out"):
        tracer.stage = stage
        exits[stage] = gcnx.cli.main(argv)
tracer.uninstall()
json.dump(
    {"exits": exits, "trace": tracer.report(), "traced": sorted(set(tracer.wrapped_codes.values()))},
    sys.stdout,
)
"""


def pinned_functions(traced: list[str]) -> list[tuple[str, str, str]]:
    """(stage, function, statistic) of each pinned per-layer metric that
    names a function; the function is the longest traced name the metric
    starts with."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = []
    for metric in spec["per_layer"]:
        stage, _, rest = metric["name"].partition(".")
        # trace.* describes the tracer itself; <stage>.cli.self_s sums all of cli
        if stage == "trace" or rest == "cli.self_s":
            continue
        function = max((f for f in traced if rest.startswith(f + ".")), key=len)
        out.append((stage, function, rest[len(function) + 1 :]))
    return out


def test_pinned_functions_called_in_their_stage(tmp_path):
    proc = subprocess.run(
        # -B: write no bytecode into bench/
        [sys.executable, "-B", "-c", PIPELINE, str(ROOT)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout)
    assert result["exits"] == {"train": 0, "explain": 0, "metrics": 0, "mine": 0}
    trace = result["trace"]
    live, dead = [], []
    for stage, function, stat in pinned_functions(result["traced"]):
        entry = trace.get(stage, {}).get(function, {"calls": 0})
        called = entry["calls"] > 0
        if (stage, function) in KNOWN_DEAD:
            # a revived function should leave the list
            assert not called, f"{stage}.{function} is called again; drop it from KNOWN_DEAD"
            dead.append((stage, function))
            continue
        assert called, f"{stage}.{function}.{stat}: {function} is never called in {stage}"
        if "." in stat:
            # a per-method time such as gradient.s: that method must have run
            assert stat in entry, f"{stage}.{function}.{stat}: method never run"
        live.append((stage, function))
    assert set(dead) == KNOWN_DEAD
    assert live
