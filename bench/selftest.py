"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

1. Checker: runs one clean pipeline of ``synth-desk`` and of
   ``symmetric-mine``, shows that every check passes on the real artifacts,
   then feeds corrupted copies to the checker and shows that each check
   rejects its case.
2. Tracer: runs a small pipeline in-process with the tracer installed and a
   ``sys.setprofile`` hook watching every call, and shows that no call to a
   wrapped ``gcnx`` function bypasses its wrapper and that no public
   ``gcnx`` function runs unwrapped.

Exits 0 when every self-test passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
from run import WORK, run_worker  # noqa: E402
from workloads import DESK_WIDTHS, WORKLOADS, stage_argv, write_corpus  # noqa: E402

SEED = 3


# ------------------------------------------------------------- corruptions


def _edit_jsonl(out: Path, edit) -> None:
    path = out / "heatmaps.jsonl"
    lines = path.read_text().splitlines()
    header, records = lines[0], [json.loads(line) for line in lines[1:]]
    records = edit(records)
    path.write_text("\n".join([header] + [json.dumps(r) for r in records]) + "\n")


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _first(records, **match):
    return next(r for r in records if all(r[k] == v for k, v in match.items()))


def _scale_first_normalized(records):
    record = _first(records, normalized=True)
    record["values"] = [1.5 * v for v in record["values"]]
    return records


def _unflag_pair(records):
    key = records[0]["molecule_id"], records[0]["method"], records[0]["layer"]
    for r in records:
        if (r["molecule_id"], r["method"], r["layer"]) == key:
            r["normalized"] = False
    return records


def _perturb_cam(records):
    cam = _first(records, method="cam")
    cam["values"][0] += 1e-6
    return records


def _drop_value(records):
    records[0]["values"].pop()
    return records


def _negative_value(records):
    records[0]["values"][0] = -1e-3
    return records


def _set(path_in_out: str, *keys_and_value):
    *keys, value = keys_and_value

    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return lambda out: _edit_json(out / path_in_out, edit)


def _swap_keys(mining):
    first, second = mining["records"][0], mining["records"][1]
    first["canonical_key"] = second["canonical_key"]


# (workload, check, what the corruption does, corruption of the out/ directory)
CORRUPTIONS = [
    ("synth-desk", "record_count", "drop the last heatmap record",
     lambda out: _edit_jsonl(out, lambda rs: rs[:-1])),
    ("synth-desk", "record_values", "drop one value of a record", lambda out: _edit_jsonl(out, _drop_value)),
    ("synth-desk", "record_values", "make one value negative", lambda out: _edit_jsonl(out, _negative_value)),
    ("synth-desk", "pairs", "scale a normalized record by 1.5",
     lambda out: _edit_jsonl(out, _scale_first_normalized)),
    ("synth-desk", "pairs", "flag a non-zero pair unnormalized", lambda out: _edit_jsonl(out, _unflag_pair)),
    ("synth-desk", "cam_equals_grad_cam", "perturb a CAM value by 1e-6",
     lambda out: _edit_jsonl(out, _perturb_cam)),
    ("synth-desk", "metrics", "fidelity 1.5", _set("metrics.json", "reports", 0, "fidelity", 1.5)),
    ("synth-desk", "metrics", "contrastivity mean 100.5",
     _set("metrics.json", "reports", 1, "contrastivity_mean", 100.5)),
    ("synth-desk", "metrics", "sparsity mean -1", _set("metrics.json", "reports", 2, "sparsity_mean", -1.0)),
    ("synth-desk", "metrics", "n_molecules off by one", _set("metrics.json", "reports", 0, "n_molecules", 1)),
    ("synth-desk", "metrics", "drop a method's report",
     lambda out: _edit_json(out / "metrics.json", lambda p: p["reports"].pop())),
    ("synth-desk", "accuracy", "test accuracy 0.5",
     _set("train_log.json", "test_metrics", "accuracy", 0.5)),
    ("synth-desk", "motif_recovered", "top record without an N-O bond",
     _set("mining.json", "records", 0, "substructure", "CCCO")),
    ("synth-desk", "motif_recovered", "top record with R_p 0.9", _set("mining.json", "records", 0, "r_p", 0.9)),
    ("symmetric-mine", "whole_molecule_records", "a record with R_e 0.5",
     _set("mining.json", "records", 1, "r_e", 0.5)),
    ("synth-desk", "metrics", "unreadable metrics.json", lambda out: (out / "metrics.json").write_text("{")),
]


def checker_selftest() -> list[str]:
    failures = []
    base = WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    for name in ("synth-desk", "symmetric-mine"):
        workload = WORKLOADS[name]
        clean = base / name / "clean"
        rep = run_worker(name, SEED, False, clean, timeout=170.0)
        exp = checks.Expectations(workload, SEED, clean)
        results = checks.check_run(clean, rep.exits, exp)
        digests = checks.artifact_digests(clean)
        results["identical"] = checks.check_identical(digests, digests)
        results.update(checks.check_invocation(clean, workload, SEED))
        mining = json.loads((clean / "out" / "mining.json").read_text())
        for check, message in results.items():
            print(f"{'PASS' if message is None else 'FAIL'} {name}: clean artifacts pass {check}"
                  + ("" if message is None else f" ({message})"))
            if message is not None:
                failures.append(f"{name} clean {check}")

        # checks that take their inputs directly
        direct = [
            ("exit_codes", "a stage exits 1", checks.check_exit_codes(dict(rep.exits, mine=1))),
            ("identical", "one artifact changes between repeats",
             checks.check_identical(digests, dict(digests, **{next(iter(digests)): "0" * 64}))),
        ]
        if workload.whole_molecule_mining:
            swapped = copy.deepcopy(mining)
            _swap_keys(swapped)
            direct.append(("relabel_invariance", "a record carries another record's key",
                           checks.check_relabel_invariance(swapped, SEED)))
        for check, what, message in direct:
            failures += _report(name, check, what, message)

        for target, check, what, corrupt in CORRUPTIONS:
            if target != name:
                continue
            broken = base / name / "broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(clean, broken, ignore=shutil.ignore_patterns("render"))
            corrupt(broken / "out")
            failures += _report(name, check, what, checks.check_run(broken, rep.exits, exp).get(check))
    shutil.rmtree(base, ignore_errors=True)
    return failures


def _report(name: str, check: str, what: str, message: str | None) -> list[str]:
    rejected = message is not None
    print(f"{'PASS' if rejected else 'FAIL'} {name}: {check} rejects '{what}'" + (f": {message}" if rejected else ""))
    return [] if rejected else [f"{name} {check}: {what}"]


# ------------------------------------------------------------------ tracer


def tracer_selftest() -> list[str]:
    import gcnx.cli
    import gcnx.datasets
    import gcnx.explainers
    import gcnx.metrics
    import gcnx.mining
    import gcnx.model
    from tracer import Tracer

    workdir = WORK / "selftest" / "tracer"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    small = WORKLOADS["synth-desk"]
    rows = small.corpus(SEED)[:30] + small.corpus(SEED)[-30:]  # both classes
    write_corpus(workdir / "corpus.csv", rows)
    workload = type(small)(**{
        **small.__dict__,
        "train": ("--layers", DESK_WIDTHS, "--epochs", "1"),
        "explain": ("--layers", "1,2,3", "--render"),
        "mine": ("--tau", "-1", "--all-samples", "--min-occurrence", "1"),
    })

    tracer = Tracer()
    tracer.install()
    failures = []
    for module, attr, home in (
        (gcnx.explainers, "forward", gcnx.model),
        (gcnx.metrics, "forward", gcnx.model),
        (gcnx.cli, "forward", gcnx.model),
        (gcnx.datasets, "molecule_contains", gcnx.mining),
    ):
        wrapped = getattr(module, attr) is getattr(home, attr) and hasattr(getattr(module, attr), "__wrapped__")
        print(f"{'PASS' if wrapped else 'FAIL'} tracer: {module.__name__}.{attr} is the traced wrapper")
        if not wrapped:
            failures.append(f"{module.__name__}.{attr} not wrapped")

    src = str(ROOT / "src" / "gcnx")
    property_codes = _property_codes()
    bypasses: dict[str, str] = {}
    unwrapped: set[str] = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        name = tracer.wrapped_codes.get(code)
        if name is not None:
            caller = frame.f_back
            if caller is None or caller.f_code is not tracer.wrapper_code:
                bypasses.setdefault(name, caller.f_code.co_qualname if caller else "?")
        elif code.co_filename.startswith(src) and _public(code) and code not in property_codes:
            unwrapped.add(code.co_qualname)

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        sys.setprofile(profile)
        with contextlib.redirect_stdout(io.StringIO()):
            exits = {stage: gcnx.cli.main(argv) for stage, argv in stage_argv(workload, SEED, "corpus.csv", "out")}
        # a deliberate bypass, to show that the hook sees one
        clean_run = dict(bypasses)
        gcnx.model.softmax.__wrapped__(np.zeros(2))
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
        tracer.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)

    called = sum(st.calls for st in tracer.stats.values())
    checks_ = [
        ("the small pipeline exits 0", not any(exits.values()), str(exits)),
        (f"{called} traced calls, none bypassing a wrapper", not clean_run, str(clean_run)),
        ("a direct call of an original is seen as a bypass", set(bypasses) == {"model.softmax"}, str(bypasses)),
        ("no public gcnx function ran unwrapped", not unwrapped, str(sorted(unwrapped))),
        ("uninstall restores the originals", not hasattr(gcnx.model.forward, "__wrapped__"), ""),
    ]
    for what, ok, detail in checks_:
        print(f"{'PASS' if ok else 'FAIL'} tracer: {what}" + ("" if ok else f": {detail}"))
        if not ok:
            failures.append(what)
    return failures


def _public(code) -> bool:
    parts = code.co_qualname.split(".")
    return not any(p.startswith(("_", "<")) for p in parts)


def _property_codes() -> set:
    import inspect

    from tracer import package_modules

    return {
        member.fget.__code__
        for module in package_modules()
        for obj in vars(module).values()
        if inspect.isclass(obj)
        for member in vars(obj).values()
        if isinstance(member, property)
    }


def main() -> int:
    if not (ROOT / "src" / "gcnx" / "__init__.py").is_file():
        print("selftest: no gcnx sources", file=sys.stderr)
        return 2
    failures = checker_selftest() + tracer_selftest()
    print(f"{'all self-tests pass' if not failures else f'{len(failures)} self-test failures'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
