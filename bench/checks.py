"""Output checks for one pipeline run.

The checks test properties every correct implementation keeps, never
digests pinned to one float summation order: record counts and shapes,
non-negative heatmaps, normalized pairs summing to one, CAM equal to the
final-layer Grad-CAM, metric ranges, motif recovery on the synthetic
corpora, whole-molecule mining on the symmetric corpus, and byte-identical
artifacts across repeats of the same code.

Each check returns None when it passes and a message when it fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from gcnx.cli import build_parser
from gcnx.mining import Fragment, canonical_key, whole_molecule_fragment
from gcnx.smiles import parse_smiles
from workloads import CORPUS, OUT, Workload, stage_argv

MIN_TEST_ACCURACY = 0.9
# records carry 10 decimals, so a pair's sum may be off by half a unit per value
ROUNDING = 0.5e-10


class Expectations:
    """What one workload's artifacts must look like, from the corpus and the
    parsed CLI arguments of each stage."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        self.workload = workload
        parser = build_parser()
        stages = dict(stage_argv(workload, seed, CORPUS, OUT))
        self.args = {stage: parser.parse_args(argv) for stage, argv in stages.items()}
        with open(run_dir / CORPUS, encoding="utf-8", newline="") as fh:
            self.atoms = {
                row["id"]: parse_smiles(row["smiles"]).n_atoms for row in csv.DictReader(fh)
            }
        self.n_layers = len(self.args["train"].layers)

    @property
    def explain_methods(self) -> list[str]:
        return _split(self.args["explain"].methods)

    @property
    def grad_cam_layers(self) -> list[int]:
        raw = self.args["explain"].layers_list
        return [int(x) for x in raw.split(",")] if raw else [self.n_layers]

    @property
    def metric_methods(self) -> list[str]:
        return _split(self.args["metrics"].methods)

    def expected_records(self) -> int:
        per_class = sum(
            len(self.grad_cam_layers) if m == "grad_cam" else 1 for m in self.explain_methods
        )
        return 2 * per_class * len(self.atoms)


def _split(methods: str) -> list[str]:
    return [m.strip() for m in methods.split(",") if m.strip()]


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _heatmap_records(out: Path) -> list[dict]:
    with open(out / "heatmaps.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [json.loads(line) for line in lines[1:]]  # line 0 is the header


# ---------------------------------------------------------------- checks


def check_exit_codes(exits: dict[str, int]) -> str | None:
    bad = {stage: code for stage, code in exits.items() if code != 0}
    return f"non-zero exit codes {bad}" if bad else None


def check_record_count(records, exp: Expectations) -> str | None:
    want = exp.expected_records()
    return None if len(records) == want else f"{len(records)} heatmap records, expected {want}"


def check_record_values(records, exp: Expectations) -> str | None:
    for r in records:
        n = exp.atoms.get(r["molecule_id"])
        if n is None or len(r["values"]) != n:
            return f"{r['molecule_id']} {r['method']}: {len(r['values'])} values, expected {n}"
        if min(r["values"]) < 0.0:
            return f"{r['molecule_id']} {r['method']}: negative heatmap value"
    return None


def check_pairs(records) -> str | None:
    """Both classes of each (molecule, method, layer) form one distribution,
    or are all zero and flagged unnormalized."""
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        groups.setdefault((r["molecule_id"], r["method"], r["layer"]), []).append(r)
    for key, pair in groups.items():
        if sorted(r["class"] for r in pair) != [0, 1]:
            return f"{key}: classes {[r['class'] for r in pair]}, expected one pair"
        values = [v for r in pair for v in r["values"]]
        flags = {r["normalized"] for r in pair}
        if flags == {True}:
            if abs(sum(values) - 1.0) > 1e-9 + ROUNDING * len(values):
                return f"{key}: normalized pair sums to {sum(values)!r}"
        elif flags != {False} or any(values):
            return f"{key}: unnormalized pair with flags {flags} is not all zero"
    return None


def check_cam_equals_grad_cam(records, exp: Expectations) -> str | None:
    if "cam" not in exp.explain_methods or exp.n_layers not in exp.grad_cam_layers:
        return None
    final = {
        (r["molecule_id"], r["class"]): r["values"]
        for r in records
        if r["method"] == "grad_cam" and r["layer"] == exp.n_layers
    }
    for r in records:
        if r["method"] == "cam" and final.get((r["molecule_id"], r["class"])) != r["values"]:
            return f"{r['molecule_id']} class {r['class']}: cam differs from final-layer grad_cam"
    return None


def check_metrics(out: Path, exp: Expectations) -> str | None:
    reports = _load_json(out / "metrics.json")["reports"]
    methods = [r["method"] for r in reports]
    if methods != exp.metric_methods:
        return f"metric reports for {methods}, expected {exp.metric_methods}"
    for r in reports:
        for key in ("contrastivity_mean", "sparsity_mean"):
            if not 0.0 <= r[key] <= 100.0:
                return f"{r['method']}: {key} {r[key]} outside [0, 100]"
        if not -1.0 <= r["fidelity"] <= 1.0:
            return f"{r['method']}: fidelity {r['fidelity']} outside [-1, 1]"
        if r["n_molecules"] != len(exp.atoms):
            return f"{r['method']}: n_molecules {r['n_molecules']}, expected {len(exp.atoms)}"
    return None


def check_accuracy(out: Path) -> str | None:
    accuracy = _load_json(out / "train_log.json")["test_metrics"]["accuracy"]
    return None if accuracy >= MIN_TEST_ACCURACY else f"test accuracy {accuracy} < {MIN_TEST_ACCURACY}"


def _has_bond(smiles: str, a: str, b: str) -> bool:
    molecule = parse_smiles(smiles)
    symbols = [el.symbol for el in molecule.elements]
    return any({symbols[i], symbols[j]} == {a, b} for i, j, _ in molecule.bonds)


def check_motif_recovered(mining: dict) -> str | None:
    records = mining["records"]
    if not records:
        return "no mined substructures"
    top = records[0]
    if top["r_p"] != 1.0 or not _has_bond(top["substructure"], "N", "O"):
        return f"top record {top['substructure']} (R_p {top['r_p']}) is not an N-O motif"
    return None


def check_whole_molecule_records(mining: dict) -> str | None:
    records = mining["records"]
    if not records:
        return "no mined substructures"
    bad = [r["substructure"] for r in records if r["r_e"] != 1.0]
    return f"R_e below 1 for {bad}" if bad else None


def check_relabel_invariance(mining: dict, seed: int) -> str | None:
    """Each mined key is reproduced from its structure under a seeded random
    renumbering of the atoms."""
    rng = np.random.default_rng(seed)
    for record in mining["records"]:
        fragment = whole_molecule_fragment(parse_smiles(record["substructure"]))
        perm = [int(x) for x in rng.permutation(fragment.n_nodes)]
        labels = [None] * fragment.n_nodes
        for old, new in enumerate(perm):
            labels[new] = fragment.node_labels[old]
        edges = tuple(
            sorted((min(perm[i], perm[j]), max(perm[i], perm[j]), o) for i, j, o in fragment.edges)
        )
        key = canonical_key(Fragment(node_labels=tuple(labels), edges=edges)).decode("ascii")
        if key != record["canonical_key"]:
            return f"{record['substructure']}: key {record['canonical_key']} changes to {key}"
    return None


def check_identical(first: dict[str, str], digests: dict[str, str]) -> str | None:
    changed = sorted(set(first) ^ set(digests) | {p for p in first if first[p] != digests.get(p)})
    return f"artifacts differ between repeats: {changed[:5]}" if changed else None


# ------------------------------------------------------------- entry points


def artifact_digests(run_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and (p.name == CORPUS or OUT in p.relative_to(run_dir).parts)
    }


def guarded(fn, *args) -> str | None:
    """Run one check; an artifact that cannot be read fails it with the reason."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        return f"unreadable artifact: {type(err).__name__}: {err}"


def check_run(run_dir: Path, exits: dict[str, int], exp: Expectations) -> dict[str, str | None]:
    """Every per-run check, by name."""
    out = run_dir / OUT
    results = {"exit_codes": check_exit_codes(exits)}
    try:
        records = _heatmap_records(out)
    except (OSError, ValueError) as err:
        records = None
        for name in ("record_count", "record_values", "pairs", "cam_equals_grad_cam"):
            results[name] = f"unreadable heatmaps.jsonl: {err}"
    if records is not None:
        results["record_count"] = guarded(check_record_count, records, exp)
        results["record_values"] = guarded(check_record_values, records, exp)
        results["pairs"] = guarded(check_pairs, records)
        results["cam_equals_grad_cam"] = guarded(check_cam_equals_grad_cam, records, exp)
    results["metrics"] = guarded(check_metrics, out, exp)
    mining = out / "mining.json"
    if exp.workload.motif_recovery:
        results["accuracy"] = guarded(check_accuracy, out)
        results["motif_recovered"] = guarded(lambda: check_motif_recovered(_load_json(mining)))
    if exp.workload.whole_molecule_mining:
        results["whole_molecule_records"] = guarded(
            lambda: check_whole_molecule_records(_load_json(mining))
        )
    return results


def check_invocation(run_dir: Path, workload: Workload, seed: int) -> dict[str, str | None]:
    """The checks made once per invocation, on the first repeat, outside any
    timed region."""
    if not workload.whole_molecule_mining:
        return {}
    mining = run_dir / OUT / "mining.json"
    return {"relabel_invariance": guarded(lambda: check_relabel_invariance(_load_json(mining), seed))}
