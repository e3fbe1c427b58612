"""The benchmark's workloads: a seeded corpus plus the CLI flags of each stage.

Every workload writes its corpus as a CSV with columns ``id,smiles,label``;
the program sees nothing but that file. BENCHMARK.json and README.md in this
directory say why each workload was chosen and which layers it stresses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Paths relative to a repeat's directory, so every repeat hashes the same CLI
# configuration and writes byte-identical artifacts.
CORPUS = "corpus.csv"
OUT = "out"
MOTIF = "NO"
PAPER_WIDTHS = "128,256,512"
DESK_WIDTHS = "16,32,64"
# At the default tau of 0 the number of distinct mined candidates, and with
# it mine_s, varies by a factor of two between corpora of the same size; at
# 0.1 the activated regions are the motif and its neighbours.
MINE_TAU = "0.1"


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], list[tuple[str, str, int]]]  # seed -> (id, smiles, label)
    train: tuple[str, ...]
    explain: tuple[str, ...]
    metrics: tuple[str, ...]
    mine: tuple[str, ...]
    motif_recovery: bool  # synthetic NO motif: accuracy and top-record checks
    whole_molecule_mining: bool  # --tau -1 --all-samples: R_e = 1 and relabel checks


def _synth_rows(n: int, seed: int) -> list[tuple[str, str, int]]:
    from gcnx.datasets import synth_motif_set

    dataset = synth_motif_set(n, MOTIF, seed=seed)
    return [(mol_id, mol.source_string, label) for mol_id, mol, label in dataset.entries]


def _perhalo(halogen: str, carbons: int) -> str:
    return halogen + f"C({halogen})({halogen})" * carbons + halogen


TBU = "C(C)(C)C"

# Symmetric positives and how often each appears. Family sizes are capped so
# that no single fragment takes much more than 0.4 s to canonicalize at the
# seed commit; the 17-atom tetra-tert-butylmethane and perfluorononane take
# seconds each and belong in a canonicalization micro-benchmark instead.
SYMMETRIC_POSITIVES = (
    (_perhalo("F", 3), 4),
    (_perhalo("F", 4), 4),
    (_perhalo("F", 5), 3),
    (_perhalo("F", 6), 1),
    (_perhalo("Cl", 2), 4),
    (_perhalo("Cl", 3), 4),
    (_perhalo("Cl", 4), 3),
    ("CCC" + TBU, 4),
    (TBU + "CCC" + TBU, 4),
    (TBU + "CC(" + TBU + ")C" + TBU, 2),
    ("c1ccc2ccccc2c1", 4),  # naphthalene
    ("c1ccc2cc3ccccc3cc2c1", 4),  # anthracene
    ("c1cc2ccc3cccc4ccc(c1)c2c34", 4),  # pyrene
    ("C1C2CC3CC1CC(C2)C3", 4),  # adamantane
)


def _symmetric_rows(seed: int) -> list[tuple[str, str, int]]:
    positives = [smiles for smiles, count in SYMMETRIC_POSITIVES for _ in range(count)]
    # negatives: the motif-free carbon skeletons of a synthetic corpus
    negatives = [s for _, s, label in _synth_rows(2 * len(positives), seed) if label == 0]
    rows = [(s, 1) for s in positives] + [(s, 0) for s in negatives]
    order = np.random.default_rng(seed).permutation(len(rows))
    return [(f"sym-{i:04d}", rows[j][0], rows[j][1]) for i, j in enumerate(order)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-paper",
            corpus=lambda seed: _synth_rows(160, seed),
            train=("--layers", PAPER_WIDTHS, "--epochs", "2"),
            explain=(),
            metrics=(),
            mine=("--tau", MINE_TAU),
            motif_recovery=True,
            whole_molecule_mining=False,
        ),
        Workload(
            name="synth-desk",
            corpus=lambda seed: _synth_rows(400, seed),
            train=("--layers", DESK_WIDTHS, "--epochs", "10"),
            explain=("--layers", "1,2,3"),
            metrics=(),
            mine=("--tau", MINE_TAU),
            motif_recovery=True,
            whole_molecule_mining=False,
        ),
        Workload(
            name="symmetric-mine",
            corpus=_symmetric_rows,
            train=("--layers", DESK_WIDTHS, "--epochs", "10"),
            explain=("--render",),
            metrics=(),
            mine=("--tau", "-1", "--all-samples", "--min-occurrence", "3"),
            motif_recovery=False,
            whole_molecule_mining=True,
        ),
    )
}


def write_corpus(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "smiles", "label"])
        writer.writerows(rows)


def stage_argv(workload: Workload, seed: int, data: str, out: str) -> list[tuple[str, list[str]]]:
    """The four CLI invocations of one pipeline run, in order."""
    common = ["--data", data, "--id-column", "id", "--seed", str(seed), "--out-dir", out]
    checkpoint = ["--checkpoint", f"{out}/checkpoint.json"]
    return [
        ("train", ["train", *common, *workload.train]),
        ("explain", ["explain", *common, *checkpoint, *workload.explain]),
        ("metrics", ["metrics", *common, *checkpoint, *workload.metrics]),
        ("mine", ["mine", *common, *checkpoint, *workload.mine]),
    ]
