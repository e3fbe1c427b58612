"""Dataset ingestion and generation: molecular CSV loading, synthetic
planted-motif corpora, and seeded train/validation/test splitting."""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

from gcnx.graphs import ElementLabel
from gcnx.mining import molecule_contains, whole_molecule_fragment
from gcnx.smiles import SINGLE, Molecule, SmilesParseError, parse_smiles, write_smiles

log = logging.getLogger(__name__)


class DataError(ValueError):
    pass


@dataclass
class LabeledSet:
    """Binary-labeled molecules with unique ids and a skipped-row count.

    label_census counts every valid binary label in the source, including
    rows whose SMILES the restricted grammar could not parse; class_counts
    covers the loaded entries only.
    """

    entries: list[tuple[str, Molecule, int]]
    provenance: str
    skipped: int = 0
    label_census: tuple[int, int] | None = None  # (positives, negatives)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def class_counts(self) -> tuple[int, int]:
        labels = [label for _, _, label in self.entries]
        return labels.count(1), labels.count(0)

    def graph_pairs(self) -> list[tuple]:
        return [(molecule.graph, label) for _, molecule, label in self.entries]


def _parse_label(raw: str) -> int | None:
    text = raw.strip()
    if not text:
        return None
    value = float(text)
    if value not in (0.0, 1.0):
        raise ValueError(f"label {raw!r} is not binary")
    return int(value)


def load_csv(
    path: str,
    smiles_column: str,
    label_column: str,
    id_column: str | None = None,
) -> LabeledSet:
    """Load a molecular CSV. Rows with unparseable SMILES, non-binary labels,
    or blank label cells are skipped with a logged warning and counted."""
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        # a short row reads its missing cells as blank
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise DataError(f"empty dataset file: {path}")
        for column in filter(None, (smiles_column, label_column, id_column)):
            if column not in reader.fieldnames:
                raise DataError(
                    f"column {column!r} not in {path} header {reader.fieldnames}"
                )
        entries: list[tuple[str, Molecule, int]] = []
        seen_ids = set()
        skipped = 0
        census = [0, 0]
        for row_index, row in enumerate(reader):
            mol_id = row[id_column].strip() if id_column else f"row-{row_index}"
            if mol_id in seen_ids:
                raise DataError(f"duplicate molecule id {mol_id!r} in {path}")
            seen_ids.add(mol_id)
            try:
                label = _parse_label(row[label_column])
            except ValueError as err:
                log.warning("skipping row %d of %s: %s", row_index, path, err)
                skipped += 1
                continue
            if label is None:  # blank task cell (multi-task files)
                skipped += 1
                continue
            census[label] += 1
            try:
                molecule = parse_smiles(row[smiles_column].strip())
            except SmilesParseError as err:
                log.warning("skipping row %d of %s: %s", row_index, path, err)
                skipped += 1
                continue
            entries.append((mol_id, molecule, label))
    if not entries:
        raise DataError(f"no usable rows in {path}")
    return LabeledSet(
        entries=entries,
        provenance=path,
        skipped=skipped,
        label_census=(census[1], census[0]),
    )


# ----------------------------------------------------------------- synthesis


MAX_SKELETON_DEGREE = 4


def _random_skeleton(rng) -> tuple[list[ElementLabel], list[tuple[int, int, int]]]:
    """Random all-carbon tree of 6..20 atoms with carbon-like degrees,
    occasionally closed into one ring."""
    n = int(rng.integers(6, 21))
    elements = [ElementLabel("C") for _ in range(n)]
    degree = [0] * n
    bonds = []
    for i in range(1, n):
        open_slots = [j for j in range(i) if degree[j] < MAX_SKELETON_DEGREE]
        j = open_slots[int(rng.integers(len(open_slots)))]
        bonds.append((j, i, SINGLE))
        degree[i] += 1
        degree[j] += 1
    if rng.random() < 0.3:
        existing = {(min(i, j), max(i, j)) for i, j, _ in bonds}
        for _ in range(10):
            a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            if (a, b) not in existing and degree[a] < MAX_SKELETON_DEGREE and degree[
                b
            ] < MAX_SKELETON_DEGREE:
                bonds.append((a, b, SINGLE))
                degree[a] += 1
                degree[b] += 1
                break
    return elements, bonds


def _graft(skeleton, motif: Molecule, rng):
    elements, bonds = skeleton
    offset = len(elements)
    degree = [0] * offset
    for i, j, _ in bonds:
        degree[i] += 1
        degree[j] += 1
    elements = elements + list(motif.elements)
    bonds = bonds + [(i + offset, j + offset, order) for i, j, order in motif.bonds]
    open_slots = [i for i in range(offset) if degree[i] < MAX_SKELETON_DEGREE]
    anchor = open_slots[int(rng.integers(len(open_slots)))]
    motif_atom = offset + int(rng.integers(0, motif.n_atoms))
    bonds.append((anchor, motif_atom, SINGLE))
    return elements, bonds


def synth_motif_set(n: int, motif: str, seed: int = 0) -> LabeledSet:
    """Balanced synthetic corpus whose label is exactly motif presence.

    Positives are random carbon skeletons with the motif grafted at a random
    attachment point; negatives are motif-free skeletons (resampled in the
    rare case an all-carbon motif occurs by chance). Molecules round-trip
    through the SMILES writer and parser, so text and graph always agree.
    A corpus of no molecules is a DataError, as a CSV with no usable rows
    is.
    """
    if n < 1:
        raise DataError(f"synthetic corpus of {n} molecules: it needs at least one")
    try:
        motif_molecule = parse_smiles(motif)
    except SmilesParseError as err:
        raise DataError(f"motif {motif!r} does not parse: {err}") from err
    if motif_molecule.n_atoms > 6:
        raise DataError(f"motif {motif!r} has more than 6 atoms")
    motif_pattern = whole_molecule_fragment(motif_molecule)
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    entries = []
    for index in range(n):
        positive = index < n_pos
        for _ in range(100):
            elements, bonds = _random_skeleton(rng)
            if positive:
                elements, bonds = _graft((elements, bonds), motif_molecule, rng)
            source = write_smiles(elements, bonds)
            molecule = parse_smiles(source)
            contains = molecule_contains(molecule, motif_pattern)
            if contains == positive:
                break
        else:
            raise DataError(f"could not generate a motif-free skeleton for {motif!r}")
        entries.append((f"synth-{index:04d}", molecule, int(positive)))
    return LabeledSet(
        entries=entries, provenance=f"synth:{motif}:{n}:seed={seed}", skipped=0
    )


# -------------------------------------------------------------------- splits


# train, validation and test shares of each class
SPLIT_RATIOS = (0.8, 0.1, 0.1)


def _cut(indices):
    n = len(indices)
    n_train = int(n * SPLIT_RATIOS[0])
    n_val = int(n * SPLIT_RATIOS[1])
    return (
        indices[:n_train],
        indices[n_train : n_train + n_val],
        indices[n_train + n_val :],
    )


def split(dataset: LabeledSet, seed: int) -> tuple[LabeledSet, LabeledSet, LabeledSet]:
    """Seeded stratified partition into train/validation/test: each class is
    shuffled on its own and cut by SPLIT_RATIOS, so the ratios hold per
    class."""
    if len(dataset) < 10:
        raise DataError(f"dataset too small to split: {len(dataset)} entries")
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for label in (0, 1):
        class_indices = [i for i, (_, _, y) in enumerate(dataset.entries) if y == label]
        shuffled = [class_indices[j] for j in rng.permutation(len(class_indices))]
        for bucket, chunk in zip(parts, _cut(shuffled)):
            bucket.extend(chunk)
    names = ("train", "validation", "test")
    return tuple(
        LabeledSet(
            entries=[dataset.entries[i] for i in sorted(part)],
            provenance=f"{dataset.provenance}#{name}",
            skipped=0,
        )
        for name, part in zip(names, parts)
    )
