import pytest

from gcnx.datasets import DataError, LabeledSet, load_csv, split, synth_motif_set
from gcnx.mining import (
    canonical_key,
    molecule_contains,
    whole_molecule_fragment,
)
from gcnx.smiles import parse_smiles, write_smiles


def write_csv(tmp_path, name, rows, header="id,smiles,activity"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_bad_smiles_skipped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path, "d.csv", ["a,CCO,1", "b,not_a_molecule,0", "c,CC,0"]
        )
        ds = load_csv(path, "smiles", "activity", id_column="id")
        assert len(ds) == 2
        assert ds.skipped == 1
        assert ds.class_counts == (1, 1)

    def test_short_row_skipped_and_counted(self, tmp_path):
        # the short row has no label cell: it is skipped like a blank label
        path = write_csv(
            tmp_path, "d.csv", ["a,CCO,1", "b,CC", "c,CC,0"], header="id,smiles,label"
        )
        ds = load_csv(path, "smiles", "label", id_column="id")
        assert [mol_id for mol_id, _, _ in ds.entries] == ["a", "c"]
        assert ds.skipped == 1

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", ["a,CCO,1", "a,CC,0", "b,CC,1"])
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path, "smiles", "activity", id_column="id")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", ["a,CCO,1"])
        with pytest.raises(DataError, match="column"):
            load_csv(path, "smiles", "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(str(tmp_path / "absent.csv"), "smiles", "activity")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(str(path), "smiles", "activity")

    def test_blank_labels_dropped(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", ["a,CCO,1", "b,CC,", "c,CO,0"])
        ds = load_csv(path, "smiles", "activity", id_column="id")
        assert len(ds) == 2
        assert ds.skipped == 1

    def test_non_binary_label_skipped(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", ["a,CCO,1", "b,CC,2", "c,CO,0"])
        ds = load_csv(path, "smiles", "activity", id_column="id")
        assert len(ds) == 2
        assert ds.skipped == 1

    def test_row_index_ids_by_default(self, tmp_path):
        path = write_csv(tmp_path, "d.csv", ["a,CCO,1", "b,CC,0"])
        ds = load_csv(path, "smiles", "activity")
        assert [mol_id for mol_id, _, _ in ds.entries] == ["row-0", "row-1"]

    def test_label_census_counts_unparseable_smiles_rows(self, tmp_path):
        # the census describes the file's labels; entries only what parsed
        path = write_csv(
            tmp_path,
            "d.csv",
            ["a,CCO,1", "b,C@@H,1", "c,CC,0", "d,CO,", "e,??,0"],
        )
        ds = load_csv(path, "smiles", "activity", id_column="id")
        assert ds.label_census == (2, 2)
        assert ds.class_counts == (1, 1)
        assert ds.skipped == 3

    @pytest.mark.parametrize(
        "header, rows",
        [
            ("smiles,label", ["CCO,1", "CC,0", "not_a_molecule,1"]),
            ("id,smiles,label", ["a,CCO,1", "b,CC,0", "c,CO,"]),
        ],
    )
    def test_utf8_bom_loads_the_same_rows(self, tmp_path, header, rows):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        plain = write_csv(tmp_path, "plain.csv", rows, header=header)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        id_column = "id" if header.startswith("id") else None
        want = load_csv(plain, "smiles", "label", id_column=id_column)
        got = load_csv(str(bom), "smiles", "label", id_column=id_column)
        assert [(i, m.source_string, y) for i, m, y in got.entries] == [
            (i, m.source_string, y) for i, m, y in want.entries
        ]
        assert (got.skipped, got.label_census) == (want.skipped, want.label_census)


class TestSynthMotifSet:
    def test_balanced_and_labeled_by_containment(self):
        ds = synth_motif_set(100, "NO", seed=1)
        assert len(ds) == 100
        assert ds.class_counts == (50, 50)
        motif = whole_molecule_fragment(parse_smiles("NO"))
        for _, molecule, label in ds.entries:
            assert molecule_contains(molecule, motif) == bool(label)

    def test_deterministic(self):
        a = synth_motif_set(30, "NO", seed=7)
        b = synth_motif_set(30, "NO", seed=7)
        assert [(i, m.source_string, y) for i, m, y in a.entries] == [
            (i, m.source_string, y) for i, m, y in b.entries
        ]

    def test_different_seeds_differ(self):
        a = synth_motif_set(30, "NO", seed=1)
        b = synth_motif_set(30, "NO", seed=2)
        assert [m.source_string for _, m, _ in a.entries] != [
            m.source_string for _, m, _ in b.entries
        ]

    def test_parse_stability(self):
        ds = synth_motif_set(40, "NO", seed=3)
        for _, molecule, _ in ds.entries:
            reparsed = parse_smiles(write_smiles(molecule.elements, molecule.bonds))
            assert canonical_key(whole_molecule_fragment(reparsed)) == canonical_key(
                whole_molecule_fragment(molecule)
            )

    def test_carbon_motif_distinguished_by_bond_order(self):
        # single-bonded skeletons never contain a double bond, so labels stay exact
        ds = synth_motif_set(20, "C=C", seed=5)
        motif = whole_molecule_fragment(parse_smiles("C=C"))
        for _, molecule, label in ds.entries:
            assert molecule_contains(molecule, motif) == bool(label)

    def test_unavoidable_motif_fails_loudly(self):
        # every skeleton contains a C-C bond; no negative can exist
        with pytest.raises(DataError, match="motif-free"):
            synth_motif_set(10, "CC", seed=0)

    def test_oversized_motif_rejected(self):
        with pytest.raises(DataError):
            synth_motif_set(10, "CCCCCCC", seed=0)

    def test_skeleton_sizes_in_range(self):
        ds = synth_motif_set(60, "NO", seed=11)
        for _, molecule, label in ds.entries:
            base = molecule.n_atoms - (2 if label else 0)
            assert 6 <= base <= 20


def tiny_set(n=20):
    entries = [
        (f"m{i}", parse_smiles("CCO" if i % 2 else "CC"), i % 2) for i in range(n)
    ]
    return LabeledSet(entries=entries, provenance="fixture", skipped=0)


class TestSplit:
    def test_sizes_80_10_10(self):
        ds = tiny_set(100)
        train, val, test = split(ds, 0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_partition_exact(self):
        ds = tiny_set(37)
        train, val, test = split(ds, 3)
        ids = [mol_id for part in (train, val, test) for mol_id, _, _ in part.entries]
        assert sorted(ids) == sorted(mol_id for mol_id, _, _ in ds.entries)
        assert len(set(ids)) == len(ids)

    def test_same_seed_identical(self):
        ds = tiny_set(50)
        a = split(ds, 9)
        b = split(ds, 9)
        for pa, pb in zip(a, b):
            assert [e[0] for e in pa.entries] == [e[0] for e in pb.entries]

    def test_stratified_preserves_ratio(self):
        entries = [
            (f"m{i}", parse_smiles("CC"), 1 if i < 90 else 0) for i in range(100)
        ]
        ds = LabeledSet(entries=entries, provenance="fixture", skipped=0)
        train, val, test = split(ds, 2)
        for part, expected_pos in ((train, 72), (val, 9), (test, 9)):
            n_pos = sum(1 for _, _, y in part.entries if y == 1)
            assert abs(n_pos - expected_pos) <= 1

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split(tiny_set(9), 0)
