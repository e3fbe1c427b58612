import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnx.datasets import synth_motif_set
from gcnx.graphs import ELEMENT_VOCAB, ElementLabel
from gcnx.smiles import (
    AROMATIC,
    D_IN,
    DOUBLE,
    SINGLE,
    TRIPLE,
    SmilesParseError,
    parse_smiles,
    write_smiles,
)

import _oracles
from test_explainers import SYMMETRIC_POSITIVES


def count_atom_tokens(s: str) -> int:
    """Independent atom-token counter: bracket groups plus bare atom symbols."""
    no_brackets, n_brackets = re.subn(r"\[[^\]]*\]", "", s)
    bare = re.findall(r"Cl|Br|[BCNOPSFI]|[cnos]", no_brackets)
    return n_brackets + len(bare)


class TestParsing:
    def test_ethanol(self):
        m = parse_smiles("CCO")
        assert [e.symbol for e in m.elements] == ["C", "C", "O"]
        assert m.bonds == ((0, 1, SINGLE), (1, 2, SINGLE))

    def test_single_atom(self):
        m = parse_smiles("C")
        assert m.n_atoms == 1
        assert m.bonds == ()

    def test_cyclopropane(self):
        m = parse_smiles("C1CC1")
        assert m.n_atoms == 3
        assert m.bonds == ((0, 1, SINGLE), (0, 2, SINGLE), (1, 2, SINGLE))

    def test_bond_orders(self):
        m = parse_smiles("C=C")
        assert m.bonds == ((0, 1, DOUBLE),)
        m = parse_smiles("C#N")
        assert m.bonds == ((0, 1, TRIPLE),)

    def test_branching(self):
        m = parse_smiles("CC(=O)O")  # acetic acid skeleton
        assert m.n_atoms == 4
        assert m.bonds == ((0, 1, SINGLE), (1, 2, DOUBLE), (1, 3, SINGLE))

    def test_two_char_elements(self):
        m = parse_smiles("ClCBr")
        assert [e.symbol for e in m.elements] == ["Cl", "C", "Br"]

    def test_aromatic_ring(self):
        m = parse_smiles("c1ccccc1")
        assert m.n_atoms == 6
        assert all(e.aromatic for e in m.elements)
        assert all(order == AROMATIC for _, _, order in m.bonds)
        assert len(m.bonds) == 6

    def test_bracket_charges(self):
        m = parse_smiles("[N+]")
        assert m.elements[0].formal_charge == 1
        m = parse_smiles("[O-]")
        assert m.elements[0].formal_charge == -1
        assert parse_smiles("[N+2]").elements[0].formal_charge == 2
        assert parse_smiles("[O--]").elements[0].formal_charge == -2

    def test_bracket_hydrogens_discarded(self):
        m = parse_smiles("[NH4+]")
        assert m.n_atoms == 1
        assert m.elements[0].symbol == "N"
        assert m.elements[0].formal_charge == 1

    def test_aromatic_bracket_atom(self):
        m = parse_smiles("c1cc[nH]c1")
        assert m.n_atoms == 5
        assert m.elements[3].symbol == "N"
        assert m.elements[3].aromatic

    def test_unknown_element_becomes_other(self):
        m = parse_smiles("[Se]")
        assert m.elements[0].symbol == "other"

    def test_percent_ring_closure(self):
        m = parse_smiles("C%12CC%12")
        assert (0, 2, SINGLE) in m.bonds

    def test_ring_closure_bond_order(self):
        m = parse_smiles("C=1CCC=1")
        assert (0, 3, DOUBLE) in m.bonds

    def test_deterministic(self):
        a = parse_smiles("CC(=O)Oc1ccccc1")
        b = parse_smiles("CC(=O)Oc1ccccc1")
        assert a.bonds == b.bonds
        assert np.array_equal(a.graph.node_features, b.graph.node_features)


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad, offset",
        [
            ("C(C", 1),
            ("CC)", 2),
            ("C1CC", 1),
            ("CX", 1),
            ("C..C", 1),
            ("", 0),
            ("=C", 0),
            ("C=", 1),
            ("[13C]", 1),
            ("[C@@H]", 2),
            ("C[H]", 2),
            ("C==C", 2),
        ],
    )
    def test_offset_reported(self, bad, offset):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(bad)
        assert err.value.offset == offset
        assert f"offset {offset}" in str(err.value)


class TestFeaturization:
    def test_scheme_dimensions(self):
        assert D_IN == 11 + 6 + 5 + 1

    def test_single_carbon_row(self):
        m = parse_smiles("C")
        row = m.graph.node_features[0]
        vocab = ELEMENT_VOCAB
        assert row[vocab.index("C")] == 1.0
        assert row[len(vocab) + 0] == 1.0  # degree 0
        assert row[len(vocab) + 6 + 2] == 1.0  # charge 0
        assert row[-1] == 0.0  # not aromatic

    def test_middle_atom_degree(self):
        m = parse_smiles("CCO")
        vocab_len = len(ELEMENT_VOCAB)
        assert m.graph.node_features[1][vocab_len + 2] == 1.0

    def test_negative_charge_slot(self):
        m = parse_smiles("[O-]")
        vocab_len = len(ELEMENT_VOCAB)
        assert m.graph.node_features[0][vocab_len + 6 + 1] == 1.0  # charge -1

    def test_one_hot_blocks(self):
        m = parse_smiles("Cc1cc[nH]c1[O-]")
        vocab_len = len(ELEMENT_VOCAB)
        x = m.graph.node_features
        assert np.all(x[:, :vocab_len].sum(axis=1) == 1.0)
        assert np.all(x[:, vocab_len : vocab_len + 6].sum(axis=1) == 1.0)
        assert np.all(x[:, vocab_len + 6 : vocab_len + 11].sum(axis=1) == 1.0)
        assert np.all((x[:, -1] == 0.0) | (x[:, -1] == 1.0))

    def test_charge_clamped(self):
        g = parse_smiles("[N+3]").graph
        vocab_len = len(ELEMENT_VOCAB)
        assert g.node_features[0][vocab_len + 6 + 4] == 1.0  # clamped to +2


SMILES_CASES = [
    "C",
    "CCO",
    "C1CC1",
    "CC(=O)O",
    "c1ccccc1",
    "C(F)(F)F",
    "N#CC1CC1Cl",
    "c1cc[nH]c1",
    "CC(C)(C)Br",
    "[O-]C=O",
    "C1CC2CCC1C2",
]


class TestAtomCountProperty:
    @pytest.mark.parametrize("s", SMILES_CASES)
    def test_atom_count_matches_token_count(self, s):
        assert parse_smiles(s).n_atoms == count_atom_tokens(s)


class TestWriter:
    @pytest.mark.parametrize("s", SMILES_CASES)
    def test_round_trip_preserves_structure(self, s):
        m = parse_smiles(s)
        rewritten = write_smiles(m.elements, m.bonds)
        m2 = parse_smiles(rewritten)
        assert m2.n_atoms == m.n_atoms
        assert sorted(e.key() for e in m2.elements) == sorted(e.key() for e in m.elements)
        assert sorted(o for _, _, o in m2.bonds) == sorted(o for _, _, o in m.bonds)

    def test_charge_round_trip(self):
        m = parse_smiles("[NH4+]")
        assert write_smiles(m.elements, m.bonds) == "[N+]"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_trees_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        from gcnx.graphs import ElementLabel

        n = int(rng.integers(2, 12))
        symbols = [str(rng.choice(["C", "N", "O"])) for _ in range(n)]
        elements = [ElementLabel(sym) for sym in symbols]
        bonds = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            order = int(rng.choice([SINGLE, SINGLE, DOUBLE]))
            bonds.append((j, i, order))
        s = write_smiles(elements, bonds)
        m = parse_smiles(s)
        assert m.n_atoms == n
        assert sorted(o for _, _, o in m.bonds) == sorted(o for _, _, o in bonds)


def ladder(rungs: int):
    """Two carbon chains of `rungs` atoms joined at every position: a graph
    with rungs - 1 ring bonds."""
    elements = [ElementLabel("C")] * (2 * rungs)
    bonds = [(i, i + 1, SINGLE) for i in range(rungs - 1)]
    bonds += [(rungs + i, rungs + i + 1, SINGLE) for i in range(rungs - 1)]
    bonds += [(i, rungs + i, SINGLE) for i in range(rungs)]
    return elements, bonds


def degree_sequence(n, bonds):
    degrees = [0] * n
    for i, j, _ in bonds:
        degrees[i] += 1
        degrees[j] += 1
    return sorted(degrees)


class TestWriterLimits:
    def test_long_chain_round_trips(self):
        n = 1500
        elements = [ElementLabel("C")] * (n - 1) + [ElementLabel("O")]
        bonds = [(i, i + 1, SINGLE) for i in range(n - 1)]
        s = write_smiles(elements, bonds)
        assert s == "C" * (n - 1) + "O"
        m = parse_smiles(s)
        assert m.n_atoms == n and len(m.bonds) == n - 1

    def test_99_ring_bonds_round_trip(self):
        elements, bonds = ladder(100)
        s = write_smiles(elements, bonds)
        assert s == _oracles.write_smiles(elements, bonds)
        assert "%99" in s
        m = parse_smiles(s)
        assert m.n_atoms == len(elements) and len(m.bonds) == len(bonds)
        assert degree_sequence(m.n_atoms, m.bonds) == degree_sequence(len(elements), bonds)

    def test_more_than_99_ring_bonds_rejected(self):
        elements, bonds = ladder(110)
        with pytest.raises(ValueError, match="99 ring bonds"):
            write_smiles(elements, bonds)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_strings_as_recursive_writer_on_bench_corpora(self, seed):
        # the molecules of the benchmark's synth-desk and symmetric-mine corpora
        molecules = [m for _, m, _ in synth_motif_set(400, "NO", seed=seed).entries]
        molecules += [parse_smiles(s) for s in SYMMETRIC_POSITIVES]
        for m in molecules:
            assert write_smiles(m.elements, m.bonds) == _oracles.write_smiles(m.elements, m.bonds)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_same_strings_as_recursive_writer_with_rings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        elements = [ElementLabel(str(rng.choice(["C", "N", "O"]))) for _ in range(n)]
        orders = [SINGLE, DOUBLE]
        bonds = [(int(rng.integers(0, i)), i, int(rng.choice(orders))) for i in range(1, n)]
        edges = {(i, j) for i, j, _ in bonds}
        for _ in range(int(rng.integers(0, 6))):
            i, j = sorted(int(x) for x in rng.choice(n, size=2)) if n > 1 else (0, 0)
            if i != j and (i, j) not in edges:
                edges.add((i, j))
                bonds.append((i, j, SINGLE))
        assert write_smiles(elements, bonds) == _oracles.write_smiles(elements, bonds)
