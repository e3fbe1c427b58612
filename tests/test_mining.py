import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcnx.mining as mining
from gcnx.mining import (
    Fragment,
    FragmentTooLargeError,
    activated_subgraphs,
    canonical_form,
    SubstructureRecord,
    canonical_key,
    contains_fragment,
    count_dataset_occurrences,
    mine,
    molecule_contains,
    molecule_fragment,
    whole_molecule_fragment,
)
from conftest import bench_module
from gcnx.smiles import parse_smiles

from _oracles import (
    brute_force_contains,
    brute_force_isomorphic,
    reference_canonical_form,
    reference_mine,
)

C = ("C", 0, False)
N = ("N", 0, False)
O = ("O", 0, False)
F = ("F", 0, False)
CL = ("Cl", 0, False)


def perhalo(halogen: str, carbons: int) -> str:
    return halogen + f"C({halogen})({halogen})" * carbons + halogen


TBU = "C(C)(C)C"
# the symmetric positives of the benchmark's symmetric-mine corpus
SYMMETRIC_POSITIVES = tuple(smiles for smiles, _ in bench_module("workloads").SYMMETRIC_POSITIVES)
SYMMETRIC_FIXTURES = SYMMETRIC_POSITIVES + (
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1CC2CCC3CCCC4CCC(C1)C2C34",  # fused rings
    "CC(C)(C)C(C)(C)C",  # 2,2,3,3-tetramethylbutane
)

# the exhaustive search takes seconds on each of these
LARGE_SYMMETRIC = (
    "C(" + TBU + ")(" + TBU + ")(" + TBU + ")" + TBU,  # tetra-tert-butylmethane
    perhalo("F", 7),
    perhalo("F", 8),
    perhalo("F", 9),
)


def frag(labels, edges):
    return Fragment(node_labels=tuple(labels), edges=tuple(edges))


def permuted(fragment: Fragment, perm) -> Fragment:
    # node v in the original becomes perm[v] in the permuted fragment
    labels = [None] * fragment.n_nodes
    for v in range(fragment.n_nodes):
        labels[perm[v]] = fragment.node_labels[v]
    edges = tuple(
        (min(perm[i], perm[j]), max(perm[i], perm[j]), order)
        for i, j, order in fragment.edges
    )
    return Fragment(node_labels=tuple(labels), edges=tuple(sorted(edges)))


def carbon_graph(*parts) -> Fragment:
    """Disjoint union of all-carbon graphs, each given as (n_nodes, edges)."""
    edges, offset = [], 0
    for n, part in parts:
        edges += [(offset + min(a, b), offset + max(a, b), 1) for a, b in part]
        offset += n
    return frag([C] * offset, sorted(edges))


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


K33 = 6, [(a, b) for a in range(3) for b in range(3, 6)]
PRISM = 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
FRUCHT = 12, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 7), (1, 7), (2, 8),
    (3, 8), (4, 9), (5, 10), (6, 10), (7, 11), (8, 9), (9, 11), (10, 11),
]
# Regular graphs: refinement leaves one cell that spans several orbits, so
# the search must not treat its vertices as interchangeable.
REGULAR_FIXTURES = {
    "k33+prism": carbon_graph(K33, PRISM),
    "hexagon+2 triangles": carbon_graph(cycle(6), cycle(3), cycle(3)),
    "octagon+2 squares": carbon_graph(cycle(8), cycle(4), cycle(4)),
    "frucht": carbon_graph(FRUCHT),  # 3-regular with no automorphism but the identity
}


def random_fragment(rng, max_nodes=8):
    n = int(rng.integers(2, max_nodes + 1))
    labels = [
        (str(rng.choice(["C", "N", "O"])), 0, False) for _ in range(n)
    ]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((j, i, int(rng.choice([1, 1, 2]))))
    # sprinkle one extra edge to sometimes close a ring
    if n >= 4 and rng.random() < 0.5:
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if not any(e[0] == a and e[1] == b for e in edges):
            edges.append((a, b, 1))
    return frag(labels, sorted(edges))


class TestCanonicalKey:
    def test_two_node_reversal(self):
        assert canonical_key(frag([C, CL], [(0, 1, 1)])) == canonical_key(
            frag([CL, C], [(0, 1, 1)])
        )

    def test_path_relabeling(self):
        cco = frag([C, C, O], [(0, 1, 1), (1, 2, 1)])
        occ = frag([O, C, C], [(0, 1, 1), (1, 2, 1)])
        assert canonical_key(cco) == canonical_key(occ)

    def test_non_isomorphic_paths_differ(self):
        cco = frag([C, C, O], [(0, 1, 1), (1, 2, 1)])
        coc = frag([C, O, C], [(0, 1, 1), (1, 2, 1)])
        assert canonical_key(cco) != canonical_key(coc)

    def test_bond_order_distinguishes(self):
        single = frag([C, C], [(0, 1, 1)])
        double = frag([C, C], [(0, 1, 2)])
        assert canonical_key(single) != canonical_key(double)

    def test_charge_distinguishes(self):
        neutral = frag([N, O], [(0, 1, 1)])
        charged = frag([N, ("O", -1, False)], [(0, 1, 1)])
        assert canonical_key(neutral) != canonical_key(charged)

    def test_size_cap(self):
        labels = [C] * 65
        edges = [(i, i + 1, 1) for i in range(64)]
        with pytest.raises(FragmentTooLargeError):
            canonical_key(frag(labels, edges))

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        fragment = random_fragment(rng)
        key = canonical_key(fragment)
        for _ in range(100):
            perm = rng.permutation(fragment.n_nodes).tolist()
            assert canonical_key(permuted(fragment, perm)) == key

    def test_key_grouping_matches_isomorphism_oracle(self):
        rng = np.random.default_rng(17)
        fragments = [random_fragment(rng, max_nodes=6) for _ in range(18)]
        keys = [canonical_key(f) for f in fragments]
        for a in range(len(fragments)):
            for b in range(a + 1, len(fragments)):
                iso = brute_force_isomorphic(
                    (list(fragments[a].node_labels), list(fragments[a].edges)),
                    (list(fragments[b].node_labels), list(fragments[b].edges)),
                )
                assert (keys[a] == keys[b]) == iso

    def test_benzene_ring_canonical(self):
        ring = parse_smiles("c1ccccc1")
        key1 = canonical_key(whole_molecule_fragment(ring))
        # same ring written from a different starting atom
        ring2 = parse_smiles("c1ccccc1")
        assert key1 == canonical_key(whole_molecule_fragment(ring2))

    def test_rendering_reparses_to_same_key(self):
        [(key, pattern)] = activated_subgraphs(parse_smiles("CC(=O)O"), np.array([0, 1, 1, 1]))
        rendering = SubstructureRecord(key, pattern, 0, 1, 0).to_dict()["substructure"]
        assert canonical_key(whole_molecule_fragment(parse_smiles(rendering))) == key


@st.composite
def symmetric_fragments(draw, max_nodes=12):
    """A small core with copies of one arm hung from its atoms, relabeled."""
    core = draw(st.integers(1, 4))
    labels = [draw(st.sampled_from([C, N])) for _ in range(core)]
    edges = {(draw(st.integers(0, i - 1)), i, draw(st.sampled_from([1, 2]))) for i in range(1, core)}
    arm = draw(st.lists(st.sampled_from([C, N, O, F]), min_size=1, max_size=3))
    for site in range(core):
        for _ in range(draw(st.integers(0, 3))):
            if len(labels) + len(arm) > max_nodes:
                break
            previous = site
            for label in arm:
                labels.append(label)
                edges.add((previous, len(labels) - 1, 1))
                previous = len(labels) - 1
    fragment = frag(labels, sorted(edges))
    return permuted(fragment, draw(st.permutations(range(fragment.n_nodes))))


def counted_certificates(monkeypatch) -> list:
    calls = []
    real = mining._certificate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mining, "_certificate", counting)
    return calls


class TestPrunedSearch:
    @pytest.mark.parametrize("smiles", SYMMETRIC_FIXTURES)
    def test_equals_exhaustive_search_under_relabeling(self, smiles):
        fragment = whole_molecule_fragment(parse_smiles(smiles))
        expected = reference_canonical_form(fragment)
        assert canonical_form(fragment) == expected
        rng = np.random.default_rng(fragment.n_nodes)
        for _ in range(20):
            perm = rng.permutation(fragment.n_nodes).tolist()
            assert canonical_form(permuted(fragment, perm)) == expected

    @pytest.mark.parametrize("name", REGULAR_FIXTURES)
    def test_regular_graphs_equal_exhaustive_search(self, name):
        fragment = REGULAR_FIXTURES[name]
        expected = reference_canonical_form(fragment)
        rng = np.random.default_rng(fragment.n_nodes)
        for _ in range(20):
            perm = rng.permutation(fragment.n_nodes).tolist()
            assert canonical_form(permuted(fragment, perm)) == expected

    @pytest.mark.parametrize("smiles", LARGE_SYMMETRIC)
    def test_large_fixture_relabel_invariant(self, smiles):
        fragment = whole_molecule_fragment(parse_smiles(smiles))
        key = canonical_key(fragment)
        rng = np.random.default_rng(fragment.n_nodes)
        for _ in range(20):
            perm = rng.permutation(fragment.n_nodes).tolist()
            assert canonical_key(permuted(fragment, perm)) == key

    @pytest.mark.parametrize("smiles", SYMMETRIC_FIXTURES + LARGE_SYMMETRIC)
    def test_leaves_at_most_twice_the_nodes(self, smiles, monkeypatch):
        calls = counted_certificates(monkeypatch)
        fragment = whole_molecule_fragment(parse_smiles(smiles))
        rng = np.random.default_rng(1)
        for perm in [list(range(fragment.n_nodes))] + [
            rng.permutation(fragment.n_nodes).tolist() for _ in range(3)
        ]:
            calls.clear()
            canonical_form(permuted(fragment, perm))
            assert 1 <= len(calls) <= 2 * fragment.n_nodes

    @settings(max_examples=150, deadline=None)
    @given(symmetric_fragments())
    def test_random_symmetric_fragments_match_exhaustive_search(self, fragment):
        assert canonical_form(fragment) == reference_canonical_form(fragment)

    def test_activated_subgraphs_search_once(self, monkeypatch):
        calls = counted_certificates(monkeypatch)
        molecule = parse_smiles("CC(C)(C)C(C)(C)C")
        key = canonical_key(whole_molecule_fragment(molecule))
        leaves = len(calls)
        calls.clear()
        [(got, _)] = activated_subgraphs(molecule, np.ones(molecule.n_atoms))
        assert got == key
        assert len(calls) == leaves



class TestContainment:
    def test_single_bond_in_ethane_like_set(self):
        pattern = frag([C, C], [(0, 1, 1)])
        entries = [
            ("a", parse_smiles("CC"), 1),
            ("b", parse_smiles("CCC"), 0),
            ("c", parse_smiles("CC(C)C"), 1),
        ]
        assert count_dataset_occurrences(pattern, entries) == (2, 1)

    def test_absent_everywhere(self):
        pattern = frag([N, N], [(0, 1, 3)])
        entries = [("a", parse_smiles("CC"), 1), ("b", parse_smiles("CO"), 0)]
        assert count_dataset_occurrences(pattern, entries) == (0, 0)

    def test_path_in_ring(self):
        # non-induced containment: a C-C-C path embeds into a triangle
        pattern = frag([C, C, C], [(0, 1, 1), (1, 2, 1)])
        assert molecule_contains(parse_smiles("C1CC1"), pattern)

    def test_order_mismatch_blocks(self):
        pattern = frag([C, C], [(0, 1, 2)])
        assert not molecule_contains(parse_smiles("CC"), pattern)
        assert molecule_contains(parse_smiles("C=C"), pattern)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        host = random_fragment(rng, max_nodes=8)
        for _ in range(12):
            pattern = random_fragment(rng, max_nodes=4)
            got = contains_fragment(host, pattern)
            expected = brute_force_contains(
                (list(pattern.node_labels), list(pattern.edges)),
                (list(host.node_labels), list(host.edges)),
            )
            assert got == expected

    def test_disconnected_pattern_raises(self):
        host = whole_molecule_fragment(parse_smiles("CCCO"))
        with pytest.raises(ValueError, match="connected"):
            contains_fragment(host, frag([C, O], []))
        with pytest.raises(ValueError, match="connected"):
            contains_fragment(host, frag([C, C, C, O], [(0, 1, 1), (2, 3, 1)]))

    def test_host_tables_built_once(self, monkeypatch):
        built = []
        real = mining._build_tables
        monkeypatch.setattr(mining, "_build_tables", lambda f: built.append(f) or real(f))
        host = whole_molecule_fragment(parse_smiles("FC(F)(F)C(F)(F)C(F)(F)F"))
        patterns = [frag([C, F], [(0, 1, 1)]), frag([C, C, F], [(0, 1, 1), (1, 2, 1)])]
        for _ in range(3):
            for pattern in patterns:
                assert contains_fragment(host, pattern)
        assert len(built) == 1 + len(patterns)

    @pytest.mark.parametrize("ring", range(3, 7))
    def test_ring_needs_its_closing_bond(self, ring):
        # a k-ring embeds into an m-ring only for k == m, although every
        # m-ring atom has the two carbon neighbors a k-ring atom needs
        pattern = carbon_graph(cycle(ring))
        for size in range(ring, 8):
            assert contains_fragment(carbon_graph(cycle(size)), pattern) == (size == ring)
        # decalin holds both six-rings and its ten-atom perimeter
        decalin = whole_molecule_fragment(parse_smiles("C1CCC2CCCCC2C1"))
        assert contains_fragment(decalin, pattern) == (ring == 6)

    def test_perfluoro_chains(self):
        # C4F10 holds a C3F7 piece, but not C3F8: its middle carbons carry 2 F
        host = whole_molecule_fragment(parse_smiles(perhalo("F", 4)))
        assert contains_fragment(host, whole_molecule_fragment(parse_smiles("FC(F)(F)C(F)(F)C(F)F")))
        assert not contains_fragment(host, whole_molecule_fragment(parse_smiles(perhalo("F", 3))))
        assert not contains_fragment(host, whole_molecule_fragment(parse_smiles("FC(F)(F)F")))


@st.composite
def branched_fragments(draw, min_nodes, max_nodes):
    """Trees of C and N with halogen leaves, sometimes closed into a ring."""
    n = draw(st.integers(min_nodes, max_nodes))
    labels = [draw(st.sampled_from([C, N]))]
    edges = []
    for i in range(1, n):
        skeleton = [j for j in range(i) if labels[j] in (C, N)]
        labels.append(draw(st.sampled_from([C, C, N, F, CL])))
        edges.append((draw(st.sampled_from(skeleton)), i, draw(st.sampled_from([1, 1, 2]))))
    if n >= 4 and draw(st.booleans()):
        skeleton = [j for j in range(n) if labels[j] in (C, N)]
        if len(skeleton) >= 3:
            a, b = sorted(draw(st.lists(st.sampled_from(skeleton), min_size=2, max_size=2, unique=True)))
            if not any(e[:2] == (a, b) for e in edges):
                edges.append((a, b, 1))
    return frag(labels, sorted(edges))


@st.composite
def host_pattern_pairs(draw):
    host = draw(branched_fragments(3, 8))
    if draw(st.booleans()):
        return host, draw(branched_fragments(1, 5))
    # a connected piece of the host, relabeled, so that hits are common
    adj = [
        [(b if a == i else a, order) for a, b, order in host.edges if i in (a, b)]
        for i in range(host.n_nodes)
    ]
    chosen = [draw(st.integers(0, host.n_nodes - 1))]
    tree = set()
    for _ in range(draw(st.integers(0, 4))):
        frontier = sorted({(i, j) for i in chosen for j, _ in adj[i] if j not in chosen})
        if frontier:
            i, j = draw(st.sampled_from(frontier))
            chosen.append(j)
            tree.add((min(i, j), max(i, j)))
    index = {v: k for k, v in enumerate(chosen)}
    edges = [
        (min(index[i], index[j]), max(index[i], index[j]), order)
        for i, j, order in host.edges
        if i in index and j in index and ((i, j) in tree or draw(st.booleans()))
    ]
    piece = frag([host.node_labels[v] for v in chosen], sorted(edges))
    return host, permuted(piece, draw(st.permutations(range(piece.n_nodes))))


class TestContainmentProperties:
    @settings(max_examples=200, deadline=None)
    @given(host_pattern_pairs())
    def test_matches_brute_force_oracle(self, pair):
        host, pattern = pair
        expected = brute_force_contains(
            (list(pattern.node_labels), list(pattern.edges)),
            (list(host.node_labels), list(host.edges)),
        )
        assert contains_fragment(host, pattern) == expected

class TestActivatedSubgraphs:
    def test_all_zero_heatmap_strict_threshold(self):
        m = parse_smiles("CCO")
        assert activated_subgraphs(m, np.zeros(3), tau=0.0) == []

    def test_full_activation_single_component(self):
        m = parse_smiles("CCO")
        subs = activated_subgraphs(m, np.array([0.2, 0.5, 0.3]))
        assert len(subs) == 1
        assert subs[0][0] == canonical_key(whole_molecule_fragment(m))

    def test_alternating_ring_activation_empty(self):
        m = parse_smiles("C1CCCCC1")
        values = np.array([0.5, 0.0, 0.5, 0.0, 0.5, 0.0])
        assert activated_subgraphs(m, values) == []

    def test_two_components(self):
        m = parse_smiles("CCOCC")  # path C-C-O-C-C
        values = np.array([0.4, 0.4, 0.0, 0.4, 0.4])
        subs = activated_subgraphs(m, values)
        assert len(subs) == 2
        assert subs[0][0] == subs[1][0]  # both are C-C


def planted_entries():
    positives = ["CCNO", "CCCNO", "CC(C)NO", "CCC(NO)C", "CCCCNO", "CNOC",
                 "CCNOC", "CC(NO)CC", "CCCNOC", "C(NO)CC", "CCCC(C)NO", "CCNO"]
    negatives = ["CC", "CCC", "CCCC", "CC(C)C", "CCCCC", "CCC(C)C",
                 "CCCCCC", "CC(C)(C)C", "CCC(C)CC", "C1CCC1", "CCCCC", "CCCCCC"]
    entries = []
    for i, s in enumerate(positives):
        entries.append((f"p{i}", parse_smiles(s), 1))
    for i, s in enumerate(negatives):
        entries.append((f"n{i}", parse_smiles(s), 0))
    return entries


def motif_mask(molecule):
    return np.array(
        [1.0 if el.symbol in ("N", "O") else 0.0 for el in molecule.elements]
    )


def corpus_with_duplicates():
    entries = planted_entries()
    # the same SMILES under new ids and both labels, and one isomer spelled apart
    entries += [(f"d{i}", parse_smiles(s), i % 2) for i, s in enumerate(["CCNO", "CCNO", "CCC", "CCC", "OCC"])]
    entries += [(f"e{i}", parse_smiles("CC(C)(C)C(C)(C)C"), 1) for i in range(3)]
    return entries


class TestMineAgainstReference:
    @pytest.mark.parametrize("tau", [-1.0, 0.1])
    @pytest.mark.parametrize("seed", range(3))
    def test_records_equal_candidate_major_reference(self, tau, seed):
        entries = corpus_with_duplicates()
        rng = np.random.default_rng(seed)
        heatmaps = {mol_id: rng.random(mol.n_atoms) for mol_id, mol, _ in entries[::2]}
        heatmaps.update({mol_id: rng.random(mol.n_atoms) for mol_id, mol, _ in entries[1::3]})
        predictions = {mol_id: int(rng.integers(0, 2)) for mol_id, _, _ in entries}
        for true_positives_only in (False, True):
            kwargs = dict(
                predictions=predictions,
                tau=tau,
                min_occurrence=2,
                top_k=1000,
                true_positives_only=true_positives_only,
            )
            stats = {}
            got = [r.to_dict() for r in mine(entries, heatmaps, stats=stats, **kwargs)]
            assert got == [r.to_dict() for r in reference_mine(entries, heatmaps, **kwargs)]
            # some candidates pass min_occurrence and some fail it
            assert 0 < len(got) < stats["candidates"]

    @pytest.mark.parametrize("tau", [-1.0, 0.1])
    def test_each_distinct_host_decided_once(self, monkeypatch, tau):
        entries = corpus_with_duplicates()
        rng = np.random.default_rng(4)
        heatmaps = {mol_id: rng.random(mol.n_atoms) for mol_id, mol, _ in entries}
        calls = []
        real = mining.contains_fragment
        monkeypatch.setattr(
            mining,
            "contains_fragment",
            lambda host, pattern: calls.append((host, pattern)) or real(host, pattern),
        )
        stats = {}
        mine(entries, heatmaps, tau=tau, min_occurrence=2, true_positives_only=False, stats=stats)
        hosts = {whole_molecule_fragment(mol) for _, mol, _ in entries}
        regions = {
            molecule_fragment(mol, np.flatnonzero(heatmaps[mol_id] > tau).tolist())
            for mol_id, mol, _ in entries
        }
        assert stats["hosts"] == len(hosts) < len(entries)
        # at tau -1 every region is its molecule; at 0.1 some regions are not
        assert (regions <= hosts) == (tau < 0)
        fragments = hosts | regions
        # every (fragment, candidate) pair is decided exactly once
        assert len(set(calls)) == len(calls)
        assert stats["decisions"] == len(calls) == stats["candidates"] * len(fragments)
        assert {host for host, _ in calls} == fragments


class TestMine:
    def test_perfect_explainer_ranks_motif_first(self):
        entries = planted_entries()
        heatmaps = {
            mol_id: motif_mask(mol) for mol_id, mol, label in entries if label == 1
        }
        records = mine(
            entries,
            heatmaps,
            tau=0.0,
            min_occurrence=10,
            top_k=10,
            true_positives_only=False,
        )
        assert records, "expected at least one mined substructure"
        top = records[0]
        assert sorted(sym for sym, _, _ in top.pattern.node_labels) == ["N", "O"]
        assert top.r_p == 1.0
        assert top.r_e == 1.0

    def test_strictly_more_than_min_occurrence(self):
        entries = planted_entries()
        heatmaps = {
            mol_id: motif_mask(mol) for mol_id, mol, label in entries if label == 1
        }
        # the N-O pair occurs in exactly 12 molecules here
        assert mine(entries, heatmaps, min_occurrence=12, true_positives_only=False) == []
        assert mine(entries, heatmaps, min_occurrence=11, true_positives_only=False) != []

    def test_uniform_explainer_explains_every_occurrence(self):
        entries = [(f"m{i}", parse_smiles("CCO"), i % 2) for i in range(12)]
        entries += [(f"x{i}", parse_smiles("CCCO"), 1) for i in range(3)]
        heatmaps = {mol_id: np.ones(mol.n_atoms) for mol_id, mol, _ in entries}
        records = mine(
            entries, heatmaps, min_occurrence=10, true_positives_only=False
        )
        assert records
        for record in records:
            assert record.r_e == 1.0

    def test_true_positive_filter_requires_predictions(self):
        entries = planted_entries()
        heatmaps = {entries[0][0]: motif_mask(entries[0][1])}
        with pytest.raises(ValueError):
            mine(entries, heatmaps, true_positives_only=True)

    def test_true_positive_filter_applied(self):
        entries = planted_entries()
        heatmaps = {
            mol_id: motif_mask(mol) for mol_id, mol, label in entries if label == 1
        }
        # only half the positives are predicted positive
        predictions = {}
        pos_ids = [mol_id for mol_id, _, label in entries if label == 1]
        for i, mol_id in enumerate(pos_ids):
            predictions[mol_id] = 1 if i < 6 else 0
        records = mine(
            entries,
            heatmaps,
            predictions=predictions,
            min_occurrence=10,
            true_positives_only=True,
        )
        assert records
        assert records[0].n_explained == 6

    def test_deterministic(self):
        entries = planted_entries()
        heatmaps = {
            mol_id: motif_mask(mol) for mol_id, mol, label in entries if label == 1
        }
        a = mine(entries, heatmaps, true_positives_only=False)
        b = mine(entries, heatmaps, true_positives_only=False)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_r_e_never_exceeds_one(self):
        entries = planted_entries()
        rng = np.random.default_rng(3)
        heatmaps = {
            mol_id: (rng.random(mol.n_atoms) > 0.3).astype(float)
            for mol_id, mol, _ in entries
        }
        records = mine(
            entries, heatmaps, min_occurrence=2, true_positives_only=False
        )
        for record in records:
            assert 0.0 <= record.r_e <= 1.0
            assert 0.0 <= record.r_p <= 1.0
