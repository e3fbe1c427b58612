import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manual_params, random_instance
from gcnx.graphs import AttributedGraph, ElementLabel
from gcnx.explainers import MoleculeExplanations, explain_pair
from gcnx.metrics import binarize, contrastivity, fidelity, metric_suite, sparsity
from gcnx.model import forward, occlude

from _oracles import reference_metric_suite


class TestContrastivity:
    def test_identical_masks(self):
        assert contrastivity([1, 0, 1], [1, 0, 1]) == 0.0

    def test_disjoint_nonempty_masks(self):
        assert contrastivity([1, 1, 0, 0], [0, 0, 1, 1]) == 100.0

    def test_hand_count(self):
        assert contrastivity([1, 0, 1], [0, 1, 1]) == pytest.approx(100.0 * 2 / 3)

    def test_empty_union_degenerate(self):
        assert contrastivity([0, 0], [0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contrastivity([1, 0], [1, 0, 0])

    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_permutation_invariant(self, bits, seed):
        rng = np.random.default_rng(seed)
        m0 = np.array(bits)
        m1 = rng.random(len(bits)) < 0.5
        assert contrastivity(m0, m1) == contrastivity(m1, m0)
        perm = rng.permutation(len(bits))
        assert contrastivity(m0[perm], m1[perm]) == pytest.approx(contrastivity(m0, m1))
        assert contrastivity(m0, m0) == 0.0


class TestSparsity:
    def test_both_empty(self):
        assert sparsity([0, 0, 0], [0, 0, 0], 3) == 100.0

    def test_union_covers_all(self):
        assert sparsity([1, 0, 1], [0, 1, 0], 3) == 0.0

    def test_three_of_ten(self):
        m0 = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        m1 = [0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert sparsity(m0, m1, 10) == 70.0

    @given(st.integers(1, 12), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_added_bits(self, n, seed):
        rng = np.random.default_rng(seed)
        m0 = rng.random(n) < 0.4
        m1 = rng.random(n) < 0.4
        base = sparsity(m0, m1, n)
        grown = m0.copy()
        grown[int(rng.integers(0, n))] = True
        assert sparsity(grown, m1, n) <= base

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        m0 = rng.random(8) < 0.5
        m1 = rng.random(8) < 0.5
        perm = rng.permutation(8)
        assert sparsity(m0[perm], m1[perm], 8) == sparsity(m0, m1, 8)


def two_node_isolated_graph(features):
    return AttributedGraph(
        node_features=np.asarray(features, dtype=float),
        adjacency=np.zeros((2, 2)),
        node_elements=(ElementLabel("C"), ElementLabel("C")),
    )


def flip_fixture():
    """Two molecules whose predictions both flip when the salient node is
    occluded: the surviving node carries opposite-class evidence."""
    params = manual_params([np.eye(2)], np.eye(2))
    mol_a = two_node_isolated_graph([[2.0, 0.0], [0.0, 1.0]])  # predicted 0
    mol_b = two_node_isolated_graph([[0.0, 2.0], [1.0, 0.0]])  # predicted 1
    return params, [(mol_a, 0), (mol_b, 1)]


class TestFidelity:
    def test_null_explainer_gives_zero(self):
        g, p = random_instance(seed=41)
        assert fidelity(p, [(g, 0), (g, 1)], "null") == 0.0

    def test_occlusion_flips_both_predictions(self):
        params, data = flip_fixture()
        assert fidelity(params, data, "grad_cam") == 1.0

    def test_empty_dataset_rejected(self):
        _, p = random_instance(seed=42)
        with pytest.raises(ValueError):
            fidelity(p, [], "cam")


class TestMetricSuite:
    def test_single_molecule_zero_std(self):
        g, p = random_instance(seed=43, positive_features=True)
        reports = metric_suite(p, [(g, 0)], ["grad_cam"])
        assert len(reports) == 1
        assert reports[0].contrastivity_std == 0.0
        assert reports[0].sparsity_std == 0.0
        assert reports[0].n_molecules == 1

    def test_duplicate_molecule_mean_unchanged(self):
        g, p = random_instance(seed=44, positive_features=True)
        single = metric_suite(p, [(g, 1)], ["cam"])[0]
        double = metric_suite(p, [(g, 1), (g, 1)], ["cam"])[0]
        assert double.contrastivity_mean == pytest.approx(single.contrastivity_mean)
        assert double.sparsity_mean == pytest.approx(single.sparsity_mean)
        assert double.contrastivity_std == pytest.approx(0.0, abs=1e-12)

    def test_null_method_counts_degenerates(self):
        g, p = random_instance(seed=45)
        report = metric_suite(p, [(g, 0), (g, 1)], ["null"])[0]
        assert report.n_degenerate == 2
        assert report.contrastivity_mean == 0.0
        assert report.sparsity_mean == 100.0
        assert report.fidelity == 0.0

    def test_report_ranges(self):
        g, p = random_instance(seed=46, positive_features=True)
        g2, _ = random_instance(seed=47, d_in=g.feature_dim, positive_features=True)
        data = [(g, 0), (g2, 1)]
        for report in metric_suite(p, data, ["gradient", "grad_cam", "eb", "ceb"]):
            assert -1.0 <= report.fidelity <= 1.0
            assert 0.0 <= report.contrastivity_mean <= 100.0
            assert 0.0 <= report.sparsity_mean <= 100.0
            assert report.contrastivity_std >= 0.0
            assert report.sparsity_std >= 0.0


class TestMetricSuiteReference:
    METHODS = ["gradient", "cam", "grad_cam", "grad_cam_avg", "eb", "ceb", "null"]

    @staticmethod
    def desk_dataset(seed, n_molecules=6):
        g, p = random_instance(seed=seed, widths=(16, 32, 64), positive_features=True)
        rng = np.random.default_rng(seed)
        data = [(g, int(rng.integers(0, 2)))]
        for k in range(1, n_molecules):
            gk, _ = random_instance(
                seed=1000 * seed + k, d_in=g.feature_dim, positive_features=True
            )
            data.append((gk, int(rng.integers(0, 2))))
        # drop from the class-score difference its part along the molecules'
        # mean pooled features: the differences then sum to zero over the
        # dataset, so it holds molecules predicted as either class
        mean_gap = np.mean([forward(gk, p).gap for gk, _ in data], axis=0)
        w = p.classifier_weights
        w[:, 1] -= (w[:, 1] - w[:, 0]) @ mean_gap / (mean_gap @ mean_gap) * mean_gap
        return p, data

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_loop_level_reference(self, seed):
        p, data = self.desk_dataset(seed)
        # both entries of masks[predicted] are checked against the reference
        assert {int(np.argmax(forward(g, p).probabilities)) for g, _ in data} == {0, 1}
        for threshold in (0.01, 0.05):
            got = [r.to_dict() for r in metric_suite(p, data, self.METHODS, threshold)]
            want = reference_metric_suite(p, data, self.METHODS, threshold)
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                for key in g:
                    if isinstance(g[key], float):
                        assert abs(g[key] - w[key]) <= 1e-12, (g["method"], key)
                    else:
                        assert g[key] == w[key], (g["method"], key)

    def test_fidelity_equals_suite(self):
        p, data = self.desk_dataset(7)
        reports = metric_suite(p, data, self.METHODS)
        for report in reports:
            assert fidelity(p, data, report.method) == report.fidelity

    def test_one_forward_per_molecule_plus_distinct_masks(self, monkeypatch):
        """One plain forward per molecule, at most one stacked forward per
        molecule, and one occlude call per distinct non-empty mask of the
        predicted class: several masks with every method, one that gradient
        and eb share (both mark every atom on this fixture), none with null."""
        import gcnx.explainers as explainers
        import gcnx.metrics as metrics

        forwards, occlusions = [], []

        def counting_forward(graph, params, features=None):
            forwards.append((graph, features))
            return forward(graph, params, features)

        def counting_occlude(graph, mask):
            occlusions.append((graph, np.asarray(mask, dtype=bool).tobytes()))
            return occlude(graph, mask)

        p, data = self.desk_dataset(8, n_molecules=4)
        n_masks = set()
        for methods in (self.METHODS, ["gradient", "eb"], ["null"]):
            expected_masks = []
            for g, _ in data:
                source = MoleculeExplanations(g, p)
                predicted = int(np.argmax(source.trace.probabilities))
                masks = {binarize(explain_pair(source, m)[predicted]).tobytes() for m in methods}
                expected_masks.append(sorted(k for k in masks if any(np.frombuffer(k, dtype=bool))))
            forwards.clear()
            occlusions.clear()
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "forward", counting_forward)
                patch.setattr(explainers, "forward", counting_forward)
                patch.setattr(metrics, "occlude", counting_occlude)
                metric_suite(p, data, methods)
            assert [g for g, features in forwards if features is None] == [g for g, _ in data]
            for (g, _), keys in zip(data, expected_masks):
                n_masks.add(min(len(keys), 2))
                assert sorted(k for og, k in occlusions if og is g) == keys
                stacked = [f for sg, f in forwards if sg is g and f is not None]
                assert len(stacked) == (1 if keys else 0)
                if keys:
                    assert stacked[0].shape == (len(keys), g.n_nodes, g.feature_dim)
        assert n_masks == {0, 1, 2}

class TestBinarize:
    def test_strict_threshold(self):
        from gcnx.explainers import Heatmap

        h = Heatmap("cam", 1, np.array([0.01, 0.011, 0.0]), normalized=True)
        assert binarize(h, 0.01).tolist() == [False, True, False]
