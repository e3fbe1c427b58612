import numpy as np
import pytest

from conftest import (
    bench_module,
    manual_params,
    positive_instance,
    random_instance,
    single_node_graph,
)
from gcnx.explainers import (
    METHODS,
    Heatmap,
    MoleculeExplanations,
    excitation_backprop_trace,
    explain_pair,
    normalize_pair,
    positive_layer_weights,
)
from gcnx.graphs import AttributedGraph
from gcnx.model import class_score_gradients, forward, init_params, score_gradients
from gcnx.smiles import parse_smiles

from _oracles import central_difference, straight_line_eb, tail_class_score
from _oracles import excitation_backprop_trace as per_seed_eb
from _oracles import round_trip_excitation_backprop_trace

# The symmetric positives of the benchmark's symmetric-mine corpus.
SYMMETRIC_POSITIVES = tuple(smiles for smiles, _ in bench_module("workloads").SYMMETRIC_POSITIVES)


def assert_stacked_equals_per_seed(g, p):
    """Every (sign, class) row of the stacked pass equals, bit for bit, the
    per-seed pass with that classifier column."""
    t = forward(g, p)
    stacked = excitation_backprop_trace(t, g, p)
    assert stacked.shape == (2, p.n_classes, g.n_nodes)
    for sign in (0, 1):
        for c in range(p.n_classes):
            expected = per_seed_eb(t, g, p, c, negate_classifier=bool(sign)).heatmap_values
            assert np.array_equal(stacked[sign, c], expected)


class TestGradientSaliency:
    def test_zero_weights_zero_heatmap(self):
        g = single_node_graph([1.0, 2.0])
        p = manual_params([np.zeros((2, 3))], np.ones((3, 2)))
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("gradient", 0)
        assert np.all(h.values == 0.0)

    def test_single_node_linear_regime(self):
        w = np.array([[0.7, 0.2], [0.1, 0.9]])
        wc = np.array([[0.5, 0.3], [0.4, 0.8]])
        g = single_node_graph([2.0, 3.0])
        p = manual_params([w], wc)
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("gradient", 0)
        expected = np.linalg.norm(np.maximum(w @ wc[:, 0], 0.0))
        assert h.values[0] == pytest.approx(expected, abs=1e-14)

    def test_matches_clamped_finite_differences(self):
        g, p = random_instance(seed=71, min_margin=1e-4)
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("gradient", 1)

        def f(x):
            return forward(g.with_features(x), p).scores[1]

        fd = central_difference(f, g.node_features.copy())
        expected = np.linalg.norm(np.maximum(fd, 0.0), axis=1)
        assert np.allclose(h.values, expected, atol=1e-5)

    def test_zero_where_clamped_gradient_zero(self):
        g, p = random_instance(seed=72)
        t = forward(g, p)
        grads = score_gradients(t, g, p, 0)
        h = MoleculeExplanations(g, p, t).heatmap("gradient", 0)
        dead = np.all(grads.activations[0] <= 0.0, axis=1)
        assert np.all(h.values[dead] == 0.0)


class TestCam:
    def test_zero_final_features(self):
        g = single_node_graph([0.0, 0.0])
        p = init_params(2, (3,), seed=4)
        t = forward(g, p)
        assert np.all(MoleculeExplanations(g, p, t).heatmap("cam", 0).values == 0.0)

    def test_single_feature_identity_weight(self):
        # cam is final-layer grad_cam: relu(F w_c) scaled by 1/N
        g, _ = random_instance(seed=73, n_nodes=4, d_in=3)
        p = manual_params([np.abs(np.random.default_rng(0).normal(size=(3, 1)))], [[1.0, -1.0]])
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("cam", 0)
        assert h.layer is None
        assert np.allclose(h.values * g.n_nodes, np.maximum(t.activations[-1][:, 0], 0.0))

    def test_node_average_recovers_class_score(self):
        g, p = random_instance(seed=74)
        t = forward(g, p)
        for c in range(2):
            pre_relu = t.activations[-1] @ p.classifier_weights[:, c]
            assert pre_relu.mean() == pytest.approx(t.scores[c], abs=1e-12)


class TestGradCam:
    def test_final_layer_equals_cam_after_normalization(self):
        for seed in range(5):
            g, p = random_instance(seed=800 + seed)
            t = forward(g, p)
            cam_pair = explain_pair(MoleculeExplanations(g, p, t), "cam")
            gc_pair = explain_pair(MoleculeExplanations(g, p, t), "grad_cam")
            for hc, hg in zip(cam_pair, gc_pair):
                assert np.max(np.abs(hc.values - hg.values)) < 1e-10

    def test_final_layer_proportional_to_cam_raw(self):
        # the ratio is exactly 1: cam returns the final-layer grad_cam map.
        # At desk widths relu(F w_c) / N and relu(F mean(w_c / N)) differ in
        # the last bit on most instances, so equality needs one computation
        instances = [random_instance(seed=81)]
        instances += [random_instance(seed=s, widths=(16, 32, 64)) for s in range(900, 940)]
        for g, p in instances:
            source = MoleculeExplanations(g, p)
            for c in (0, 1):
                assert np.array_equal(
                    source.heatmap("cam", c).values, source.heatmap("grad_cam", c).values
                )
            cam_pair = explain_pair(source, "cam")
            gc_pair = explain_pair(source, "grad_cam", p.n_layers)
            for h_cam, h_gc in zip(cam_pair, gc_pair, strict=True):
                assert np.array_equal(h_cam.values, h_gc.values)
                assert h_cam.normalized == h_gc.normalized

    def test_zero_gradients_zero_heatmap(self):
        g = single_node_graph([1.0, 1.0])
        p = manual_params([np.eye(2)], np.zeros((2, 2)))
        t = forward(g, p)
        assert np.all(MoleculeExplanations(g, p, t).heatmap("grad_cam", 0, 1).values == 0.0)

    def test_layer_out_of_range(self):
        g, p = random_instance(seed=82)
        t = forward(g, p)
        with pytest.raises(ValueError):
            MoleculeExplanations(g, p, t).heatmap("grad_cam", 0, 0)
        with pytest.raises(ValueError):
            MoleculeExplanations(g, p, t).heatmap("grad_cam", 0, p.n_layers + 1)

    @pytest.mark.parametrize("widths", [(4, 5, 6), (16, 32, 64), (128, 256, 512)])
    @pytest.mark.parametrize("seed", [87, 88])
    def test_final_layer_equals_backward_pass_bit_for_bit(self, seed, widths):
        # final-layer grad_cam runs no backward pass; its values must still
        # be the ones the stacked backward pass gives
        g, p = random_instance(seed=seed, widths=widths, n_classes=2 + seed % 2)
        t = forward(g, p)
        top = class_score_gradients(t, g, p)[p.n_layers]
        source = MoleculeExplanations(g, p, t)
        for c in range(p.n_classes):
            expected = np.maximum(t.activations[-1] @ top[c].mean(axis=0), 0.0)
            assert np.array_equal(source.heatmap("grad_cam", c).values, expected)
            assert np.array_equal(source.heatmap("grad_cam", c, p.n_layers).values, expected)

    @pytest.mark.parametrize("seed", [83, 84])
    def test_alpha_matches_finite_differences(self, seed):
        g, p = random_instance(seed=seed, min_margin=1e-4)
        t = forward(g, p)
        c = 1
        grads = score_gradients(t, g, p, c)
        for layer in range(1, p.n_layers + 1):
            def f(fmat, layer=layer):
                return tail_class_score(g, p, layer, fmat, c)

            fd = central_difference(f, t.activations[layer].copy())
            alpha_fd = fd.mean(axis=0)
            alpha = grads.activations[layer].mean(axis=0)
            assert np.allclose(alpha, alpha_fd, atol=1e-5)


class TestGradCamAvg:
    def test_single_layer_equals_grad_cam(self):
        g, p = random_instance(seed=85, widths=(5,))
        t = forward(g, p)
        avg = MoleculeExplanations(g, p, t).heatmap("grad_cam_avg", 1)
        single = MoleculeExplanations(g, p, t).heatmap("grad_cam", 1, 1)
        assert np.array_equal(avg.values, single.values)

    def test_equals_mean_of_layer_maps(self):
        g, p = random_instance(seed=86, widths=(4, 5, 6))
        source = MoleculeExplanations(g, p, forward(g, p))
        maps = [source.heatmap("grad_cam", 0, l).values for l in (1, 2, 3)]
        expected = (maps[0] + maps[1] + maps[2]) / 3.0
        assert np.allclose(source.heatmap("grad_cam_avg", 0).values, expected, atol=1e-14)


class TestExcitationBackprop:
    def test_single_path_network(self):
        g = single_node_graph([1.0])
        p = manual_params([np.array([[2.0]])], np.array([[1.0, 0.5]]))
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("eb", 0)
        assert h.values == pytest.approx([1.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_conservation_per_layer(self, seed):
        g, p = positive_instance(seed=seed)
        t = forward(g, p)
        assert min(np.min(a) for a in t.activations[1:]) > 0.0
        eb_trace = per_seed_eb(t, g, p, 1)
        for mass in eb_trace.layer_masses():
            assert mass == pytest.approx(1.0, abs=1e-9)
        # input mass of each stacked seed: 1, or 0 if its column has no positive entry
        input_mass = excitation_backprop_trace(t, g, p).sum(axis=-1) * g.feature_dim
        assert input_mass[0, 1] == pytest.approx(1.0, abs=1e-9)
        for mass in input_mass.ravel():
            assert mass == pytest.approx(1.0, abs=1e-9) or mass == 0.0

    def test_degenerate_inputs_transmit_zero_mass(self):
        g = single_node_graph([0.0, 0.0])
        p = init_params(2, (3, 3), seed=1)
        t = forward(g, p)
        eb_trace = per_seed_eb(t, g, p, 0)
        assert all(m == 0.0 for m in eb_trace.layer_masses())
        assert np.all(excitation_backprop_trace(t, g, p) == 0.0)
        h = MoleculeExplanations(g, p, t).heatmap("eb", 0)
        assert np.all(h.values == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_straight_line_oracle(self, seed):
        g, p = positive_instance(seed=100 + seed, n_nodes=2, widths=(3,))
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("eb", 1)
        expected = straight_line_eb(
            g.node_features,
            g.norm_propagation,
            p.layer_weights[0],
            p.classifier_weights,
            1,
        )
        assert np.allclose(h.values, expected, atol=1e-12)

    def test_contrastive_renormalized(self):
        g, p = positive_instance(seed=9)
        t = forward(g, p)
        h = MoleculeExplanations(g, p, t).heatmap("ceb", 1)
        assert np.all(h.values >= 0.0)
        total = h.values.sum()
        assert total == pytest.approx(1.0, abs=1e-12) or total == 0.0

    def test_heatmap_nonnegative_on_molecules(self):
        from gcnx.smiles import parse_smiles

        m = parse_smiles("CC(=O)Oc1ccccc1")
        p = init_params(m.graph.feature_dim, (4, 4), seed=3)
        source = MoleculeExplanations(m.graph, p, forward(m.graph, p))
        for c in (0, 1):
            for contrastive in (False, True):
                h = source.heatmap("ceb" if contrastive else "eb", c)
                assert np.all(h.values >= 0.0)


class TestStackedExcitation:
    @pytest.mark.parametrize("smiles", SYMMETRIC_POSITIVES)
    def test_symmetric_molecules(self, smiles):
        g = parse_smiles(smiles).graph
        assert_stacked_equals_per_seed(g, init_params(g.feature_dim, (16, 32, 64), seed=5))

    @pytest.mark.parametrize("widths", [(16, 32, 64), (128, 256, 512)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, widths, seed):
        for positive in (False, True):
            g, p = random_instance(seed=340 + seed, widths=widths, positive_features=positive)
            assert_stacked_equals_per_seed(g, p)

    def test_zero_feature_graph(self):
        g, p = random_instance(seed=350, widths=(16, 32, 64))
        assert_stacked_equals_per_seed(g.with_features(np.zeros_like(g.node_features)), p)

    def test_single_node_graph(self):
        g = single_node_graph([1.0, 0.5, 2.0])
        assert_stacked_equals_per_seed(g, init_params(3, (16, 32, 64), seed=6))


def assert_near_round_trip(g, p):
    """Every seed of the pass is within 1e-14, relative to the seed's
    largest mass, of the pass that forms (V F) * back and divides V F out
    again; with nonnegative inputs the two agree in real arithmetic."""
    t = forward(g, p)
    stacked = excitation_backprop_trace(t, g, p, positive_layer_weights(p))
    for sign in (0, 1):
        for c in range(p.n_classes):
            expected = round_trip_excitation_backprop_trace(
                t, g, p, c, negate_classifier=bool(sign)
            ).heatmap_values
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(stacked[sign, c] - expected)) <= 1e-14 * scale


class TestRoundTripFree:
    @pytest.mark.parametrize("widths", [(16, 32, 64), (128, 256, 512)])
    @pytest.mark.parametrize("smiles", SYMMETRIC_POSITIVES)
    def test_symmetric_molecules(self, smiles, widths):
        g = parse_smiles(smiles).graph
        assert_near_round_trip(g, init_params(g.feature_dim, widths, seed=5))

    @pytest.mark.parametrize("widths", [(16, 32, 64), (128, 256, 512)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, widths, seed):
        g, p = random_instance(seed=360 + seed, widths=widths, positive_features=True)
        assert_near_round_trip(g, p)

    def test_given_weights_equal_built_ones(self):
        g, p = random_instance(seed=370, widths=(16, 32, 64), positive_features=True)
        t = forward(g, p)
        given = excitation_backprop_trace(t, g, p, positive_layer_weights(p))
        assert np.array_equal(given, excitation_backprop_trace(t, g, p))
        source = MoleculeExplanations(g, p, t, positive_weights=positive_layer_weights(p))
        assert np.array_equal(source.heatmap("eb", 1).values, given[0, 1])


class TestMoleculeExplanations:
    @pytest.mark.parametrize("seed", range(6))
    def test_eb_and_ceb_equal_standalone_passes(self, seed):
        g, p = random_instance(seed=300 + seed, widths=(16, 32, 64), positive_features=True)
        t = forward(g, p)
        source = MoleculeExplanations(g, p, t)
        for c in (0, 1):
            base = per_seed_eb(t, g, p, c).heatmap_values
            opposite = per_seed_eb(t, g, p, c, negate_classifier=True).heatmap_values
            diff = np.maximum(base - opposite, 0.0)
            expected_ceb = diff / diff.sum() if diff.sum() > 0.0 else diff
            assert np.array_equal(source.heatmap("eb", c).values, base)
            assert np.array_equal(source.heatmap("ceb", c).values, expected_ceb)
            assert np.array_equal(
                MoleculeExplanations(g, p, t).heatmap("ceb", c).values, expected_ceb
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_methods_equal_per_class_backprop(self, seed):
        g, p = random_instance(seed=320 + seed, widths=(16, 32, 64))
        t = forward(g, p)
        source = MoleculeExplanations(g, p, t)
        for c in (0, 1):
            grads = score_gradients(t, g, p, c)
            clamped = np.maximum(grads.activations[0], 0.0)
            expected = np.sqrt((clamped * clamped).sum(axis=1))
            assert np.max(np.abs(source.heatmap("gradient", c).values - expected)) <= 1e-12
            for layer in (1, 2, 3):
                alpha = grads.activations[layer].mean(axis=0)
                expected = np.maximum(t.activations[layer] @ alpha, 0.0)
                values = source.heatmap("grad_cam", c, layer).values
                assert np.max(np.abs(values - expected)) <= 1e-12

    def test_each_quantity_computed_once(self, monkeypatch):
        import gcnx.explainers as explainers

        calls = {"backprop": 0, "eb": 0}
        real_backprop = explainers.class_score_gradients
        real_eb = explainers.excitation_backprop_trace

        def counting_backprop(*args, **kwargs):
            calls["backprop"] += 1
            return real_backprop(*args, **kwargs)

        def counting_eb(*args, **kwargs):
            calls["eb"] += 1
            return real_eb(*args, **kwargs)

        monkeypatch.setattr(explainers, "class_score_gradients", counting_backprop)
        monkeypatch.setattr(explainers, "excitation_backprop_trace", counting_eb)
        g, p = random_instance(seed=330, widths=(4, 5, 6))
        t = forward(g, p)
        all_methods = [(m, None) for m in METHODS] + [("grad_cam", 1), ("grad_cam", 2)]
        no_excitation = [("gradient", None), ("cam", None), ("grad_cam", 2)]
        # final-layer grad_cam reads the classifier column: no reverse pass
        final_layer_only = [("cam", None), ("grad_cam", None), ("grad_cam", 3)]
        for requests, expected_calls in (
            (all_methods, {"backprop": 1, "eb": 1}),
            (no_excitation, {"backprop": 1, "eb": 0}),
            (final_layer_only, {"backprop": 0, "eb": 0}),
        ):
            calls.update(backprop=0, eb=0)
            source = MoleculeExplanations(g, p)
            pairs = [explain_pair(source, m, layer) for m, layer in requests]
            assert calls == expected_calls
            for (method, layer), pair in zip(requests, pairs):
                expected = explain_pair(MoleculeExplanations(g, p, t), method, layer)
                for got, want in zip(pair, expected):
                    assert np.array_equal(got.values, want.values)
                    assert got.layer == want.layer and got.normalized == want.normalized


class TestNormalizePair:
    def test_arithmetic_example(self):
        h0 = Heatmap("cam", 0, np.array([2.0, 0.0]))
        h1 = Heatmap("cam", 1, np.array([1.0, 1.0]))
        n0, n1 = normalize_pair(h0, h1)
        assert (n0.class_id, n1.class_id) == (0, 1)
        assert np.allclose(n0.values, [0.5, 0.0])
        assert np.allclose(n1.values, [0.25, 0.25])
        assert n0.normalized and n1.normalized

    def test_all_zero_pair_flagged(self):
        h0 = Heatmap("cam", 0, np.zeros(3))
        h1 = Heatmap("cam", 1, np.zeros(3))
        n0, n1 = normalize_pair(h0, h1)
        assert not n0.normalized and not n1.normalized
        assert np.all(n0.values == 0.0)

    @pytest.mark.parametrize("method", METHODS + ("null",))
    def test_explain_pair_is_in_class_order(self, method):
        g, p = random_instance(seed=94, positive_features=True)
        source = MoleculeExplanations(g, p)
        pair = explain_pair(source, method)
        assert [h.class_id for h in pair] == [0, 1]
        raw = [source.heatmap(method, c).values for c in (0, 1)]
        joint = raw[0].sum() + raw[1].sum()
        for c in (0, 1):
            assert np.allclose(pair[c].values * (joint or 1.0), raw[c], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_joint_sum_is_one(self, seed):
        g, p = random_instance(seed=seed)
        for method in METHODS:
            n0, n1 = explain_pair(MoleculeExplanations(g, p), method)
            if n0.normalized:
                joint = n0.values.sum() + n1.values.sum()
                assert joint == pytest.approx(1.0, abs=1e-12)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("method", METHODS)
    def test_heatmaps_permute_with_nodes(self, method):
        rng = np.random.default_rng(55)
        for _ in range(5):
            g, p = positive_instance(seed=int(rng.integers(0, 10_000)))
            perm = rng.permutation(g.n_nodes)
            pg = AttributedGraph(
                node_features=g.node_features[perm],
                adjacency=g.adjacency[np.ix_(perm, perm)],
                node_elements=tuple(g.node_elements[i] for i in perm),
            )
            pair = explain_pair(MoleculeExplanations(g, p), method)
            pair_perm = explain_pair(MoleculeExplanations(pg, p), method)
            for h, hp in zip(pair, pair_perm):
                assert np.allclose(hp.values, h.values[perm], atol=1e-12)


class TestRecords:
    def test_record_fields(self):
        h = Heatmap("grad_cam", 1, np.array([0.25, 0.75]), normalized=True, layer=3)
        rec = h.to_record("mol-1", "CC")
        assert rec == {
            "molecule_id": "mol-1",
            "smiles": "CC",
            "method": "grad_cam",
            "class": 1,
            "layer": 3,
            "values": [0.25, 0.75],
            "normalized": True,
        }

    def test_unknown_method_rejected(self):
        g, p = random_instance(seed=1)
        t = forward(g, p)
        with pytest.raises(ValueError):
            MoleculeExplanations(g, p, t).heatmap("mystery", 0)
