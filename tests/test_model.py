import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drop_last_value, manual_params, random_instance, single_node_graph
from gcnx.datasets import split, synth_motif_set
from gcnx.graphs import AttributedGraph, ElementLabel
import gcnx.model
from gcnx.model import (
    ADAM,
    ADAM_BLOCK,
    AdamOptimizer,
    ConfigurationError,
    ModelParams,
    StaleTraceError,
    TrainConfig,
    TrainingError,
    checkpoint_from_json,
    class_score_gradients,
    checkpoint_to_json,
    cross_entropy,
    evaluate,
    final_layer_score_gradients,
    forward,
    init_params,
    loss_gradients,
    occlude,
    score_gradients,
    train,
    _backprop,
    _views,
)
from gcnx.smiles import D_IN

from _oracles import (
    ReferenceAdam,
    central_difference,
    loop_pr_auc,
    loop_roc_auc,
    max_relative_error,
    pairwise_roc_auc,
    reference_train,
)

# A format-1 checkpoint of init_params(D_IN, (2,), seed=13) and
# TrainConfig(epochs=3, layer_sizes=(2,), seed=13), with weights as lists of
# JSON numbers and the batch_size field TrainConfig once had, whitespace
# compacted
LEGACY_CHECKPOINT = """{"classifier_shape": [2, 2], "classifier_weights": [0.6048682390839666,
0.5980351529601331, 0.12631382045777229, 1.0495855827103573], "featurization":
{"charge_max": 2, "charge_min": -2, "element_vocab": ["B", "C", "N", "O", "P", "S", "F",
"Cl", "Br", "I", "other"], "max_degree": 5}, "format_version": 1, "layer_shapes": [[23,
2]], "layer_sizes": [2], "layer_weights": [[0.357427179035673, 0.3481239463644582,
0.30473945003512326, -0.2337338763255784, -0.41425823662475686, 0.43744533988252743,
0.11149263201353132, -0.4873203469472713, 0.4021152692147436, 0.4750084559440122,
-0.20938571043715953, 0.3073238814375331, -0.4091549832521891, -0.060472956422132906,
0.31128485499236125, -0.08942270617376169, 0.01739109027676211, -0.37522275092915025,
0.307662299228079, -0.0020895045660225264, -0.24663501206808816, 0.27109596043769335,
0.46954591152854563, 0.03756854343000271, 0.23235881512334255, 0.482804901192335,
-0.4603791512177982, 0.09697789769486609, 0.45785399592060294, -0.37493205492362536,
-0.2713040191217555, 0.04921356944451816, 0.21783538685948345, 0.051686600166668706,
0.04673802365532598, -0.43940041489563564, 0.2343962904759982, -0.17567592493622675,
-0.41743040807300724, 0.4492053783169283, 0.15644530505479248, -0.04332367429682954,
0.22795095267424792, -0.021663257007577097, -0.36769649790100695, 0.10246694521955513]],
"n_classes": 2, "seed": 13, "train_config": {"adam_beta1": 0.9, "adam_beta2": 0.999,
"adam_eps": 1e-08, "batch_size": 1, "class_weighting": true, "epochs": 3, "layer_sizes":
[2], "learning_rate": 0.001, "seed": 13}}"""


class TestForward:
    def test_zero_features_uniform_softmax(self):
        g = single_node_graph(np.zeros(4))
        p = init_params(4, (3, 3), seed=1)
        t = forward(g, p)
        assert np.all(t.activations[-1] == 0.0)
        assert np.all(t.gap == 0.0)
        assert np.all(t.scores == 0.0)
        assert np.allclose(t.probabilities, 0.5)

    def test_identity_micro_model(self):
        x = np.array([[0.5, -1.0, 2.0]])
        g = single_node_graph(x)
        p = manual_params([np.eye(3)], np.zeros((3, 2)))
        t = forward(g, p)
        assert np.array_equal(t.activations[1], np.maximum(x, 0.0))

    def test_symmetric_nodes_identical_activations(self):
        g = AttributedGraph(
            node_features=np.array([[1.0, 2.0], [1.0, 2.0]]),
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            node_elements=(ElementLabel("C"), ElementLabel("C")),
        )
        p = init_params(2, (4, 4), seed=3)
        t = forward(g, p)
        for act in t.activations:
            assert np.array_equal(act[0], act[1])

    def test_shape_mismatch(self):
        g = single_node_graph(np.zeros(4))
        p = init_params(5, (3,), seed=0)
        with pytest.raises(ConfigurationError):
            forward(g, p)

    def test_gap_consistency(self):
        g, p = random_instance(seed=11)
        t = forward(g, p)
        assert np.array_equal(t.gap, t.activations[-1].mean(axis=0))

    def test_softmax_sums_to_one(self):
        g, p = random_instance(seed=12)
        t = forward(g, p)
        assert abs(t.probabilities.sum() - 1.0) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g, p = random_instance(seed=int(rng.integers(0, 10_000)))
            perm = rng.permutation(g.n_nodes)
            pg = AttributedGraph(
                node_features=g.node_features[perm],
                adjacency=g.adjacency[np.ix_(perm, perm)],
                node_elements=tuple(g.node_elements[i] for i in perm),
            )
            t = forward(g, p)
            tp = forward(pg, p)
            for act, actp in zip(t.activations, tp.activations):
                assert np.allclose(actp, act[perm], atol=1e-12)
            assert np.allclose(tp.gap, t.gap, atol=1e-12)
            assert np.allclose(tp.scores, t.scores, atol=1e-12)


class TestBackward:
    def test_zero_weights_zero_input_gradient(self):
        g = single_node_graph([1.0, 2.0, 3.0])
        p = manual_params([np.zeros((3, 2))], np.ones((2, 2)))
        t = forward(g, p)
        grads = score_gradients(t, g, p, 0)
        assert np.all(grads.activations[0] == 0.0)

    def test_single_node_linear_regime(self):
        # all preactivations positive: dy^c/dX = (W w^c)^T
        w = np.array([[0.7, 0.2], [0.1, 0.9]])
        wc = np.array([[0.5, -0.3], [0.4, 0.8]])
        g = single_node_graph([2.0, 3.0])
        p = manual_params([w], wc)
        t = forward(g, p)
        assert np.all(t.propagated[0] @ w > 0.0)
        grads = score_gradients(t, g, p, 0)
        assert np.allclose(grads.activations[0][0], w @ wc[:, 0], atol=1e-14)

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_score_gradient_matches_finite_differences(self, seed):
        g, p = random_instance(seed=seed, min_margin=1e-4)
        t = forward(g, p)
        for c in range(p.n_classes):
            grads = score_gradients(t, g, p, c)

            def f_x(x):
                return forward(g.with_features(x), p).scores[c]

            fd_x = central_difference(f_x, g.node_features.copy())
            assert max_relative_error(grads.activations[0], fd_x) < 1e-5

            for l in range(p.n_layers):

                def f_w(w, l=l):
                    q = p.copy()
                    q.layer_weights[l] = w
                    return forward(g, q).scores[c]

                fd_w = central_difference(f_w, p.layer_weights[l].copy())
                assert max_relative_error(grads.layer_weights[l], fd_w) < 1e-5

            def f_wc(wc):
                q = p.copy()
                q.classifier_weights = wc
                return forward(g, q).scores[c]

            fd_wc = central_difference(f_wc, p.classifier_weights.copy())
            assert max_relative_error(grads.classifier_weights, fd_wc) < 1e-5

    @pytest.mark.parametrize("seed", [404, 505])
    def test_loss_gradient_matches_finite_differences(self, seed):
        g, p = random_instance(seed=seed, min_margin=1e-4)
        t = forward(g, p)
        label, weight = 1, 1.7

        loss, grads = loss_gradients(t, g, p, label, weight)
        assert loss == pytest.approx(cross_entropy(t, label, weight))

        def f_x(x):
            tt = forward(g.with_features(x), p)
            return cross_entropy(tt, label, weight)

        fd_x = central_difference(f_x, g.node_features.copy())
        assert max_relative_error(grads.activations[0], fd_x) < 1e-5

        for l in range(p.n_layers):

            def f_w(w, l=l):
                q = p.copy()
                q.layer_weights[l] = w
                return cross_entropy(forward(g, q), label, weight)

            fd_w = central_difference(f_w, p.layer_weights[l].copy())
            assert max_relative_error(grads.layer_weights[l], fd_w) < 1e-5

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_class_gradients_equal_per_class(self, seed):
        widths = (16, 32, 64) if seed % 2 else None
        g, p = random_instance(seed=seed, widths=widths, n_classes=2 + seed % 3)
        t = forward(g, p)
        stacked = class_score_gradients(t, g, p)
        assert len(stacked) == p.n_layers + 1
        for c in range(p.n_classes):
            single = score_gradients(t, g, p, c).activations
            for l in range(p.n_layers + 1):
                assert stacked[l].shape == (p.n_classes,) + single[l].shape
                assert np.max(np.abs(stacked[l][c] - single[l])) <= 1e-12

    def test_stacked_pass_computes_no_weight_gradients(self):
        g, p = random_instance(seed=12, widths=(4, 5, 6), n_classes=3)
        t = forward(g, p)
        grads = _backprop(t, g, p, np.eye(3))
        assert grads.layer_weights == [] and grads.classifier_weights is None
        assert len(grads.activations) == p.n_layers + 1
        for c in range(3):
            single = score_gradients(t, g, p, c).activations
            assert all(np.array_equal(a[c], b) for a, b in zip(grads.activations, single))

    @pytest.mark.parametrize("widths", [(4, 5, 6), (16, 32, 64), (128, 256, 512)])
    def test_final_layer_gradients_equal_backward_pass(self, widths):
        g, p = random_instance(seed=9, widths=widths, n_classes=3)
        stacked = class_score_gradients(forward(g, p), g, p)
        shortcut = final_layer_score_gradients(p, g.n_nodes)
        assert shortcut.shape == stacked[-1].shape == (3, g.n_nodes, widths[-1])
        assert np.array_equal(shortcut, stacked[-1])

    @pytest.mark.parametrize("widths", [(16, 32, 64), (128, 256, 512)])
    def test_loss_gradients_written_into_flat_views_equal_allocated(self, widths):
        g, p = random_instance(seed=11, widths=widths, n_classes=3)
        t = forward(g, p)
        loss, allocated = loss_gradients(t, g, p, 2, 1.7)
        buffer = np.full(p.flat.size, np.nan)
        views = _views(buffer, p.shapes)
        written_loss, written = loss_gradients(t, g, p, 2, 1.7, out=views)
        assert written_loss == loss
        assert written.activations == []
        expected = allocated.layer_weights + [allocated.classifier_weights]
        for got, view, ref in zip(
            written.layer_weights + [written.classifier_weights], views, expected, strict=True
        ):
            assert got is view
            assert got.tobytes() == ref.tobytes()
        assert buffer.tobytes() == b"".join(a.tobytes() for a in expected)

    def test_stale_trace_rejected(self):
        g, p = random_instance(seed=7, n_nodes=5)
        g2, _ = random_instance(seed=8, n_nodes=6, d_in=g.feature_dim)
        t = forward(g, p)
        with pytest.raises(StaleTraceError):
            score_gradients(t, g2, p, 0)


class TestOcclusion:
    def test_all_false_is_identity(self):
        g, _ = random_instance(seed=31, n_nodes=4)
        out = occlude(g, [False] * 4)
        assert np.array_equal(out.node_features, g.node_features)
        assert np.array_equal(out.adjacency, g.adjacency)

    def test_all_true_gives_uniform_softmax(self):
        g, p = random_instance(seed=32, n_nodes=5)
        out = occlude(g, [True] * 5)
        assert np.all(out.node_features == 0.0)
        t = forward(out, p)
        assert np.allclose(t.probabilities, 1.0 / p.n_classes)

    def test_single_row_zeroed(self):
        from gcnx.smiles import parse_smiles

        g = parse_smiles("CCO").graph
        out = occlude(g, [False, True, False])
        assert np.all(out.node_features[1] == 0.0)
        assert np.array_equal(out.node_features[0], g.node_features[0])
        assert np.array_equal(out.adjacency, g.adjacency)


def assert_stacked_rows_match_lone_forwards(g, p, masks):
    """One forward over the occluded feature matrices as a leading axis:
    each row's probabilities are within 1e-15 of the lone forward of that
    occlusion, with the same argmax."""
    occluded = [occlude(g, m) for m in masks]
    stacked = forward(g, p, np.stack([o.node_features for o in occluded]))
    assert stacked.probabilities.shape == (len(masks), p.n_classes)
    assert stacked.gap.shape == (len(masks), p.layer_sizes[-1])
    for row, o in zip(stacked.probabilities, occluded):
        lone = forward(o, p).probabilities
        assert np.max(np.abs(row - lone)) <= 1e-15
        assert np.argmax(row) == np.argmax(lone)


class TestStackedForward:
    @pytest.mark.parametrize("widths", [(16, 32, 64), (128, 256, 512)])
    @pytest.mark.parametrize("n_masks", [1, 2, 5])
    def test_rows_match_lone_occlusion_forwards(self, widths, n_masks):
        g, p = random_instance(seed=60 + n_masks, widths=widths, positive_features=True)
        rng = np.random.default_rng(n_masks)
        masks = [rng.random(g.n_nodes) < 0.4 for _ in range(n_masks)]
        masks[0][0] = True  # a mask that occludes something
        assert_stacked_rows_match_lone_forwards(g, p, masks)

    @pytest.mark.parametrize("masks", [[[True]], [[True], [False]]])
    def test_one_atom_molecule(self, masks):
        g = single_node_graph([1.0, 0.5, 2.0])
        assert_stacked_rows_match_lone_forwards(g, init_params(3, (16, 32, 64), seed=6), masks)

    @pytest.mark.parametrize("widths", [(16, 32, 64), (128, 256, 512)])
    def test_one_molecule_runs_the_unstacked_products(self, widths):
        """A 2-D input, given or the graph's own, takes the products of a
        forward written for one molecule, bit for bit."""
        g, p = random_instance(seed=64, widths=widths)
        current = g.node_features
        for w in p.layer_weights:
            current = np.maximum((g.norm_propagation @ current) @ w, 0.0)
        scores = current.mean(axis=0) @ p.classifier_weights
        exp = np.exp(scores - scores.max())
        for trace in (forward(g, p), forward(g, p, g.node_features.copy())):
            assert np.array_equal(trace.activations[-1], current)
            assert np.array_equal(trace.probabilities, exp / exp.sum())

    def test_feature_width_checked(self):
        g, p = random_instance(seed=65, d_in=4)
        with pytest.raises(ConfigurationError):
            forward(g, p, np.zeros((2, g.n_nodes, 5)))


class TestParams:
    def test_weights_are_views_into_flat(self):
        p = init_params(5, (3, 4), n_classes=3, seed=2)
        assert p.flat.shape == (5 * 3 + 3 * 4 + 4 * 3,)
        for w in p.layer_weights + [p.classifier_weights]:
            assert np.shares_memory(w, p.flat)
        p.flat[-1] = 7.0
        assert p.classifier_weights[-1, -1] == 7.0

    def test_copy_is_independent(self):
        p = init_params(5, (3, 4), seed=2)
        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        assert q.flat.tobytes() == p.flat.tobytes()
        q.flat += 1.0
        assert np.array_equal(p.flat + 1.0, q.flat)

    def test_construction_does_not_alias_inputs(self):
        w, wc = np.ones((2, 3)), np.ones((3, 2))
        p = manual_params([w], wc)
        p.flat[:] = 0.0
        assert np.all(w == 1.0) and np.all(wc == 1.0)

    def test_unchained_shapes_rejected(self):
        with pytest.raises(ConfigurationError, match="chain"):
            manual_params([np.ones((2, 3)), np.ones((4, 5))], np.ones((5, 2)))
        with pytest.raises(ConfigurationError, match="chain"):
            manual_params([np.ones((2, 3))], np.ones((4, 2)))

    def test_layer_sizes_must_match_shapes(self):
        # read from the weight shapes, so they cannot disagree
        p = ModelParams([np.ones((2, 3)), np.ones((3, 4))], np.ones((4, 2)))
        assert p.layer_sizes == (3, 4)
        assert p.copy().layer_sizes == (3, 4)
        with pytest.raises(TypeError):
            ModelParams([np.ones((2, 3))], np.ones((3, 2)), layer_sizes=(3,))


def assert_adam_equals_reference(shapes, rng):
    """25 steps, every fifth with a zero gradient, of AdamOptimizer over the
    packed tensors and of ReferenceAdam over each one: theta, m and v must
    agree byte for byte after every step."""
    lr = float(rng.uniform(1e-4, 0.1))
    tensors = [rng.normal(size=s) for s in shapes]
    flat = np.concatenate([t.reshape(-1) for t in tensors])
    flat_opt = AdamOptimizer(flat.shape, lr)
    # the textbook constants, which AdamOptimizer fixes
    ref_opt = ReferenceAdam(shapes, lr, 0.9, 0.999, 1e-8)
    for step in range(25):
        scale = 0.0 if step % 5 == 3 else float(rng.choice([1e-6, 1.0, 1e3]))
        grads = [scale * rng.normal(size=s) for s in shapes]
        flat_opt.step(flat, np.concatenate([g.reshape(-1) for g in grads]))
        ref_opt.step(tensors, grads)
        for packed, parts in ((flat, tensors), (flat_opt.m, ref_opt.m), (flat_opt.v, ref_opt.v)):
            assert packed.tobytes() == b"".join(part.tobytes() for part in parts)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        theta = np.array([[1.0, -2.0], [0.5, 3.0]])
        opt = AdamOptimizer(theta.shape, 0.01)
        before = theta.copy()
        opt.step(theta, np.zeros_like(theta))
        assert np.array_equal(theta, before)

    def test_descends_quadratic(self):
        theta = np.array([5.0])
        opt = AdamOptimizer((1,), 0.1)
        for _ in range(500):
            opt.step(theta, 2.0 * theta)
        assert abs(theta[0]) < 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_step_bit_equal_to_per_tensor_reference(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(int(d) for d in rng.integers(1, 9, size=2)) for _ in range(4)]
        assert_adam_equals_reference(shapes, rng)

    @pytest.mark.parametrize(
        "size", [1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 5 * ADAM_BLOCK // 2]
    )
    def test_blocked_step_bit_equal_to_reference(self, size):
        # three tensors, so block edges fall inside tensors and between them
        cuts = sorted({size // 3, size - size // 4})
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size]) if b > a]
        assert_adam_equals_reference([(n,) for n in sizes], np.random.default_rng(size))

    def test_non_contiguous_theta_rejected(self):
        theta = np.zeros((4, 4)).T
        opt = AdamOptimizer(theta.shape, 0.01)
        with pytest.raises(ConfigurationError, match="C-contiguous"):
            opt.step(theta, np.ones((4, 4)))

    def test_mismatched_gradient_shape_rejected(self):
        opt = AdamOptimizer((6,), 0.01)
        with pytest.raises(ConfigurationError, match="shapes"):
            opt.step(np.zeros(6), np.ones((2, 3)))

    def test_step_allocates_less_than_one_vector(self):
        rng = np.random.default_rng(0)
        theta, grad = rng.normal(size=100_000), rng.normal(size=100_000)
        opt = AdamOptimizer(theta.shape, 0.001)
        opt.step(theta, grad)
        tracemalloc.start()
        try:
            opt.step(theta, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes


def separable_toy_set():
    g0 = single_node_graph([1.0, 0.0])
    g1 = single_node_graph([0.0, 1.0])
    return [(g0, 0), (g1, 1)]


class TestTraining:
    def test_separable_toy_converges(self):
        cfg = TrainConfig(epochs=200, layer_sizes=(8,), seed=5, learning_rate=0.01)
        result = train(separable_toy_set(), cfg)
        assert result.history[-1]["loss"] < 1e-2
        assert result.history[-1]["train_accuracy"] == 1.0

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(epochs=20, layer_sizes=(4, 4), seed=9)
        data = separable_toy_set()
        r1 = train(data, cfg)
        r2 = train(data, cfg)
        for w1, w2 in zip(r1.params.layer_weights, r2.params.layer_weights):
            assert np.array_equal(w1, w2)
        assert np.array_equal(
            r1.params.classifier_weights, r2.params.classifier_weights
        )
        assert r1.history == r2.history

    @pytest.mark.parametrize(
        "widths, with_validation, best_epoch",
        [
            # at seed 3 validation accuracy peaks at epoch 2 of 4, so returning
            # the live vector instead of the epoch-2 copy changes the weights
            ((16, 32, 64), True, 2),
            ((16, 32, 64), False, None),
            # 42,944 parameters: the Adam step crosses two block boundaries
            ((64, 128, 256), True, 3),
        ],
    )
    def test_bit_identical_to_per_tensor_loop(self, widths, with_validation, best_epoch):
        train_set, val_set, _ = split(synth_motif_set(40, "NO", seed=3), 3)
        cfg = TrainConfig(epochs=4, layer_sizes=widths, seed=3, learning_rate=0.01)
        validation = val_set.graph_pairs() if with_validation else None
        result = train(train_set.graph_pairs(), cfg, validation=validation)
        weights, history, reference_best = reference_train(train_set.graph_pairs(), cfg, validation)
        assert result.best_epoch == reference_best == best_epoch
        assert result.history == history
        trained = result.params.layer_weights + [result.params.classifier_weights]
        for w, ref in zip(trained, weights, strict=True):
            assert w.tobytes() == ref.tobytes()

    def test_epoch_calls_each_step_function(self, monkeypatch):
        train_set, val_set, _ = split(synth_motif_set(30, "NO", seed=4), 4)
        calls = {"forward": 0, "loss_gradients": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(gcnx.model, "forward", counted("forward", forward))
        monkeypatch.setattr(gcnx.model, "loss_gradients", counted("loss_gradients", loss_gradients))
        monkeypatch.setattr(AdamOptimizer, "step", counted("step", AdamOptimizer.step))
        cfg = TrainConfig(epochs=1, layer_sizes=(8, 8), seed=4)
        train(train_set.graph_pairs(), cfg, validation=val_set.graph_pairs())
        n_train, n_val = len(train_set.graph_pairs()), len(val_set.graph_pairs())
        assert n_train > 0 and n_val > 0
        assert calls == {
            "forward": 2 * n_train + n_val,
            "loss_gradients": n_train,
            "step": n_train,
        }

    @pytest.mark.parametrize("field", ["learning_rate", "adam_eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rates_rejected(self, field, value):
        # the learning rate is a setting; ADAM's eps is fixed, and a
        # recorded value other than the fixed one is refused
        message = {"learning_rate": "finite", "adam_eps": "adam_eps must be 1e-08"}[field]
        with pytest.raises(ConfigurationError, match=message):
            TrainConfig.from_dict({**TrainConfig().to_dict(), field: value})

    def test_diverging_loss_raises(self):
        cfg = TrainConfig(epochs=5, layer_sizes=(8,), seed=5, learning_rate=1e308)
        with pytest.raises(TrainingError, match=r"epoch \d+: mean training loss is nan"):
            train(separable_toy_set(), cfg)

    def test_single_class_rejected(self):
        g = single_node_graph([1.0, 0.0])
        with pytest.raises(TrainingError):
            train([(g, 1), (g, 1)], TrainConfig(epochs=1, layer_sizes=(2,)))

    def test_best_validation_checkpoint_returned(self):
        cfg = TrainConfig(epochs=60, layer_sizes=(8,), seed=2, learning_rate=0.01)
        data = separable_toy_set()
        result = train(data, cfg, validation=data)
        assert result.best_epoch is not None
        from gcnx.model import _accuracy

        assert _accuracy(result.params, data) == 1.0

    def test_validation_ties_go_to_latest_epoch(self):
        # all-zero features give a uniform softmax, so argmax is class 0 at
        # every epoch and validation accuracy never changes
        cfg = TrainConfig(epochs=5, layer_sizes=(4,), seed=2, learning_rate=0.01)
        validation = [(single_node_graph([0.0, 0.0]), 0)]
        result = train(separable_toy_set(), cfg, validation=validation)
        assert {r["val_accuracy"] for r in result.history} == {1.0}
        assert result.best_epoch == cfg.epochs - 1


class TestEvaluate:
    def test_perfect_scorer(self):
        # scores come from a model; fabricate one by training to separation
        cfg = TrainConfig(epochs=200, layer_sizes=(8,), seed=5, learning_rate=0.01)
        result = train(separable_toy_set(), cfg)
        metrics = evaluate(result.params, separable_toy_set())
        assert metrics["accuracy"] == 1.0
        assert metrics["roc_auc"] == 1.0

    def test_constant_scorer_auc_half(self):
        g0 = single_node_graph([0.0, 0.0])
        g1 = single_node_graph([0.0, 0.0])
        p = init_params(2, (3,), seed=1)
        metrics = evaluate(p, [(g0, 0), (g1, 1), (g0, 1), (g1, 0)])
        assert metrics["roc_auc"] == 0.5

    def test_hand_case_auc(self):
        # scores (.9,.8,.2,.1), labels (1,0,1,0): 3 of 4 pairs ordered -> 0.75
        from gcnx.model import _pr_auc, _roc_auc

        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 0, 1, 0])
        assert _roc_auc(scores, labels) == pytest.approx(0.75)
        assert _roc_auc(scores, labels) == pytest.approx(
            pairwise_roc_auc(scores, labels)
        )
        assert _pr_auc(scores, labels) == pytest.approx(
            (1 / 2) * (1 / 1) + (1 / 2) * (2 / 3)
        )

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_auc_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(30), 1)  # coarse values force ties
        labels = rng.integers(0, 2, size=30)
        if len(set(labels.tolist())) < 2:
            labels[0] = 1 - labels[0]
        from gcnx.model import _roc_auc

        assert _roc_auc(scores, labels) == pytest.approx(
            pairwise_roc_auc(scores, labels), abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 0.1, 0.5, 1 / 3, 0.9, 1.0, 5e-324]),
                    st.floats(0.0, 1.0),
                ),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=80,
        ).filter(lambda rows: len({y for _, y in rows}) == 2)
    )
    def test_auc_helpers_equal_loops_exactly(self, rows):
        from gcnx.model import _pr_auc, _roc_auc

        scores = np.array([s for s, _ in rows])
        labels = np.array([y for _, y in rows])
        assert _roc_auc(scores, labels) == loop_roc_auc(scores, labels)
        assert _pr_auc(scores, labels) == loop_pr_auc(scores, labels)

    def test_one_class_reports_absent_auc(self):
        g = single_node_graph([1.0, 0.0])
        p = init_params(2, (3,), seed=1)
        metrics = evaluate(p, [(g, 1), (g, 1)])
        assert metrics["roc_auc"] is None
        assert metrics["pr_auc"] is None


class TestCheckpoint:
    def test_round_trip_byte_identical(self):
        p = init_params(D_IN, (4, 5), seed=13)
        cfg = TrainConfig(epochs=3, layer_sizes=(4, 5), seed=13)
        text = checkpoint_to_json(p, cfg)
        params2, cfg2, seed2 = checkpoint_from_json(text)
        assert seed2 == cfg2.seed == 13
        assert checkpoint_to_json(params2, cfg2) == text

    def test_loaded_params_equal(self):
        p = init_params(D_IN, (4, 5), seed=13)
        cfg = TrainConfig(epochs=3, layer_sizes=(4, 5), seed=13)
        params2, _, _ = checkpoint_from_json(checkpoint_to_json(p, cfg))
        for w1, w2 in zip(p.layer_weights, params2.layer_weights):
            assert np.array_equal(w1, w2)
        assert np.array_equal(p.classifier_weights, params2.classifier_weights)

    def test_legacy_batch_size_checkpoint_loads_bit_identical(self):
        params, cfg, seed = checkpoint_from_json(LEGACY_CHECKPOINT)
        expected = init_params(D_IN, (2,), seed=13)
        for w1, w2 in zip(expected.layer_weights, params.layer_weights):
            assert w1.tobytes() == w2.tobytes()
        assert expected.classifier_weights.tobytes() == params.classifier_weights.tobytes()
        legacy = json.loads(LEGACY_CHECKPOINT)
        del legacy["train_config"]["batch_size"]
        assert seed == 13
        written = json.loads(checkpoint_to_json(params, cfg))
        assert "batch_size" not in written["train_config"]
        # format 2 changes the version and the weight encoding, nothing else
        weight_fields = {"format_version", "layer_weights", "classifier_weights"}
        assert {k: v for k, v in written.items() if k not in weight_fields} == {
            k: v for k, v in legacy.items() if k not in weight_fields
        }
        reloaded, _, _ = checkpoint_from_json(json.dumps(written))
        for w, flat, shape in zip(
            reloaded.layer_weights, legacy["layer_weights"], legacy["layer_shapes"]
        ):
            assert w.tobytes() == np.array(flat).reshape(shape).tobytes()
        assert (
            reloaded.classifier_weights.tobytes()
            == np.array(legacy["classifier_weights"]).reshape(legacy["classifier_shape"]).tobytes()
        )

    def test_written_config_has_no_batch_size(self):
        cfg = TrainConfig(epochs=1, layer_sizes=(2,))
        assert "batch_size" not in cfg.to_dict()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("batch_size", [0, 4])
    def test_other_batch_size_rejected(self, batch_size):
        payload = json.loads(LEGACY_CHECKPOINT)
        payload["train_config"]["batch_size"] = batch_size
        with pytest.raises(ConfigurationError, match="batch_size"):
            checkpoint_from_json(json.dumps(payload))

    def test_unknown_version_rejected(self):
        p = init_params(2, (2,), seed=0)
        cfg = TrainConfig(epochs=1, layer_sizes=(2,))
        payload = json.loads(checkpoint_to_json(p, cfg))
        payload["format_version"] = 99
        with pytest.raises(ConfigurationError):
            checkpoint_from_json(json.dumps(payload))

    def test_signed_zero_and_extreme_weights_round_trip_bit_exact(self):
        w = np.ones((D_IN, 3))
        w[:2] = [[-0.0, 5e-324, -1.5e308], [1.5e308, -5e-324, 0.0]]
        p = manual_params([w], np.array([[1.0, -1e-300], [1e300, 0.0], [2.0, -0.0]]))
        cfg = TrainConfig(epochs=1, layer_sizes=(3,))
        text = checkpoint_to_json(p, cfg)
        params2, cfg2, _ = checkpoint_from_json(text)
        assert params2.flat.tobytes() == p.flat.tobytes()
        assert checkpoint_to_json(params2, cfg2) == text

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_format_2_weight_refused(self, value):
        classifier = np.array([[1.0, 0.5], [-1.0, 0.0], [2.0, value]])
        p = manual_params([np.ones((D_IN, 3))], classifier)
        text = checkpoint_to_json(p, TrainConfig(epochs=1, layer_sizes=(3,)))
        with pytest.raises(ConfigurationError, match="classifier weights holds a value that is not finite"):
            checkpoint_from_json(text)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_format_1_literal_refused(self, literal):
        payload = json.loads(LEGACY_CHECKPOINT)
        payload["layer_weights"][0][7] = "VALUE"
        text = json.dumps(payload).replace('"VALUE"', literal)
        assert f", {literal}," in text
        with pytest.raises(ConfigurationError, match="layer 1 weights holds a value that is not finite"):
            checkpoint_from_json(text)

    def test_weights_stored_as_little_endian_float64(self):
        p = init_params(3, (2,), seed=13)
        payload = json.loads(checkpoint_to_json(p, TrainConfig(epochs=1, layer_sizes=(2,))))
        assert payload["format_version"] == 2
        raw = base64.b64decode(payload["layer_weights"][0])
        assert raw == p.layer_weights[0].astype("<f8").tobytes()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d.update(layer_weights=[drop_last_value(d["layer_weights"][0])]), "holds 45"),
            (lambda d: d.update(layer_weights=[d["layer_weights"][0][:-4]]), "multiple"),
            (lambda d: d.update(classifier_weights="not base64!"), "cannot be decoded"),
            (lambda d: d.update(classifier_weights=[1.0, 2.0, 3.0, 4.0]), "cannot be decoded"),
            (lambda d: d.update(layer_shapes=[[2, D_IN]]), "chain"),
            (lambda d: d.update(layer_sizes=[3]), "layer_sizes"),
            (lambda d: d.update(n_classes=3), "n_classes"),
            (lambda d: d.update(layer_shapes=[[3, 2], [2, 2]]), "2 shapes"),
            (lambda d: d.update(classifier_shape=[2]), "shape must be"),
            (lambda d: d.pop("classifier_shape"), "classifier_shape"),
            (lambda d: d.update(layer_sizes=2), "layer_sizes 2 disagree"),
            # the featurization record intact, the first array one row short
            (
                lambda d: d.update(
                    layer_weights=[base64.b64encode(bytes((D_IN - 1) * 2 * 8)).decode()],
                    layer_shapes=[[D_IN - 1, 2]],
                ),
                f"input width {D_IN - 1} != the featurization width {D_IN}",
            ),
            (lambda d: d["train_config"].update(adam_beta1=0.8), "adam_beta1 must be 0.9 "),
            (lambda d: d["train_config"].update(adam_beta2=0.99), "adam_beta2 must be 0.999 "),
            (lambda d: d["train_config"].update(adam_eps=0.0), "adam_eps must be 1e-08 "),
        ],
    )
    def test_inconsistent_checkpoint_rejected(self, corrupt, message):
        p = init_params(D_IN, (2,), seed=13)
        payload = json.loads(checkpoint_to_json(p, TrainConfig(epochs=1, layer_sizes=(2,))))
        corrupt(payload)
        with pytest.raises(ConfigurationError, match=message):
            checkpoint_from_json(json.dumps(payload))

    def test_v1_payload_with_wrong_length_rejected(self):
        payload = json.loads(LEGACY_CHECKPOINT)
        payload["layer_weights"][0].pop()
        with pytest.raises(ConfigurationError, match="holds 45 values"):
            checkpoint_from_json(json.dumps(payload))

    def test_adam_constants_written_and_absent_ones_accepted(self):
        cfg = TrainConfig(layer_sizes=(2,))
        written = json.loads(checkpoint_to_json(init_params(D_IN, (2,)), cfg))
        assert {k: written["train_config"][k] for k in ADAM} == ADAM
        for key in ADAM:
            del written["train_config"][key]
        assert checkpoint_from_json(json.dumps(written))[1] == cfg
