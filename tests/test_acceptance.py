"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np
import pytest

from conftest import positive_instance, random_instance
from gcnx.cli import main as cli_main
from gcnx.datasets import load_csv, synth_motif_set
from gcnx.explainers import (
    METHODS,
    MoleculeExplanations,
    excitation_backprop_trace,
    explain_pair,
)
from gcnx.graphs import AttributedGraph, ElementLabel
from gcnx.metrics import metric_suite
from gcnx.mining import (
    canonical_key,
    contains_fragment,
    count_dataset_occurrences,
    whole_molecule_fragment,
)
from gcnx.model import (
    checkpoint_from_json,
    cross_entropy,
    forward,
    loss_gradients,
    score_gradients,
)
from gcnx.smiles import parse_smiles, write_smiles

from _oracles import (
    brute_force_contains,
    brute_force_isomorphic,
    central_difference,
    max_relative_error,
)
from _oracles import excitation_backprop_trace as per_seed_eb


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                outcome = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"ACCEPTANCE {number} {title}: {outcome}")
                raise
            print(f"ACCEPTANCE {number} {title}: PASS")

        return wrapper

    return decorate


# --------------------------------------------------------------- criterion 1


@criterion(1, "gradient correctness vs finite differences")
def test_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        seed = int(rng.integers(0, 2**31))
        n_nodes = int(rng.integers(3, 13))
        graph, params = random_instance(
            seed=seed,
            n_nodes=n_nodes,
            d_in=int(rng.integers(3, 7)),
            widths=tuple(int(x) for x in rng.integers(3, 7, size=2)),
            min_margin=1e-4,
        )
        trace = forward(graph, params)
        target = int(rng.integers(0, 2))
        label = int(rng.integers(0, 2))

        grads = score_gradients(trace, graph, params, target)
        _, lgrads = loss_gradients(trace, graph, params, label, 1.3)

        def score_of_x(x):
            return forward(graph.with_features(x), params).scores[target]

        def loss_of_x(x):
            return cross_entropy(forward(graph.with_features(x), params), label, 1.3)

        assert max_relative_error(
            grads.activations[0], central_difference(score_of_x, graph.node_features.copy())
        ) < 1e-5
        assert max_relative_error(
            lgrads.activations[0], central_difference(loss_of_x, graph.node_features.copy())
        ) < 1e-5

        for l in range(params.n_layers):

            def score_of_w(w, l=l):
                q = params.copy()
                q.layer_weights[l] = w
                return forward(graph, q).scores[target]

            def loss_of_w(w, l=l):
                q = params.copy()
                q.layer_weights[l] = w
                return cross_entropy(forward(graph, q), label, 1.3)

            fd = central_difference(score_of_w, params.layer_weights[l].copy())
            assert max_relative_error(grads.layer_weights[l], fd) < 1e-5
            fd = central_difference(loss_of_w, params.layer_weights[l].copy())
            assert max_relative_error(lgrads.layer_weights[l], fd) < 1e-5

        def score_of_wc(wc):
            q = params.copy()
            q.classifier_weights = wc
            return forward(graph, q).scores[target]

        def loss_of_wc(wc):
            q = params.copy()
            q.classifier_weights = wc
            return cross_entropy(forward(graph, q), label, 1.3)

        fd = central_difference(score_of_wc, params.classifier_weights.copy())
        assert max_relative_error(grads.classifier_weights, fd) < 1e-5
        fd = central_difference(loss_of_wc, params.classifier_weights.copy())
        assert max_relative_error(lgrads.classifier_weights, fd) < 1e-5

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s (budget 30s)"


# --------------------------------------------------------------- criterion 2


@criterion(2, "CAM equals final-layer Grad-CAM")
def test_cam_grad_cam_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        graph, params = random_instance(
            seed=int(rng.integers(0, 2**31)), positive_features=True
        )
        source = MoleculeExplanations(graph, params, forward(graph, params))
        cam_pair = explain_pair(source, "cam")
        gc_pair = explain_pair(source, "grad_cam")
        for h_cam, h_gc in zip(cam_pair, gc_pair):
            assert np.array_equal(h_cam.values, h_gc.values)
        # the raw maps are equal too, and N times them is CAM's relu(F w_c)
        final = source.trace.activations[-1]
        for class_id in (0, 1):
            raw_cam = source.heatmap("cam", class_id).values
            assert np.array_equal(raw_cam, source.heatmap("grad_cam", class_id).values)
            column = params.classifier_weights[:, class_id]
            assert np.max(np.abs(raw_cam * graph.n_nodes - np.maximum(final @ column, 0.0))) < 1e-10


# --------------------------------------------------------------- criterion 3


@criterion(3, "excitation backprop conservation")
def test_eb_conservation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        graph, params = positive_instance(seed=int(rng.integers(0, 2**31)))
        trace = forward(graph, params)
        assert min(float(a.min()) for a in trace.activations[1:]) > 0.0
        for class_id in (0, 1):
            eb_trace = per_seed_eb(trace, graph, params, class_id)
            for mass in eb_trace.layer_masses():
                assert abs(mass - 1.0) < 1e-9
        input_mass = excitation_backprop_trace(trace, graph, params).sum(axis=-1)
        input_mass *= graph.feature_dim
        assert all(abs(m - 1.0) < 1e-9 for m in input_mass[0])
        assert all(abs(m - 1.0) < 1e-9 or m == 0.0 for m in input_mass[1])
    # degenerate denominators: zero features transmit zero mass, no error
    graph = AttributedGraph(
        node_features=np.zeros((3, 4)),
        adjacency=np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        ),
        node_elements=tuple(ElementLabel("C") for _ in range(3)),
    )
    _, params = positive_instance(seed=5, d_in=4)
    trace = forward(graph, params)
    eb_trace = per_seed_eb(trace, graph, params, 1)
    assert all(mass == 0.0 for mass in eb_trace.layer_masses())
    assert np.all(excitation_backprop_trace(trace, graph, params) == 0.0)


# --------------------------------------------------------------- criterion 4


@criterion(4, "permutation equivariance of all explainers")
def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        graph, params = positive_instance(seed=int(rng.integers(0, 2**31)))
        perm = rng.permutation(graph.n_nodes)
        permuted = AttributedGraph(
            node_features=graph.node_features[perm],
            adjacency=graph.adjacency[np.ix_(perm, perm)],
            node_elements=tuple(graph.node_elements[i] for i in perm),
        )
        for method in METHODS:
            pair = explain_pair(MoleculeExplanations(graph, params), method)
            pair_perm = explain_pair(MoleculeExplanations(permuted, params), method)
            for h, hp in zip(pair, pair_perm):
                assert np.allclose(hp.values, h.values[perm], atol=1e-12)


# --------------------------------------------------------------- criterion 5


def _random_small_molecule(rng):
    n = int(rng.integers(2, 9))
    symbols = [str(s) for s in rng.choice(["C", "N", "O", "Cl"], size=n)]
    elements = [ElementLabel(s) for s in symbols]
    bonds = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        bonds.append((j, i, int(rng.choice([1, 1, 1, 2]))))
    if n >= 4 and rng.random() < 0.4:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if not any(x == a and y == b for x, y, _ in bonds):
            bonds.append((a, b, 1))
    return parse_smiles(write_smiles(elements, bonds))


def _connected_subset(molecule, rng, size):
    nodes = [int(rng.integers(0, molecule.n_atoms))]
    adjacency = molecule.graph.adjacency
    while len(nodes) < size:
        frontier = sorted(
            {
                j
                for i in nodes
                for j in np.flatnonzero(adjacency[i]).tolist()
                if j not in nodes
            }
        )
        if not frontier:
            break
        nodes.append(int(rng.choice(frontier)))
    return nodes


@criterion(5, "canonical keys and containment match brute force")
def test_subgraph_counting_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    corpus = [
        (f"mol-{i}", _random_small_molecule(rng), int(rng.integers(0, 2)))
        for i in range(500)
    ]

    # canonical grouping: within invariant buckets, key equality must match
    # brute-force isomorphism; keys never collide across different buckets
    buckets = defaultdict(list)
    key_to_bucket = {}
    for mol_id, molecule, _ in corpus:
        fragment = whole_molecule_fragment(molecule)
        key = canonical_key(fragment)
        invariant = (
            fragment.n_nodes,
            tuple(sorted(fragment.node_labels)),
            tuple(sorted(order for _, _, order in fragment.edges)),
        )
        if key in key_to_bucket:
            assert key_to_bucket[key] == invariant
        key_to_bucket[key] = invariant
        buckets[invariant].append((key, fragment))
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                key_a, frag_a = members[a]
                key_b, frag_b = members[b]
                iso = brute_force_isomorphic(
                    (list(frag_a.node_labels), list(frag_a.edges)),
                    (list(frag_b.node_labels), list(frag_b.edges)),
                )
                assert (key_a == key_b) == iso

    # containment counts against exhaustive enumeration of injective maps
    patterns = {}
    for _, molecule, _ in corpus[:80]:
        size = int(rng.integers(2, 4))
        subset = _connected_subset(molecule, rng, size)
        if len(subset) < 2:
            continue
        from gcnx.mining import molecule_fragment

        fragment = molecule_fragment(molecule, subset)
        patterns.setdefault(canonical_key(fragment), fragment)
        if len(patterns) >= 12:
            break
    assert len(patterns) >= 8
    for fragment in patterns.values():
        expected_pos = expected_neg = 0
        for _, molecule, label in corpus:
            host = whole_molecule_fragment(molecule)
            hit = brute_force_contains(
                (list(fragment.node_labels), list(fragment.edges)),
                (list(host.node_labels), list(host.edges)),
            )
            got = contains_fragment(host, fragment)
            assert got == hit
            if hit:
                if label == 1:
                    expected_pos += 1
                else:
                    expected_neg += 1
        assert count_dataset_occurrences(fragment, corpus) == (
            expected_pos,
            expected_neg,
        )

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"counting oracle took {elapsed:.1f}s (budget 60s)"


# ------------------------------------------------------- criteria 6 and 7


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("synth-run")
    started = time.monotonic()
    code = cli_main(
        [
            "train",
            "--data", "synth:NO:400",
            "--epochs", "40",
            "--layers", "16,32,64",
            "--seed", "7",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    code = cli_main(
        [
            "mine",
            "--data", "synth:NO:400",
            "--checkpoint", str(out_dir / "checkpoint.json"),
            "--tau", "0.0",
            "--min-occurrence", "10",
            "--top-k", "10",
            "--seed", "7",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return out_dir, time.monotonic() - started


@criterion(6, "end-to-end functional group recovery")
def test_end_to_end_motif_recovery(synth_run):
    out_dir, elapsed = synth_run
    log = json.loads((out_dir / "train_log.json").read_text())
    assert log["test_metrics"]["accuracy"] >= 0.95

    mining = json.loads((out_dir / "mining.json").read_text())
    assert mining["records"], "mining produced no substructures"
    top = mining["records"][0]
    top_fragment = whole_molecule_fragment(parse_smiles(top["substructure"]))
    motif = whole_molecule_fragment(parse_smiles("NO"))
    assert contains_fragment(top_fragment, motif), (
        f"rank-1 substructure {top['substructure']} does not contain the motif"
    )
    assert top["r_p"] >= 0.9
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.1f}s (budget 300s)"


@criterion(7, "metric directionality on the synthetic run")
def test_metric_directionality(synth_run):
    out_dir, _ = synth_run
    params, _, _ = checkpoint_from_json(
        (out_dir / "checkpoint.json").read_text()
    )
    dataset = synth_motif_set(400, "NO", seed=7)
    data = dataset.graph_pairs()
    reports = {
        report.method: report
        for report in metric_suite(params, data, ["gradient", "grad_cam", "ceb"])
    }
    assert (
        reports["grad_cam"].contrastivity_mean > reports["gradient"].contrastivity_mean
    )
    assert reports["ceb"].sparsity_mean > reports["grad_cam"].sparsity_mean


# --------------------------------------------------------------- criterion 8


@criterion(8, "byte-identical outputs for identical configs")
def test_determinism(tmp_path):
    def run_twice(command_args, filenames):
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / f"{command_args[0]}-{name}"
            code = cli_main(command_args + ["--out-dir", str(out)])
            assert code == 0
            payloads.append([(out / f).read_bytes() for f in filenames])
        assert payloads[0] == payloads[1]
        return tmp_path / f"{command_args[0]}-first"

    train_out = run_twice(
        [
            "train",
            "--data", "synth:NO:60",
            "--epochs", "6",
            "--layers", "8,16",
            "--seed", "21",
        ],
        ["checkpoint.json", "train_log.json"],
    )
    checkpoint = str(train_out / "checkpoint.json")
    explain_out = run_twice(
        [
            "explain",
            "--data", "synth:NO:12",
            "--checkpoint", checkpoint,
            "--seed", "21",
            "--render",
        ],
        ["heatmaps.jsonl"],
    )
    renders = [explain_out / "render", tmp_path / "explain-second" / "render"]
    names = sorted(os.listdir(renders[0]))
    assert len(names) == 2 * 12 and names == sorted(os.listdir(renders[1]))
    for name in names:
        assert (renders[0] / name).read_bytes() == (renders[1] / name).read_bytes(), name
    run_twice(
        [
            "metrics",
            "--data", "synth:NO:12",
            "--checkpoint", checkpoint,
            "--seed", "21",
        ],
        ["metrics.csv", "metrics.json"],
    )
    run_twice(
        [
            "mine",
            "--data", "synth:NO:60",
            "--checkpoint", checkpoint,
            "--min-occurrence", "5",
            "--seed", "21",
        ],
        ["mining.csv", "mining.json"],
    )


# --------------------------------------------------------------- criterion 9


TABLE_I = {
    "BBBP.csv": {"smiles": "smiles", "label": "p_np", "counts": (1560, 479)},
    "bace.csv": {"smiles": "mol", "label": "Class", "counts": (691, 821)},
    "tox21.csv": {"smiles": "smiles", "label": "NR-ER", "counts": (793, 5399)},
}


def _data_dir():
    for candidate in (os.environ.get("GCNX_DATA_DIR"), "data"):
        if candidate and os.path.isdir(candidate):
            return candidate
    return None


@criterion(9, "public CSV class counts match the reference breakdown")
def test_public_dataset_class_counts():
    directory = _data_dir()
    if directory is None:
        pytest.skip("public dataset CSVs not supplied (set GCNX_DATA_DIR)")
    found_any = False
    for filename, spec in TABLE_I.items():
        path = os.path.join(directory, filename)
        if not os.path.exists(path):
            continue
        found_any = True
        dataset = load_csv(path, spec["smiles"], spec["label"])
        assert dataset.label_census == spec["counts"], (
            f"{filename}: census {dataset.label_census} != expected {spec['counts']}"
        )
    if not found_any:
        pytest.skip(f"no recognized dataset files in {directory}")
