import base64
import importlib.util
import sys
from pathlib import Path

import numpy as np

from gcnx.graphs import AttributedGraph, ElementLabel
from gcnx.model import ModelParams, init_params


def random_graph(rng, n_nodes, d_in, edge_prob=0.4, positive_features=False):
    a = (rng.random((n_nodes, n_nodes)) < edge_prob).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    features = rng.random((n_nodes, d_in)) if positive_features else rng.normal(
        size=(n_nodes, d_in)
    )
    elements = tuple(
        ElementLabel(str(rng.choice(["C", "N", "O"]))) for _ in range(n_nodes)
    )
    return AttributedGraph(node_features=features, adjacency=a, node_elements=elements)


def random_instance(
    seed,
    n_nodes=None,
    d_in=None,
    widths=None,
    n_classes=2,
    min_margin=0.0,
    positive_features=False,
):
    """Random (graph, params) pair; when min_margin > 0, resample until every
    preactivation is at least that far from the ReLU kink."""
    from gcnx.model import forward

    rng = np.random.default_rng(seed)
    for attempt in range(200):
        n = n_nodes if n_nodes is not None else int(rng.integers(3, 13))
        d = d_in if d_in is not None else int(rng.integers(4, 9))
        w = widths if widths is not None else tuple(int(x) for x in rng.integers(3, 9, size=3))
        graph = random_graph(rng, n, d, positive_features=positive_features)
        params = init_params(d, w, n_classes, seed=int(rng.integers(0, 2**31)))
        if min_margin <= 0.0:
            return graph, params
        trace = forward(graph, params)
        margin = min(
            np.abs(prop @ w).min()
            for prop, w in zip(trace.propagated, params.layer_weights)
        )
        if margin > min_margin:
            return graph, params
    raise AssertionError("could not build instance clear of ReLU kinks")


def positive_instance(seed, n_nodes=None, d_in=None, widths=None, n_classes=2):
    """Instance with strictly positive activations at every layer: positive
    features and convolution weights, mixed-sign classifier with at least one
    positive entry per class column."""
    rng = np.random.default_rng(seed)
    n = n_nodes if n_nodes is not None else int(rng.integers(2, 10))
    d = d_in if d_in is not None else int(rng.integers(3, 7))
    w = widths if widths is not None else tuple(int(x) for x in rng.integers(3, 7, size=2))
    features = rng.uniform(0.1, 1.0, size=(n, d))
    a = (rng.random((n, n)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    graph = AttributedGraph(
        node_features=features,
        adjacency=a,
        node_elements=tuple(ElementLabel("C") for _ in range(n)),
    )
    dims = (d,) + w
    layer_weights = [
        rng.uniform(0.05, 1.0, size=(dims[i], dims[i + 1])) for i in range(len(w))
    ]
    classifier = rng.normal(size=(dims[-1], n_classes))
    for c in range(n_classes):
        if np.all(classifier[:, c] <= 0.0):
            classifier[0, c] = abs(classifier[0, c]) + 0.1
    params = ModelParams(layer_weights=layer_weights, classifier_weights=classifier)
    return graph, params


def single_node_graph(features, element="C"):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return AttributedGraph(
        node_features=features,
        adjacency=np.zeros((1, 1)),
        node_elements=(ElementLabel(element),),
    )


def manual_params(layer_weights, classifier_weights):
    return ModelParams(
        layer_weights=[np.asarray(w, dtype=float) for w in layer_weights],
        classifier_weights=np.asarray(classifier_weights, dtype=float),
    )


def drop_last_value(encoded: str) -> str:
    """A format-2 weight payload with its last float64 removed."""
    return base64.b64encode(base64.b64decode(encoded)[:-8]).decode("ascii")


def bench_module(name):
    """Import ``bench/<name>.py`` read only: no bytecode is written into bench/."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
