"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force and kept separate from the
library code paths it checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from gcnx.graphs import AttributedGraph
from gcnx.model import ADAM, ForwardTrace, ModelParams
from gcnx.smiles import AROMATIC, DOUBLE, TRIPLE, Molecule, _atom_token, _bond_token


# ---------------------------------------------------------------- components
def union_find_components(adjacency: np.ndarray, mask) -> list[list[int]]:
    """Connected components of the masked induced subgraph via union-find."""
    n = adjacency.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j] and mask[i] and mask[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        if mask[i]:
            groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# ---------------------------------------------------- finite-difference grads
def central_difference(f, x: np.ndarray, step_scale: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise.

    Step is scaled per coordinate: h_i = step_scale * max(1, |x_i|).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        h = step_scale * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |n|) over all entries (gradcheck convention)."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.abs(n))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# ------------------------------------------------------- subgraph matching
def brute_force_embeddings(
    pattern_labels: list,
    pattern_edges: list[tuple[int, int, int]],
    host_labels: list,
    host_edges: list[tuple[int, int, int]],
) -> list[tuple[int, ...]]:
    """All injective label-preserving maps sending every pattern edge onto a
    host edge of equal order (subgraph monomorphism, enumerated exhaustively).
    """
    host_bond = {}
    for i, j, order in host_edges:
        host_bond[(i, j)] = order
        host_bond[(j, i)] = order
    k = len(pattern_labels)
    out = []
    for image in permutations(range(len(host_labels)), k):
        if any(pattern_labels[a] != host_labels[image[a]] for a in range(k)):
            continue
        ok = True
        for i, j, order in pattern_edges:
            if host_bond.get((image[i], image[j])) != order:
                ok = False
                break
        if ok:
            out.append(image)
    return out


def brute_force_contains(pattern, host) -> bool:
    """pattern/host given as (labels, edges) pairs."""
    return bool(
        brute_force_embeddings(pattern[0], pattern[1], host[0], host[1])
    )


def brute_force_isomorphic(g1, g2) -> bool:
    """Exact labeled-graph isomorphism for small graphs, by enumeration."""
    labels1, edges1 = g1
    labels2, edges2 = g2
    if len(labels1) != len(labels2) or len(edges1) != len(edges2):
        return False
    if sorted(labels1) != sorted(labels2):
        return False
    # equal node/edge counts: an edge-preserving bijection is an isomorphism
    return brute_force_contains(g1, g2)


# ------------------------------------------------------------ canonical form
# The exhaustive canonical search: every leaf of the individualization-
# refinement tree is scored, with no automorphism pruning.
def _reference_refine(labels, adj, colors):
    while True:
        signatures = [
            (
                colors[i],
                labels[i],
                tuple(sorted((order, colors[j]) for j, order in adj[i])),
            )
            for i in range(len(labels))
        ]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _reference_certificate(fragment, order) -> tuple:
    position = {node: pos for pos, node in enumerate(order)}
    labels = tuple(fragment.node_labels[node] for node in order)
    edges = tuple(
        sorted(
            (min(position[i], position[j]), max(position[i], position[j]), bond)
            for i, j, bond in fragment.edges
        )
    )
    return (labels, edges)


def _reference_search(fragment, adj, colors, best: list):
    n = fragment.n_nodes
    counts = Counter(colors)
    if all(count == 1 for count in counts.values()):
        order = sorted(range(n), key=lambda i: colors[i])
        cert = _reference_certificate(fragment, order)
        if best[0] is None or cert < best[0]:
            best[0] = cert
        return
    target = min(color for color, count in counts.items() if count > 1)
    members = [i for i in range(n) if colors[i] == target]
    for pivot in members:
        branched = [c * 2 for c in colors]
        branched[pivot] -= 1  # individualize
        refined = _reference_refine(fragment.node_labels, adj, branched)
        _reference_search(fragment, adj, refined, best)


def reference_canonical_form(fragment) -> tuple:
    """Smallest (labels, edges) certificate over every leaf of the search."""
    adj = [[] for _ in range(fragment.n_nodes)]
    for i, j, order in fragment.edges:
        adj[i].append((j, order))
        adj[j].append((i, order))
    colors = _reference_refine(fragment.node_labels, adj, [0] * fragment.n_nodes)
    best: list = [None]
    _reference_search(fragment, adj, colors, best)
    return best[0]


# -------------------------------------------------------------------- mining
def reference_mine(
    dataset_entries,
    heatmaps,
    predictions=None,
    tau=0.0,
    min_occurrence=10,
    top_k=10,
    true_positives_only=True,
):
    """Candidate-major mining: every candidate is tested against every
    molecule with molecule_contains and against every activated region with
    contains_fragment, one call per pair, with no host shared or reused."""
    from gcnx.mining import (
        SubstructureRecord,
        activated_subgraphs,
        contains_fragment,
        molecule_contains,
        molecule_fragment,
    )

    qualifying = [
        (mol_id, molecule)
        for mol_id, molecule, label in dataset_entries
        if mol_id in heatmaps
        and not (true_positives_only and not (label == 1 and predictions.get(mol_id) == 1))
    ]
    candidates = {}
    regions = []
    for mol_id, molecule in qualifying:
        values = heatmaps[mol_id]
        regions.append(molecule_fragment(molecule, [i for i, v in enumerate(values) if v > tau]))
        for key, pattern in activated_subgraphs(molecule, values, tau):
            candidates.setdefault(key, pattern)
    records = []
    for key in sorted(candidates):
        pattern = candidates[key]
        n_pos = n_neg = 0
        for _, molecule, label in dataset_entries:
            if molecule_contains(molecule, pattern):
                if label == 1:
                    n_pos += 1
                else:
                    n_neg += 1
        if n_pos + n_neg <= min_occurrence:
            continue
        n_explained = sum(1 for region in regions if contains_fragment(region, pattern))
        records.append(SubstructureRecord(key, pattern, n_explained, n_pos, n_neg))
    records.sort(key=lambda r: (-r.r_e, -r.r_p, -r.pattern.n_nodes, r.key))
    return records[:top_k]


# ------------------------------------------------------------- network tails
def tail_class_score(graph, params, layer, f_matrix, target_class) -> float:
    """Re-run the network from layer-`layer` activations to the class score."""
    v = graph.norm_propagation
    current = f_matrix
    for w in params.layer_weights[layer:]:
        current = np.maximum((v @ current) @ w, 0.0)
    gap = current.mean(axis=0)
    return float((gap @ params.classifier_weights)[target_class])


# -------------------------------------------------- excitation backprop (EB)
def straight_line_eb(x, v, w, wc, target_class):
    """Direct, loop-level composition of the three excitation backward rules
    for a one-convolution network: softmax split, GAP split, perceptron
    split, and local-averaging split. Returns the input heatmap."""
    relu = lambda t: max(t, 0.0)
    n, d_in = x.shape
    width = w.shape[1]

    prop = [[sum(v[nn, m] * x[m, k] for m in range(n)) for k in range(d_in)] for nn in range(n)]
    f1 = [
        [relu(sum(prop[nn][k] * w[k, kp] for k in range(d_in))) for kp in range(width)]
        for nn in range(n)
    ]
    e = [sum(f1[nn][k] for nn in range(n)) / n for k in range(width)]

    denom = sum(e[k] * relu(wc[k, target_class]) for k in range(width))
    p_e = [
        e[k] * relu(wc[k, target_class]) / denom if denom != 0.0 else 0.0
        for k in range(width)
    ]

    p_f1 = [
        [f1[nn][k] / (n * e[k]) * p_e[k] if e[k] != 0.0 else 0.0 for k in range(width)]
        for nn in range(n)
    ]

    p_prop = [[0.0] * d_in for _ in range(n)]
    for nn in range(n):
        for k in range(d_in):
            total = 0.0
            for kp in range(width):
                z = sum(prop[nn][kk] * relu(w[kk, kp]) for kk in range(d_in))
                if z != 0.0:
                    total += prop[nn][k] * relu(w[k, kp]) / z * p_f1[nn][kp]
            p_prop[nn][k] = total

    p_x = [[0.0] * d_in for _ in range(n)]
    for m in range(n):
        for k in range(d_in):
            total = 0.0
            for nn in range(n):
                z = sum(v[nn, mp] * x[mp, k] for mp in range(n))
                if z != 0.0:
                    total += v[nn, m] * x[m, k] / z * p_prop[nn][k]
            p_x[m][k] = total

    return np.array([sum(p_x[m][k] for k in range(d_in)) / d_in for m in range(n)])


# ----------------------------------------- excitation backprop, seed by seed
# The per-seed excitation pass: one call per (class, classifier sign),
# keeping every intermediate mass.
def _safe_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise numerator/denominator with the 0/0 -> 0 convention."""
    out = np.zeros_like(numerator, dtype=np.float64)
    np.divide(numerator, denominator, out=out, where=denominator != 0.0)
    return out


@dataclass
class ExcitationTrace:
    """Per-layer backpropagated probability mass, for conservation checks.

    p_activations[l] is the mass over F^l entries (l = 0..L);
    p_propagated[l] the mass over the locally averaged features V @ F^l.
    """

    p_gap: np.ndarray
    p_activations: list[np.ndarray]
    p_propagated: list[np.ndarray]

    @property
    def heatmap_values(self) -> np.ndarray:
        p_input = self.p_activations[0]
        return p_input.sum(axis=1) / p_input.shape[1]

    def layer_masses(self) -> list[float]:
        masses = [float(self.p_gap.sum())]
        masses.append(float(self.p_activations[-1].sum()))
        for l in range(len(self.p_propagated) - 1, -1, -1):
            masses.append(float(self.p_propagated[l].sum()))
            masses.append(float(self.p_activations[l].sum()))
        return masses


def _perceptron_terms(
    trace: ForwardTrace, params: ModelParams
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Element l is (W+, propagated[l] @ W+) with W+ = max(layer_weights[l], 0):
    the part of the perceptron rule that depends on neither the class nor
    the sign of the classifier."""
    terms = []
    for w, prop in zip(params.layer_weights, trace.propagated):
        w_pos = np.maximum(w, 0.0)
        terms.append((w_pos, prop @ w_pos))
    return terms


def _per_seed_pass(
    trace, graph, params, class_id, negate_classifier, perceptron_terms, round_trip
) -> ExcitationTrace:
    n = trace.n_nodes
    v = graph.norm_propagation
    if perceptron_terms is None:
        perceptron_terms = _perceptron_terms(trace, params)

    classifier_column = params.classifier_weights[:, class_id]
    if negate_classifier:
        classifier_column = -classifier_column
    excitation = trace.gap * np.maximum(classifier_column, 0.0)
    p_gap = _safe_ratio(excitation, np.full_like(excitation, excitation.sum()))

    p_act = trace.activations[-1] * _safe_ratio(p_gap, n * trace.gap)[None, :]
    p_activations = [p_act]
    p_propagated = []

    for l in range(trace.n_layers - 1, -1, -1):
        w_pos, z = perceptron_terms[l]
        prop = trace.propagated[l]
        # perceptron rule: split each output unit's mass over same-node inputs
        back = _safe_ratio(p_activations[-1], z) @ w_pos.T
        p_prop = prop * back
        p_propagated.append(p_prop)
        # averaging rule: split each averaged unit's mass over contributing nodes
        if round_trip:
            back = _safe_ratio(p_prop, prop)
        p_activations.append(trace.activations[l] * (v.T @ back))

    p_activations.reverse()
    p_propagated.reverse()

    return ExcitationTrace(
        p_gap=p_gap, p_activations=p_activations, p_propagated=p_propagated
    )


def excitation_backprop_trace(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    class_id: int,
    negate_classifier: bool = False,
    *,
    perceptron_terms: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> ExcitationTrace:
    """Full excitation backprop with every intermediate mass retained.

    The averaging rule reads the perceptron rule's back-projected ratio
    (P / z) @ W+^T directly; p_propagated, that ratio times V @ F, is
    recorded for the conservation checks only. perceptron_terms, if given,
    must be _perceptron_terms(trace, params); it lets the passes over one
    molecule share those products."""
    return _per_seed_pass(
        trace, graph, params, class_id, negate_classifier, perceptron_terms, False
    )


def round_trip_excitation_backprop_trace(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    class_id: int,
    negate_classifier: bool = False,
) -> ExcitationTrace:
    """The same pass with the two rules composed literally, a round trip
    through V @ F: the perceptron rule forms p_propagated = (V @ F) * back,
    and the averaging rule divides V @ F out again, 0/0 -> 0. In real
    arithmetic the two passes agree; in floats they differ in the last
    bits."""
    return _per_seed_pass(trace, graph, params, class_id, negate_classifier, None, True)


# --------------------------------------------------------------- AUC by pairs
def pairwise_roc_auc(scores, labels) -> float:
    """ROC-AUC as the positive-beats-negative pair statistic, ties at 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ------------------------------------------------------- explanation metrics
def _reference_heatmap(graph, params, trace, method, class_id) -> np.ndarray:
    """One class's raw heatmap from its own backward or excitation passes."""
    from gcnx.model import score_gradients

    n_layers = len(params.layer_weights)
    if method == "null":
        return np.zeros(graph.n_nodes)
    if method == "cam":
        return np.maximum(trace.activations[-1] @ params.classifier_weights[:, class_id], 0.0)
    if method in ("gradient", "grad_cam", "grad_cam_avg"):
        grads = score_gradients(trace, graph, params, class_id)
        if method == "gradient":
            return np.array(
                [np.sqrt(sum(max(x, 0.0) ** 2 for x in row)) for row in grads.activations[0]]
            )
        layers = [n_layers] if method == "grad_cam" else range(1, n_layers + 1)
        maps = [
            np.maximum(trace.activations[l] @ grads.activations[l].mean(axis=0), 0.0)
            for l in layers
        ]
        return sum(maps) / len(maps)
    base = excitation_backprop_trace(trace, graph, params, class_id).heatmap_values
    if method == "eb":
        return base
    opposite = excitation_backprop_trace(
        trace, graph, params, class_id, negate_classifier=True
    ).heatmap_values
    diff = np.maximum(base - opposite, 0.0)
    return diff / diff.sum() if diff.sum() > 0.0 else diff


def reference_metric_suite(params, dataset, methods, threshold) -> list[dict]:
    """MetricReport fields per method, loop by loop: every (method, molecule)
    gets its own forward, its own explanation of both classes, and its own
    occlusion forward; nothing is shared between methods."""
    from gcnx.model import forward, occlude

    reports = []
    for method in methods:
        contrastivities, sparsities, n_degenerate = [], [], 0
        per_class: dict[int, list[tuple[bool, bool]]] = {}
        for graph, label in dataset:
            trace = forward(graph, params)
            pos = _reference_heatmap(graph, params, trace, method, 1)
            neg = _reference_heatmap(graph, params, trace, method, 0)
            joint = pos.sum() + neg.sum()
            if joint != 0.0:
                pos, neg = pos / joint, neg / joint
            m_pos = [bool(x > threshold) for x in pos]
            m_neg = [bool(x > threshold) for x in neg]
            union = sum(a or b for a, b in zip(m_pos, m_neg))
            differ = sum(a != b for a, b in zip(m_pos, m_neg))
            if union == 0:
                n_degenerate += 1
            else:
                contrastivities.append(100.0 * differ / union)
            sparsities.append(100.0 * (1.0 - union / len(m_pos)))
            predicted = int(np.argmax(trace.probabilities))
            mask = m_pos if predicted == 1 else m_neg
            after = predicted
            if any(mask):
                after = int(np.argmax(forward(occlude(graph, mask), params).probabilities))
            per_class.setdefault(label, []).append((predicted == label, after == label))
        drops = [
            sum(b for b, _ in runs) / len(runs) - sum(a for _, a in runs) / len(runs)
            for _, runs in sorted(per_class.items())
        ]
        reports.append(
            {
                "method": method,
                "fidelity": float(np.mean(drops)),
                "contrastivity_mean": float(np.mean(contrastivities)) if contrastivities else 0.0,
                "contrastivity_std": float(np.std(contrastivities)) if contrastivities else 0.0,
                "sparsity_mean": float(np.mean(sparsities)),
                "sparsity_std": float(np.std(sparsities)),
                "n_molecules": len(dataset),
                "n_degenerate": n_degenerate,
            }
        )
    return reports


# ------------------------------------------------------- per-tensor training
class ReferenceAdam:
    """ADAM as it ran before the flat parameter vector: one update per
    tensor, each expression allocating its own temporaries."""

    def __init__(self, shapes, lr, beta1, beta2, eps):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, tensors: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for i, (theta, g) in enumerate(zip(tensors, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / correction1
            v_hat = self.v[i] / correction2
            theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_train(dataset, cfg, validation=None):
    """model.train's loop with ReferenceAdam stepping each weight tensor
    separately. Returns (weights, history, best_epoch), where weights holds
    copies of W^1..W^L and the classifier."""
    from gcnx.model import _accuracy, class_weights, forward, init_params, loss_gradients

    labels = [y for _, y in dataset]
    n_classes = max(labels) + 1
    rng = np.random.default_rng(cfg.seed)
    params = init_params(dataset[0][0].feature_dim, cfg.layer_sizes, n_classes, seed=cfg.seed)
    weights = class_weights(labels, n_classes) if cfg.class_weighting else np.ones(n_classes)
    tensors = params.layer_weights + [params.classifier_weights]
    optimizer = ReferenceAdam(
        [t.shape for t in tensors],
        cfg.learning_rate,
        ADAM["adam_beta1"],
        ADAM["adam_beta2"],
        ADAM["adam_eps"],
    )
    history, best, best_params = [], None, None
    for epoch in range(cfg.epochs):
        total_loss = 0.0
        for idx in rng.permutation(len(dataset)):
            graph, label = dataset[idx]
            loss, grads = loss_gradients(forward(graph, params), graph, params, label, weights[label])
            total_loss += loss
            optimizer.step(tensors, grads.layer_weights + [grads.classifier_weights])
        record = {
            "epoch": epoch,
            "loss": total_loss / len(dataset),
            "train_accuracy": _accuracy(params, dataset),
        }
        if validation:
            record["val_accuracy"] = val_acc = _accuracy(params, validation)
            if best is None or val_acc >= best[0]:
                best = (val_acc, epoch)
                best_params = [t.copy() for t in tensors]
        history.append(record)
    if validation and best_params is not None:
        return best_params, history, best[1]
    return [t.copy() for t in tensors], history, None


# ------------------------------------------------------------- AUC by loops
def loop_roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Midrank AUC from while loops over the sorted scores."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loop_pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision accumulated threshold by threshold in a while loop."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    n_pos = int(labels.sum())
    ap = 0.0
    tp = 0
    seen = 0
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        group_pos = int(sorted_labels[i : j + 1].sum())
        tp += group_pos
        seen = j + 1
        if group_pos:
            ap += (group_pos / n_pos) * (tp / seen)
        i = j + 1
    return ap


# ----------------------------------------------------------- depiction
# Layout and SVG writer as gcnx ran them before the lockstep batches: one
# molecule at a time, with every panel formatted from the positions anew.
CANVAS = 360.0
MARGIN = 36.0


def layout_molecule(molecule: Molecule, seed: int = 0, iterations: int = 200) -> np.ndarray:
    """Seeded spring embedding; positions scaled into the drawing canvas."""
    n = molecule.n_atoms
    rng = np.random.default_rng(seed)
    if n == 1:
        return np.array([[CANVAS / 2.0, CANVAS / 2.0]])
    angles = 2.0 * np.pi * np.arange(n) / n
    pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pos += rng.normal(scale=0.01, size=pos.shape)
    adjacency = molecule.graph.adjacency
    k = 1.0 / np.sqrt(n)
    temperature = 0.1
    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=2)) + 1e-9
        repulsion = (k * k / dist**2)[:, :, None] * delta
        diag = np.arange(n)
        repulsion[diag, diag, :] = 0.0
        attraction = (adjacency * dist / k)[:, :, None] * (-delta / dist[:, :, None])
        force = repulsion.sum(axis=1) + attraction.sum(axis=1)
        norm = np.sqrt((force**2).sum(axis=1, keepdims=True)) + 1e-9
        pos += force / norm * np.minimum(norm, temperature)
        temperature *= 0.98
    span = pos.max(axis=0) - pos.min(axis=0)
    span[span == 0.0] = 1.0
    scaled = (pos - pos.min(axis=0)) / span
    return MARGIN + scaled * (CANVAS - 2.0 * MARGIN)


def _escape(text: str) -> str:
    """XML character data; a local helper, because xml.sax.saxutils pulls in
    urllib.request and its dependencies on import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _bond_lines(p1, p2, order):
    """Line segments for one bond; multiple orders draw parallel offsets."""
    direction = p2 - p1
    length = np.sqrt((direction**2).sum()) + 1e-9
    normal = np.array([-direction[1], direction[0]]) / length
    offsets = {1: [0.0], DOUBLE: [-2.2, 2.2], TRIPLE: [-3.0, 0.0, 3.0], AROMATIC: [-2.2, 2.2]}
    dashed = order == AROMATIC
    lines = []
    for i, off in enumerate(offsets.get(order, [0.0])):
        a = p1 + normal * off
        b = p2 + normal * off
        dash = dashed and i == 1
        lines.append((a, b, dash))
    return lines


def molecule_svg(
    molecule: Molecule,
    values_by_class: dict[int, np.ndarray],
    positions: np.ndarray,
    title: str = "",
) -> str:
    """One panel per class, blue disk intensity proportional to saliency.
    The title is XML-escaped."""
    panels = sorted(values_by_class)
    width = CANVAS * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(CANVAS + 20)}" viewBox="0 0 {_fmt(width)} {_fmt(CANVAS + 20)}">'
    ]
    if title:
        parts.append(
            f'<text x="6" y="14" font-size="12" font-family="monospace">{_escape(title)}</text>'
        )
    for panel_index, class_id in enumerate(panels):
        values = np.asarray(values_by_class[class_id], dtype=float)
        peak = values.max() if values.size and values.max() > 0.0 else 1.0
        shift = panel_index * CANVAS
        parts.append(f'<g transform="translate({_fmt(shift)},20)">')
        parts.append(
            f'<text x="6" y="14" font-size="11" font-family="monospace">class {class_id}</text>'
        )
        for i, j, order in molecule.bonds:
            for a, b, dash in _bond_lines(positions[i], positions[j], order):
                dash_attr = ' stroke-dasharray="4,3"' if dash else ""
                parts.append(
                    f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                    f'y2="{_fmt(b[1])}" stroke="#444" stroke-width="1.5"{dash_attr}/>'
                )
        for idx, el in enumerate(molecule.elements):
            x, y = positions[idx]
            opacity = float(values[idx] / peak) if values.size else 0.0
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="13" fill="#1f77d0" '
                f'fill-opacity="{opacity:.3f}" stroke="#888" stroke-width="0.7"/>'
            )
            symbol = el.symbol if el.symbol != "other" else "*"
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y + 4)}" font-size="11" '
                f'font-family="monospace" text-anchor="middle">{symbol}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


# ------------------------------------------------------------ SMILES writer
# write_smiles as gcnx ran it with a recursive tree walk, before the walk
# became iterative and more than 99 ring bonds became an error.


def write_smiles(elements, bonds) -> str:
    """Serialize a connected labeled graph to the restricted SMILES grammar."""
    n = len(elements)
    if n == 0:
        raise ValueError("cannot serialize an empty molecule")
    order_of = {}
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j, order in bonds:
        order_of[(i, j)] = order_of[(j, i)] = order
        neighbors[i].append(j)
        neighbors[j].append(i)
    for adj in neighbors:
        adj.sort()

    tree_children: list[list[int]] = [[] for _ in range(n)]
    ring_bonds: list[tuple[int, int]] = []
    seen_edges = set()
    stack = [0]
    visited = {0}
    while stack:
        u = stack.pop()
        for v in sorted(neighbors[u], reverse=True):
            if (u, v) in seen_edges:
                continue
            seen_edges.add((u, v))
            seen_edges.add((v, u))
            if v in visited:
                ring_bonds.append((min(u, v), max(u, v)))
            else:
                visited.add(v)
                tree_children[u].append(v)
                stack.append(v)
    if len(visited) != n:
        raise ValueError("write_smiles requires a connected graph")

    ring_digits: dict[int, list[tuple[str, int]]] = {i: [] for i in range(n)}
    for number, (a, b) in enumerate(sorted(ring_bonds), start=1):
        digit = str(number) if number <= 9 else f"%{number:02d}"
        token = _bond_token(order_of[(a, b)], elements[a], elements[b]) + digit
        ring_digits[a].append((token, b))
        ring_digits[b].append((digit, a))

    out: list[str] = []

    def emit(node: int) -> None:
        out.append(_atom_token(elements[node]))
        for token, _ in ring_digits[node]:
            out.append(token)
        children = tree_children[node]
        for k, child in enumerate(children):
            bond = _bond_token(order_of[(node, child)], elements[node], elements[child])
            last = k == len(children) - 1
            if not last:
                out.append("(")
            out.append(bond)
            emit(child)
            if not last:
                out.append(")")

    emit(0)
    return "".join(out)
