"""Class-specific per-node heatmaps from a forward trace.

Five families: gradient saliency, CAM, Grad-CAM (any layer, plus the
layer-averaged variant), and excitation backprop with its contrastive
extension. All methods read the pre-softmax class score, and all values are
nonnegative by construction. Heatmaps for the two classes of one molecule
are normalized jointly so they form a single probability distribution.

MoleculeExplanations is the one way to ask for a heatmap. It is built per
molecule and computes each quantity once: one forward trace, one backward
pass stacked over the classes for the gradient methods, and at most four
excitation passes (base and negated classifier, per class) shared by eb and
ceb. explain_pair reads a normalized class pair from it, so every pair
asked of one source shares that work. excitation_backprop_trace keeps every
intermediate mass of one pass, for conservation checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gcnx.graphs import AttributedGraph
from gcnx.model import ForwardTrace, ModelParams, class_score_gradients, forward

METHODS = ("gradient", "cam", "grad_cam", "grad_cam_avg", "eb", "ceb")


@dataclass(frozen=True)
class Heatmap:
    method: str
    class_id: int
    values: np.ndarray
    normalized: bool = False
    layer: int | None = None

    def to_record(self, molecule_id: str, smiles: str, digits: int = 10) -> dict:
        """JSON-lines record; values rounded so equivalent methods emit
        byte-identical payloads."""
        return {
            "molecule_id": molecule_id,
            "smiles": smiles,
            "method": self.method,
            "class": self.class_id,
            "layer": self.layer,
            "values": [round(float(v), digits) for v in self.values],
            "normalized": self.normalized,
        }


# ------------------------------------------------------- excitation backprop


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

    perceptron_terms, if given, must be _perceptron_terms(trace, params);
    it lets the passes over one molecule share those products."""
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
        p_prop = prop * (_safe_ratio(p_activations[-1], z) @ w_pos.T)
        p_propagated.append(p_prop)
        # averaging rule: split each averaged unit's mass over contributing nodes
        previous = trace.activations[l]
        p_activations.append(previous * (v.T @ _safe_ratio(p_prop, prop)))

    p_activations.reverse()
    p_propagated.reverse()

    return ExcitationTrace(
        p_gap=p_gap, p_activations=p_activations, p_propagated=p_propagated
    )


# ------------------------------------------------------ per-molecule source


class MoleculeExplanations:
    """Every explainer quantity of one molecule, each computed at most once.

    It is built on one forward trace. The score gradients of all classes
    come from one stacked backward pass (model.class_score_gradients), which
    gradient, grad_cam at any layer and grad_cam_avg all read. Excitation
    passes, with the base or the negated classifier for each class, are
    kept once run, so ceb reuses the base passes of eb: at most four passes
    per molecule. They share max(W, 0) and its product with the trace.
    cam reads the trace alone.
    Everything is computed on first use.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        params: ModelParams,
        trace: ForwardTrace | None = None,
    ):
        self.graph = graph
        self.params = params
        self.trace = forward(graph, params) if trace is None else trace
        self._gradients: list[np.ndarray] | None = None
        self._perceptron_terms: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._excitation: dict[tuple[int, bool], np.ndarray] = {}

    def _activation_gradients(self, class_id: int) -> list[np.ndarray]:
        """d(y^class_id)/dF^l for l = 0..L."""
        if self._gradients is None:
            self._gradients = class_score_gradients(self.trace, self.graph, self.params)
        return [g[class_id] for g in self._gradients]

    def _grad_cam_values(self, class_id: int, layer: int) -> np.ndarray:
        alpha = self._activation_gradients(class_id)[layer].mean(axis=0)
        return np.maximum(self.trace.activations[layer] @ alpha, 0.0)

    def _excitation_values(self, class_id: int, negate: bool) -> np.ndarray:
        key = (class_id, negate)
        if key not in self._excitation:
            if self._perceptron_terms is None:
                self._perceptron_terms = _perceptron_terms(self.trace, self.params)
            self._excitation[key] = excitation_backprop_trace(
                self.trace,
                self.graph,
                self.params,
                class_id,
                negate_classifier=negate,
                perceptron_terms=self._perceptron_terms,
            ).heatmap_values
        return self._excitation[key]

    def heatmap(self, method: str, class_id: int, layer: int | None = None) -> Heatmap:
        """One class's heatmap; layer applies to grad_cam only (default: the
        final layer).

        gradient is the norm of the positive part of d(score)/d(features);
        cam weights the final-layer features by the classifier column;
        grad_cam weights one layer's features by their node-averaged score
        gradients, and grad_cam_avg is its mean over all layers; ceb keeps
        the positive part of the eb pass minus the pass with the classifier
        negated, rescaled to unit mass; null is a diagnostic that marks
        nothing."""
        trace = self.trace
        if method == "gradient":
            clamped = np.maximum(self._activation_gradients(class_id)[0], 0.0)
            values = np.sqrt((clamped * clamped).sum(axis=1))
        elif method == "cam":
            column = self.params.classifier_weights[:, class_id]
            values = np.maximum(trace.activations[-1] @ column, 0.0)
        elif method == "grad_cam":
            n_layers = trace.n_layers
            if layer is None:
                layer = n_layers
            if not 1 <= layer <= n_layers:
                raise ValueError(f"layer must be in 1..{n_layers}, got {layer}")
            values = self._grad_cam_values(class_id, layer)
            return Heatmap(method=method, class_id=class_id, values=values, layer=layer)
        elif method == "grad_cam_avg":
            values = np.zeros(trace.n_nodes)
            for l in range(1, trace.n_layers + 1):
                values += self._grad_cam_values(class_id, l)
            values = values / trace.n_layers
        elif method == "eb":
            values = self._excitation_values(class_id, False)
        elif method == "ceb":
            base = self._excitation_values(class_id, False)
            opposite = self._excitation_values(class_id, True)
            values = np.maximum(base - opposite, 0.0)
            total = values.sum()
            if total > 0.0:
                values = values / total
        elif method == "null":
            values = np.zeros(trace.n_nodes)
        else:
            raise ValueError(f"unknown explanation method {method!r}")
        return Heatmap(method=method, class_id=class_id, values=values)


# ------------------------------------------------------------ normalization


def normalize_pair(h_pos: Heatmap, h_neg: Heatmap) -> tuple[Heatmap, Heatmap]:
    """Scale both class heatmaps by their joint sum so the pair forms one
    probability distribution. An all-zero pair is returned unscaled and
    flagged unnormalized."""
    joint = float(h_pos.values.sum() + h_neg.values.sum())
    if joint == 0.0:
        return (
            replace(h_pos, normalized=False),
            replace(h_neg, normalized=False),
        )
    return (
        replace(h_pos, values=h_pos.values / joint, normalized=True),
        replace(h_neg, values=h_neg.values / joint, normalized=True),
    )


def explain_pair(
    source: MoleculeExplanations, method: str, layer: int | None = None
) -> tuple[Heatmap, Heatmap]:
    """Normalized (positive-class, negative-class) heatmap pair.

    Class 1 is treated as the positive class throughout the pipeline. Pairs
    asked of the same source share its gradients and excitation passes."""
    return normalize_pair(
        source.heatmap(method, 1, layer), source.heatmap(method, 0, layer)
    )
