"""Class-specific per-node heatmaps from a forward trace.

Five families: gradient saliency, CAM, Grad-CAM (any layer, plus the
layer-averaged variant), and excitation backprop with its contrastive
extension. All methods read the pre-softmax class score, and all values are
nonnegative by construction. Heatmaps for the two classes of one molecule
are normalized jointly so they form a single probability distribution,
and every pair is in class order: pair[c] is class c's map.
With mean pooling and a bias-free classifier, final-layer Grad-CAM is CAM
up to the factor 1/N, which that normalization removes (Selvaraju et al.,
arXiv 1610.02391, section 3); cam therefore returns the final-layer
grad_cam values themselves, so the two emit identical records.

MoleculeExplanations is the one way to ask for a heatmap. It is built per
molecule and computes each quantity once: one forward trace, one backward
pass stacked over the classes for the gradient methods, and one excitation
pass stacked over four seeds (each class, with the classifier as it is and
negated), shared by eb and ceb. explain_pair reads a normalized class pair
from it, so every pair asked of one source shares that work. Both reverse
passes carry their seeds as a leading axis through the layer loop.
Final-layer Grad-CAM, and with it cam, needs neither: its score gradient
is the classifier column spread over the nodes
(model.final_layer_score_gradients), so it runs no reverse pass.

The excitation pass is a modified backward pass: each layer multiplies
by W+ = max(W, 0) and by the layer's input features, and forms no
product that a later step divides out again. W+ depends on the model
alone, so explain and metrics build it once per checkpoint
(positive_layer_weights) and pass it to every molecule's source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gcnx.graphs import AttributedGraph
from gcnx.model import (
    ForwardTrace,
    ModelParams,
    class_score_gradients,
    final_layer_score_gradients,
    forward,
)

METHODS = ("gradient", "cam", "grad_cam", "grad_cam_avg", "eb", "ceb")


@dataclass(frozen=True)
class Heatmap:
    method: str
    class_id: int
    values: np.ndarray
    normalized: bool = False
    layer: int | None = None

    def to_record(self, molecule_id: str, smiles: str) -> dict:
        """JSON-lines record, with values rounded to 10 digits."""
        return {
            "molecule_id": molecule_id,
            "smiles": smiles,
            "method": self.method,
            "class": self.class_id,
            "layer": self.layer,
            "values": [round(float(v), 10) for v in self.values],
            "normalized": self.normalized,
        }


# ------------------------------------------------------- excitation backprop


def _safe_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise numerator/denominator with the 0/0 -> 0 convention."""
    out = np.zeros_like(numerator, dtype=np.float64)
    np.divide(numerator, denominator, out=out, where=denominator != 0.0)
    return out


def positive_layer_weights(params: ModelParams) -> list[np.ndarray]:
    """W+ = max(W^l, 0) of every layer l = 1..L, the weights excitation
    backprop reads. It depends on the parameters alone, so a stage builds
    it once per model and hands it to every molecule's
    MoleculeExplanations; it is a copy, and goes stale if the weights
    change after it is built."""
    return [np.maximum(w, 0.0) for w in params.layer_weights]


def excitation_backprop_trace(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    positive_weights: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Excitation backprop (Zhang et al., arXiv 1608.00507) of every class,
    with the classifier as it is and negated, as one pass.

    It runs as a modified backward pass: at layer l, with z = (V F^{l-1}) W+,
    the mass P on F^l moves to F^{l-1} as F^{l-1} * (V^T ((P / z) W+^T)),
    the perceptron and local-averaging rules in one step. The averaged
    features V F^{l-1} that the perceptron rule multiplies by and the
    averaging rule divides by cancel, so neither product is formed; where
    they are 0, F^{l-1} is 0 on every contributing node, as V, F and the
    input features are nonnegative. positive_weights is
    positive_layer_weights(params), built here if not given.

    The 2C seeds, every classifier column and then every negated column,
    ride a leading axis through the layer loop. Returns the per-node input
    mass, shape (2, C, N) indexed [sign, class, node] with sign 1 the
    negated classifier; each seed's values equal a pass run on it alone."""
    if positive_weights is None:
        positive_weights = positive_layer_weights(params)
    n = trace.n_nodes
    v = graph.norm_propagation
    columns = params.classifier_weights.T
    excitation = trace.gap * np.maximum(np.concatenate([columns, -columns]), 0.0)
    # each row summed on its own, so every seed's total matches a lone pass
    totals = np.array([row.sum() for row in excitation])
    p_gap = _safe_ratio(excitation, totals[:, None])
    p_act = trace.activations[-1] * _safe_ratio(p_gap, n * trace.gap)[:, None, :]

    for l in range(trace.n_layers - 1, -1, -1):
        w_pos = positive_weights[l]
        z = trace.propagated[l] @ w_pos
        # with nonnegative inputs, where z is 0 so is the layer's output
        # relu(propagated[l] @ W), and with it p_act: 0 / 1 keeps the
        # 0/0 -> 0 convention, bit for bit
        z[z == 0.0] = 1.0
        # one product per seed, so each seed's row keeps a lone pass's bits
        back = (p_act / z) @ w_pos.T
        p_act = trace.activations[l] * (v.T @ back)

    values = p_act.sum(axis=2) / p_act.shape[2]
    return values.reshape(2, params.n_classes, n)


# ------------------------------------------------------ per-molecule source


class MoleculeExplanations:
    """Every explainer quantity of one molecule, each computed at most once.

    It is built on one forward trace. grad_cam at the final layer L reads
    its score gradients from the classifier column
    (model.final_layer_score_gradients), the same floats the backward pass
    starts from, so it runs no backward pass; cam is that same map. The
    score gradients of all classes at every layer come from one stacked
    backward pass (model.class_score_gradients), which gradient, grad_cam
    below layer L and the lower layers of grad_cam_avg read; it runs only
    if one of them is asked for. The excitation masses of every class and
    classifier sign come from one stacked pass (excitation_backprop_trace),
    which eb and ceb both read; it runs only if one of them is asked for,
    on positive_weights, the model's positive_layer_weights, which a stage
    builds once for all its molecules (built per pass if None). Everything
    is computed on first use.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        params: ModelParams,
        trace: ForwardTrace | None = None,
        positive_weights: list[np.ndarray] | None = None,
    ):
        self.graph = graph
        self.params = params
        self.trace = forward(graph, params) if trace is None else trace
        self.positive_weights = positive_weights
        self._gradients: list[np.ndarray] | None = None
        self._final_gradients: np.ndarray | None = None
        self._excitation: np.ndarray | None = None

    def _activation_gradients(self, class_id: int) -> list[np.ndarray]:
        """d(y^class_id)/dF^l for l = 0..L."""
        if self._gradients is None:
            self._gradients = class_score_gradients(self.trace, self.graph, self.params)
        return [g[class_id] for g in self._gradients]

    def _grad_cam_values(self, class_id: int, layer: int) -> np.ndarray:
        if layer == self.trace.n_layers:
            if self._final_gradients is None:
                self._final_gradients = final_layer_score_gradients(
                    self.params, self.trace.n_nodes
                )
            gradient = self._final_gradients[class_id]
        else:
            gradient = self._activation_gradients(class_id)[layer]
        # the mean of the repeated rows, not column / N: the two can differ
        # in the last bit, which flips near-ties between symmetric atoms
        alpha = gradient.mean(axis=0)
        return np.maximum(self.trace.activations[layer] @ alpha, 0.0)

    def _excitation_masses(self, class_id: int) -> np.ndarray:
        """Excitation input masses of class_id: row 0 with the classifier as
        it is, row 1 with it negated."""
        if self._excitation is None:
            self._excitation = excitation_backprop_trace(
                self.trace, self.graph, self.params, self.positive_weights
            )
        return self._excitation[:, class_id]

    def heatmap(self, method: str, class_id: int, layer: int | None = None) -> Heatmap:
        """One class's heatmap; layer applies to grad_cam only (default: the
        final layer).

        gradient is the norm of the positive part of d(score)/d(features);
        grad_cam weights one layer's features by their node-averaged score
        gradients, and grad_cam_avg is its mean over all layers; cam is
        final-layer grad_cam, the final-layer features weighted by the
        classifier column over N, with layer left None; ceb keeps
        the positive part of the eb pass minus the pass with the classifier
        negated, rescaled to unit mass; null is a diagnostic that marks
        nothing."""
        trace = self.trace
        if method == "gradient":
            clamped = np.maximum(self._activation_gradients(class_id)[0], 0.0)
            values = np.sqrt((clamped * clamped).sum(axis=1))
        elif method == "cam":
            values = self._grad_cam_values(class_id, trace.n_layers)
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
            values = self._excitation_masses(class_id)[0]
        elif method == "ceb":
            base, opposite = self._excitation_masses(class_id)
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


def normalize_pair(h0: Heatmap, h1: Heatmap) -> tuple[Heatmap, Heatmap]:
    """Scale both class heatmaps by their joint sum so the pair forms one
    probability distribution, and return them in the order given. An
    all-zero pair is returned unscaled and flagged unnormalized."""
    joint = float(h0.values.sum() + h1.values.sum())
    if joint == 0.0:
        return replace(h0, normalized=False), replace(h1, normalized=False)
    return (
        replace(h0, values=h0.values / joint, normalized=True),
        replace(h1, values=h1.values / joint, normalized=True),
    )


def explain_pair(
    source: MoleculeExplanations, method: str, layer: int | None = None
) -> tuple[Heatmap, Heatmap]:
    """Normalized heatmap pair in class order: (class 0, class 1), so
    pair[c] is class c's map. Pairs asked of the same source share its
    gradients and excitation pass."""
    return normalize_pair(*(source.heatmap(method, c, layer) for c in (0, 1)))
