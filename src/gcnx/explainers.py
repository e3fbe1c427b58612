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
pass stacked over the classes for the gradient methods, each (class,
layer) Grad-CAM map, which cam, grad_cam and grad_cam_avg share, and one
excitation pass stacked over four seeds (each class, with the classifier
as it is and negated), shared by eb and ceb. explain_pair reads a
normalized class pair from it, so every pair asked of one source shares
that work. Both reverse passes carry their seeds as a leading axis
through the layer loop.
Final-layer Grad-CAM, and with it cam, needs neither: its score gradient
is the classifier column spread over the nodes
(model.final_layer_score_gradients), so it runs no reverse pass.

The excitation pass is a modified backward pass: each layer multiplies
by W+ = max(W, 0) and by the layer's input features, and forms no
product that a later step divides out again. W+ depends on the model
alone, so explain, and metrics when it computes eb or ceb, build it once
per checkpoint (positive_layer_weights) and pass it to every molecule's
source.

The heatmap store keeps explain's exact pairs for the stages that follow
it. explain writes every normalized pair it computes, as raw float64s,
and each molecule's predicted class, through HeatmapStoreWriter;
load_heatmap_store hands them to metrics and mine when the store's key
matches their model and molecules and it holds their methods.
molecule_pairs iterates over each molecule's predicted class and pairs,
read from a loaded store or computed, so a stage has one loop for both.

heatmap_records writes one molecule's heatmaps.jsonl lines at once: the
id and SMILES are encoded once and every value of the molecule is rounded
in one vectorized pass that returns exactly Python's round(v, 10).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

import gcnx
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
    if one of them is asked for. Each (class, layer) Grad-CAM map is
    computed once, each class by its own matvec; cam, grad_cam at that
    layer and grad_cam_avg's summand all read that one array, so no
    caller may write to a heatmap's values in place. The excitation masses
    of every class and classifier sign come from one stacked pass
    (excitation_backprop_trace), which eb and ceb both read; it runs only
    if one of them is asked for, on positive_weights, the model's
    positive_layer_weights, which a stage builds once for all its
    molecules (built per pass if None). Everything is computed on first
    use.
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
        self._grad_cams: dict[tuple[int, int], np.ndarray] = {}
        self._excitation: np.ndarray | None = None

    def _activation_gradients(self, class_id: int) -> list[np.ndarray]:
        """d(y^class_id)/dF^l for l = 0..L."""
        if self._gradients is None:
            self._gradients = class_score_gradients(self.trace, self.graph, self.params)
        return [g[class_id] for g in self._gradients]

    def _grad_cam(self, class_id: int, layer: int) -> np.ndarray:
        """Grad-CAM map of class_id at layer, computed on first use."""
        key = (class_id, layer)
        values = self._grad_cams.get(key)
        if values is None:
            values = self._grad_cams[key] = self._grad_cam_values(class_id, layer)
        return values

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
            values = self._grad_cam(class_id, trace.n_layers)
        elif method == "grad_cam":
            n_layers = trace.n_layers
            if layer is None:
                layer = n_layers
            if not 1 <= layer <= n_layers:
                raise ValueError(f"layer must be in 1..{n_layers}, got {layer}")
            values = self._grad_cam(class_id, layer)
            return Heatmap(method=method, class_id=class_id, values=values, layer=layer)
        elif method == "grad_cam_avg":
            values = np.zeros(trace.n_nodes)
            for l in range(1, trace.n_layers + 1):
                values += self._grad_cam(class_id, l)
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
        return tuple(Heatmap(h.method, h.class_id, h.values, False, h.layer) for h in (h0, h1))
    return tuple(Heatmap(h.method, h.class_id, h.values / joint, True, h.layer) for h in (h0, h1))


def explain_pair(
    source: MoleculeExplanations, method: str, layer: int | None = None
) -> tuple[Heatmap, Heatmap]:
    """Normalized heatmap pair in class order: (class 0, class 1), so
    pair[c] is class c's map. Pairs asked of the same source share its
    gradients and excitation pass."""
    return normalize_pair(*(source.heatmap(method, c, layer) for c in (0, 1)))


# ------------------------------------------------------------------ records

# json.dumps's tokens for the values float.__repr__ writes as nan, inf, -inf
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _round10(values: np.ndarray) -> np.ndarray:
    """round(float(v), 10) of every value, bit for bit, in one pass.

    Python rounds the exact binary value to 10 decimals, half to even, and
    returns the double nearest the result. rint(v * 1e10) / 1e10 does the
    same wherever the rounding of v * 1e10 cannot have moved it across a
    half-integer, which holds when it lies more than a few ulps from one:
    the integer and 1e10 are then exact and the division is correctly
    rounded. The rest go through round itself: values that near a
    half-integer, values of 2**50 / 1e10 or more in magnitude, whose ulp
    leaves no half-integer that far away, and non-finite ones."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e10
        rounded = np.rint(scaled) / 1e10
        to_half = np.abs(scaled - np.floor(scaled) - 0.5)
        exact = to_half > 4.0 * np.spacing(np.abs(scaled))
    if not exact.all():
        slow = ~exact
        rounded[slow] = [round(v, 10) for v in values[slow].tolist()]
    return rounded


def heatmap_records(molecule_id: str, smiles: str, pairs) -> str:
    """The heatmaps.jsonl lines of one molecule's heatmap pairs, in order:
    for each heatmap, json.dumps of {molecule_id, smiles, method, class,
    layer, values, normalized} and a newline, with every value rounded as
    round(float(v), 10).

    The id, the SMILES and each method are encoded once, and all of the
    molecule's values are rounded in one pass and written with
    float.__repr__, as json.dumps writes floats (NaN, Infinity and
    -Infinity where they are not finite)."""
    heatmaps = [heat for pair in pairs for heat in pair]
    values = _round10(np.concatenate([heat.values for heat in heatmaps]))
    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_JSON_NON_FINITE.get(text, text) for text in texts]
    head = f'{{"molecule_id": {json.dumps(molecule_id)}, "smiles": {json.dumps(smiles)}, "method": '
    methods = {method: json.dumps(method) for method in {heat.method for heat in heatmaps}}
    lines = []
    start = 0
    for heat in heatmaps:
        stop = start + len(heat.values)
        layer = "null" if heat.layer is None else heat.layer
        normalized = "true" if heat.normalized else "false"
        lines.append(
            f'{head}{methods[heat.method]}, "class": {heat.class_id}, "layer": {layer}, '
            f'"values": [{", ".join(texts[start:stop])}], "normalized": {normalized}}}\n'
        )
        start = stop
    return "".join(lines)


# ------------------------------------------------------------ heatmap store

STORE_FORMAT = 1
STORE_VALUES = "heatmap_store.f64"
STORE_INDEX = "heatmap_store.json"


def _store_digests(params: ModelParams, entries) -> dict[str, str]:
    """The store key and the two digests it covers besides the tool version
    and STORE_FORMAT: the model (weight shapes and params.flat bytes) and
    the molecules (each entry's id and SMILES, in dataset order). With the
    featurization fixed, nothing else determines a heatmap."""
    model = hashlib.sha256(json.dumps(params.shapes).encode("ascii"))
    model.update(np.ascontiguousarray(params.flat, dtype="<f8"))
    molecules = hashlib.sha256()
    for mol_id, molecule, _ in entries:
        molecules.update(json.dumps([mol_id, molecule.source_string]).encode("ascii") + b"\n")
    digests = {"model": model.hexdigest(), "molecules": molecules.hexdigest()}
    key = [gcnx.__version__, STORE_FORMAT, digests["model"], digests["molecules"]]
    digests["key"] = hashlib.sha256(json.dumps(key).encode("ascii")).hexdigest()
    return digests


class HeatmapStoreWriter:
    """Writes explain's heatmap pairs and predicted classes to out_dir as a
    heatmap store, in a with block.

    STORE_VALUES holds raw little-endian float64s: for each molecule in
    dataset order, each (method, layer) of pairs in order, class 0's values
    then class 1's. add() writes one molecule's, so no heatmap is held past
    its molecule. STORE_INDEX is JSON with the key, its model and molecule
    digests, the (method, layer) pairs and the predicted classes. Entering
    removes any earlier index, and a clean exit writes the new one last,
    under a temporary name that is then renamed, so an interrupted explain
    leaves no store that loads."""

    def __init__(self, out_dir: str, params: ModelParams, entries, pairs):
        self._index_path = os.path.join(out_dir, STORE_INDEX)
        self._values_path = os.path.join(out_dir, STORE_VALUES)
        self._index = {
            **_store_digests(params, entries),
            "pairs": [[method, layer] for method, layer in pairs],
            "predicted": [],
        }

    def __enter__(self) -> "HeatmapStoreWriter":
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._index_path)
        self._values = open(self._values_path, "wb")
        return self

    def add(self, predicted: int, pairs) -> None:
        """One molecule's predicted class and its pairs, in the order of
        the writer's (method, layer) pairs."""
        values = np.concatenate([heat.values for pair in pairs for heat in pair])
        self._values.write(values.astype("<f8", copy=False).tobytes())
        self._index["predicted"].append(predicted)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._values.close()
        if exc_type is None:
            partial = self._index_path + ".tmp"
            with open(partial, "w", encoding="utf-8") as fh:
                json.dump(self._index, fh, sort_keys=True)
                fh.write("\n")
            os.replace(partial, self._index_path)


class StoreMismatch(Exception):
    """Why a heatmap store cannot serve a stage, which then computes the
    heatmaps itself."""


@dataclass(frozen=True)
class StoredHeatmaps:
    """A loaded heatmap store: per molecule, its predicted class and its
    values block, shape (pairs, 2, atoms); columns gives the block row of
    each method a stage asked for, grad_cam at the final layer."""

    predicted: list[int]
    blocks: list[np.ndarray]
    columns: dict[str, int]


def load_heatmap_store(out_dir: str, params: ModelParams, entries, methods) -> StoredHeatmaps:
    """The store that explain wrote to out_dir, if it serves these entries
    and methods under params: its key matches, it holds every method
    (grad_cam at the final layer), and its value file has the bytes that
    the molecules' atom counts give. Otherwise StoreMismatch says why; an
    unreadable or inconsistent store is a mismatch, never an error."""
    index_path = os.path.join(out_dir, STORE_INDEX)
    if not os.path.exists(index_path):
        raise StoreMismatch(f"no heatmap store in {out_dir}")
    try:
        with open(index_path, encoding="utf-8") as fh:
            index = json.load(fh)
        digests = _store_digests(params, entries)
        if index["key"] != digests["key"]:
            if index["model"] != digests["model"]:
                raise StoreMismatch("the heatmap store is of another model")
            if index["molecules"] != digests["molecules"]:
                raise StoreMismatch("the heatmap store is of other molecules")
            raise StoreMismatch("the heatmap store is of another gcnx version or store format")
        pairs = [(method, layer) for method, layer in index["pairs"]]
        columns = {}
        for method in methods:
            layer = params.n_layers if method == "grad_cam" else None
            if (method, layer) not in pairs:
                at = f" at layer {layer}" if layer is not None else ""
                raise StoreMismatch(f"the heatmap store holds no {method}{at}")
            columns[method] = pairs.index((method, layer))
        predicted = [int(c) for c in index["predicted"]]
        if len(predicted) != len(entries) or not set(predicted) <= {0, 1}:
            raise ValueError("its predicted classes do not match the molecules")
        sizes = [len(pairs) * 2 * molecule.graph.n_nodes for _, molecule, _ in entries]
        values_path = os.path.join(out_dir, STORE_VALUES)
        if os.path.getsize(values_path) != 8 * sum(sizes):
            raise ValueError(f"{values_path} does not hold {sum(sizes)} values")
        values = np.fromfile(values_path, dtype="<f8")
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as err:
        raise StoreMismatch(f"the heatmap store is unreadable: {err}") from err
    blocks = np.split(values, np.cumsum(sizes)[:-1])
    return StoredHeatmaps(
        predicted=predicted,
        blocks=[
            block.reshape(len(pairs), 2, molecule.graph.n_nodes)
            for block, (_, molecule, _) in zip(blocks, entries)
        ],
        columns=columns,
    )


def molecule_pairs(params: ModelParams, graphs, methods, stored: StoredHeatmaps | None = None):
    """An iterator over graphs, in order, of each one's predicted class and,
    per method, its normalized pair in class order (pair[c] is class c's
    values), grad_cam at the final layer.

    With stored, a store loaded for these graphs' molecules and methods,
    both are read from it and nothing is computed. Otherwise one
    MoleculeExplanations per graph computes them as the iterator reaches
    it, on W+ built once when eb or ceb is asked for."""
    if stored is not None:
        return (
            (predicted, [block[stored.columns[method]] for method in methods])
            for predicted, block in zip(stored.predicted, stored.blocks)
        )
    positive_weights = positive_layer_weights(params) if {"eb", "ceb"} & set(methods) else None
    return (_computed_pairs(graph, params, methods, positive_weights) for graph in graphs)


def _computed_pairs(graph, params, methods, positive_weights) -> tuple[int, list]:
    source = MoleculeExplanations(graph, params, positive_weights=positive_weights)
    pairs = [[h.values for h in explain_pair(source, method)] for method in methods]
    return int(np.argmax(source.trace.probabilities)), pairs
