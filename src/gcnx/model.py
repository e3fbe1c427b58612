"""Spectral graph convolutional classifier with a hand-derived backward pass.

Architecture: a stack of graph convolutions F^l = relu(V F^{l-1} W^l),
global average pooling over nodes, and a linear softmax classifier without
biases. Everything runs in float64; a single molecule per optimizer step
keeps training deterministic for a fixed seed.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from gcnx.graphs import AttributedGraph
from gcnx.smiles import D_IN, FEATURIZATION


class ConfigurationError(ValueError):
    """Shape or configuration mismatch between graph and parameters."""


class TrainingError(ValueError):
    """Dataset unusable for training (e.g. fewer than two classes), or
    training that diverged to a non-finite loss."""


class StaleTraceError(RuntimeError):
    """A ForwardTrace was paired with a graph or parameters it did not come from."""


# ADAM's fixed b1, b2 and eps (Kingma & Ba's defaults), keyed as train_config records them
ADAM = {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8}


@dataclass
class TrainConfig:
    """One training run's settings; the ADAM constants are fixed, not set."""

    epochs: int = 100
    learning_rate: float = 0.001
    layer_sizes: tuple[int, ...] = (128, 256, 512)
    seed: int = 0
    class_weighting: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if any(width < 1 for width in self.layer_sizes):
            raise ConfigurationError(f"layer widths must be positive, got {list(self.layer_sizes)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            **ADAM,
            "layer_sizes": list(self.layer_sizes),
            "seed": self.seed,
            "class_weighting": self.class_weighting,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        # older checkpoints record the removed minibatch size, which was always 1
        if d.pop("batch_size", 1) != 1:
            raise ConfigurationError("train_config.batch_size must be 1 if present")
        for key, value in ADAM.items():
            if d.pop(key, value) != value:
                raise ConfigurationError(f"train_config.{key} must be {value} if present")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"train_config has unknown keys {unknown}")
        d["layer_sizes"] = tuple(d["layer_sizes"])
        return cls(**d)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views into flat, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@dataclass
class ModelParams:
    """Convolution weights W^l plus the K x C classifier matrix.

    Construction packs the arrays, W^1..W^L then the classifier, into one
    contiguous float64 vector `flat`; layer_weights and classifier_weights
    are then reshaped views into it, so writing to `flat` writes the
    weights (train's optimizer updates them that way). The shapes must
    chain (W^l is d_{l-1} x d_l, the classifier d_L x C), or
    ConfigurationError is raised; layer_sizes is read from them. copy()
    packs a new, independent vector.
    """

    layer_weights: list[np.ndarray]
    classifier_weights: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in self.layer_weights]
        arrays.append(np.asarray(self.classifier_weights, dtype=np.float64))
        shapes = [a.shape for a in arrays]
        if any(len(shape) != 2 for shape in shapes):
            raise ConfigurationError(f"weight arrays must be 2-D, got shapes {shapes}")
        for l, (a, b) in enumerate(zip(shapes[:-1], shapes[1:]), start=1):
            if a[1] != b[0]:
                raise ConfigurationError(
                    f"weight shapes do not chain: array {l} is {a[0]}x{a[1]}, "
                    f"array {l + 1} is {b[0]}x{b[1]}"
                )
        self.flat = np.concatenate([a.reshape(-1) for a in arrays])
        *self.layer_weights, self.classifier_weights = _views(self.flat, shapes)

    @property
    def n_layers(self) -> int:
        return len(self.layer_weights)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.layer_weights)

    @property
    def n_classes(self) -> int:
        return self.classifier_weights.shape[1]

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    @property
    def shapes(self) -> list[tuple[int, int]]:
        """The shapes of W^1..W^L and the classifier, in flat's order."""
        return [w.shape for w in self.layer_weights] + [self.classifier_weights.shape]

    def copy(self) -> "ModelParams":
        return ModelParams(self.layer_weights, self.classifier_weights)


def init_params(
    d_in: int,
    layer_sizes: tuple[int, ...],
    n_classes: int = 2,
    seed: int = 0,
) -> ModelParams:
    """Glorot-uniform initialization from a seeded generator."""
    rng = np.random.default_rng(seed)
    dims = (d_in,) + tuple(layer_sizes)
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    bound = np.sqrt(6.0 / (dims[-1] + n_classes))
    classifier = rng.uniform(-bound, bound, size=(dims[-1], n_classes))
    return ModelParams(layer_weights=weights, classifier_weights=classifier)


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, as the explainers need them.

    activations[l] is F^l with F^0 = X (N x d_l). propagated[l] is V @ F^l,
    the locally averaged features entering layer l+1's perceptron, indexed
    0..L-1. A stacked forward gives every array a leading axis of length K.
    """

    activations: list[np.ndarray]
    propagated: list[np.ndarray]
    gap: np.ndarray
    scores: np.ndarray
    probabilities: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.propagated)

    @property
    def n_nodes(self) -> int:
        return self.activations[0].shape[-2]


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so each row of a stacked (K, C) score
    array is normalized on its own; a 1-D score vector is one row."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def forward(
    graph: AttributedGraph, params: ModelParams, features: np.ndarray | None = None
) -> ForwardTrace:
    """The network on graph's node features, or on features in their place.

    features may stack K feature matrices of the graph as a leading axis,
    shape (K, N, d_0), such as K occlusions of one molecule. Every array of
    the trace then gains that axis, and row k is the forward of
    graph.with_features(features[k]) up to the last bits: each layer's
    K*N rows run as one 2-D product with W^l, where K lone passes run K
    products of N rows. A 2-D input runs one product of N rows per layer."""
    x = graph.node_features if features is None else features
    if x.shape[-1] != params.input_dim:
        raise ConfigurationError(
            f"graph feature width {x.shape[-1]} != model input {params.input_dim}"
        )
    v = graph.norm_propagation
    activations = [x]
    propagated = []
    current = x
    for w in params.layer_weights:
        prop = v @ current
        if prop.ndim == 2:
            pre = prop @ w
        else:  # a stack of K matrices: its K*N rows in one product
            pre = (prop.reshape(-1, w.shape[0]) @ w).reshape(*prop.shape[:-1], w.shape[1])
        current = np.maximum(pre, 0.0)
        propagated.append(prop)
        activations.append(current)
    gap = current.mean(axis=-2)
    scores = gap @ params.classifier_weights
    return ForwardTrace(
        activations=activations,
        propagated=propagated,
        gap=gap,
        scores=scores,
        probabilities=softmax(scores),
    )


@dataclass
class Gradients:
    """Reverse-mode gradients of one scalar (class score or loss)."""

    layer_weights: list[np.ndarray]
    classifier_weights: np.ndarray | None
    activations: list[np.ndarray]  # d(scalar)/dF^l for l = 0..L; [0] is d/dX


def _top_layer_gradient(params: ModelParams, d_scores: np.ndarray, n: int) -> np.ndarray:
    """d(scalar)/dF^L from d(scalar)/d(scores): back through the classifier,
    then through the mean over the n nodes, so every row is the same. A
    stacked (K x C) seed gives shape (K, n, d_L)."""
    # .T is a no-op on a 1-D seed, which keeps the single-seed product as it was
    d_gap = (params.classifier_weights @ d_scores.T).T
    return np.repeat((d_gap / n)[..., None, :], n, axis=-2)


def _backprop(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    d_scores: np.ndarray,
    out: list[np.ndarray] | None = None,
) -> Gradients:
    """Chain rule through classifier, GAP, and the convolution stack, seeded
    with d(scalar)/d(scores).

    The pass is linear in its seed, so d_scores may also stack K seeds as
    rows (K x C). Every activation gradient then gains a leading axis of
    length K whose row k equals the pass seeded with d_scores[k] alone; each
    row runs the same matrix products as a single-seed pass. A stacked pass
    computes activation gradients only: layer_weights is left empty and
    classifier_weights is None.

    out, arrays shaped like params.shapes, takes the weight gradients of a
    single seed: each is written into its array by the same product that
    would allocate it, and the returned weight gradients are those arrays.
    The pass then stops at W^1 and activations is left empty, since a
    caller that keeps only weight gradients reads no d/dF^l.
    """
    if trace.activations[0].shape != graph.node_features.shape or len(
        trace.propagated
    ) != len(params.layer_weights):
        raise StaleTraceError("trace does not match graph/parameters")
    single = d_scores.ndim == 1
    *d_weights_out, d_classifier_out = out or [None] * (params.n_layers + 1)
    v = graph.norm_propagation
    d_classifier = None
    if single:
        d_classifier = np.multiply(trace.gap[:, None], d_scores, out=d_classifier_out)
    d_act = _top_layer_gradient(params, d_scores, trace.n_nodes)
    d_activations = [d_act]
    d_layer_weights = []
    for l in range(trace.n_layers - 1, -1, -1):
        # relu(x) > 0 exactly where x > 0, for every float including -0.0 and NaN
        d_pre = d_act * (trace.activations[l + 1] > 0.0)
        if single:
            d_layer_weights.append(
                np.matmul(trace.propagated[l].T, d_pre, out=d_weights_out[l])
            )
        if out is not None and l == 0:
            break
        d_prop = d_pre @ params.layer_weights[l].T
        d_act = v.T @ d_prop
        d_activations.append(d_act)
    d_activations.reverse()
    d_layer_weights.reverse()
    return Gradients(
        layer_weights=d_layer_weights,
        classifier_weights=d_classifier,
        activations=[] if out is not None else d_activations,
    )


def score_gradients(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    target_class: int,
) -> Gradients:
    """Gradients of the pre-softmax score y^c."""
    seed = np.zeros(params.n_classes)
    seed[target_class] = 1.0
    return _backprop(trace, graph, params, seed)


def class_score_gradients(
    trace: ForwardTrace, graph: AttributedGraph, params: ModelParams
) -> list[np.ndarray]:
    """d(y^c)/dF^l of every class c from one backward pass, seeded with the
    stacked one-hot rows. Element l (l = 0..L) has shape (C, N, d_l), and
    its row c equals score_gradients(..., c).activations[l]."""
    seeds = np.eye(params.n_classes)
    return _backprop(trace, graph, params, seeds).activations


def final_layer_score_gradients(params: ModelParams, n_nodes: int) -> np.ndarray:
    """d(y^c)/dF^L of every class c on a molecule of n_nodes atoms, with no
    backward pass: pooling is a mean and the classifier has no bias, so row
    c is classifier column c over n_nodes, repeated on every node. Shape
    (C, N, d_L); it is the same array, float for float, as
    class_score_gradients(...)[L], because that pass starts from it."""
    return _top_layer_gradient(params, np.eye(params.n_classes), n_nodes)


def cross_entropy(trace: ForwardTrace, label: int, weight: float = 1.0) -> float:
    # log-sum-exp form keeps the loss finite for extreme scores
    scores = trace.scores
    log_z = np.log(np.exp(scores - scores.max()).sum()) + scores.max()
    return float(weight * (log_z - scores[label]))


def loss_gradients(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    label: int,
    weight: float = 1.0,
    out: list[np.ndarray] | None = None,
) -> tuple[float, Gradients]:
    """Weighted softmax cross-entropy and its gradients.

    With out, arrays shaped like params.shapes (train passes reshaped views
    of its flat gradient buffer), dW^1..dW^L and the classifier gradient
    are written into them by matmul(..., out=), the same products that
    would allocate them, so every float is the same. The pass then stops
    at W^1: it computes no input gradient d/dX, and the returned Gradients
    holds those arrays and no activation gradients.
    """
    d_scores = trace.probabilities.copy()
    d_scores[label] -= 1.0
    d_scores *= weight
    return cross_entropy(trace, label, weight), _backprop(
        trace, graph, params, d_scores, out=out
    )


def occlude(graph: AttributedGraph, mask) -> AttributedGraph:
    """Zero the feature rows of the masked nodes, keeping adjacency intact."""
    mask = np.asarray(list(mask), dtype=bool)
    if mask.shape[0] != graph.n_nodes:
        raise ConfigurationError("occlusion mask length != node count")
    features = graph.node_features.copy()
    features[mask] = 0.0
    return graph.with_features(features)


# ----------------------------------------------------------------- training


# float64 elements per block of AdamOptimizer.step: 128 KiB per array, so
# the six arrays one block touches (theta, grad, m, v and two work blocks)
# stay in L2 across the step's 14 passes
ADAM_BLOCK = 16_384


class AdamOptimizer:
    """ADAM with bias correction (Kingma & Ba, arXiv 1412.6980) over one
    C-contiguous parameter array of a fixed shape, updated in place.

    train passes ModelParams.flat, so one step updates every weight. The
    moments m, v and two work arrays of one block each are allocated once;
    a step runs in-place ufuncs on them and allocates no array. It performs
    the textbook update's float operations in their order, with the fixed
    ADAM constants b1, b2, eps and c_i = 1 - b_i^t:
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    theta -= (lr (m / c1)) / (sqrt(v / c2) + eps).
    The step makes its 14 passes over one block of ADAM_BLOCK elements of
    the flattened arrays before it moves to the next, so the block stays in
    cache; every element still sees the same operations in the same order,
    and the result is the same, bit for bit, as 14 passes over the whole
    array.
    """

    def __init__(self, shape, lr):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        # per block: its slice of the flattened arrays, the views of m and v
        # it covers, and the two work arrays cut to its length
        m, v = self.m.reshape(-1), self.v.reshape(-1)
        a, b = np.empty(min(m.size, ADAM_BLOCK)), np.empty(min(m.size, ADAM_BLOCK))
        self._blocks = []
        for start in range(0, m.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            n = m[block].size
            self._blocks.append((block, m[block], v[block], a[:n], b[:n]))

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        if theta.shape != self.m.shape or grad.shape != self.m.shape:
            raise ConfigurationError(
                f"ADAM step on shapes {theta.shape} and {grad.shape}, "
                f"the optimizer's is {self.m.shape}"
            )
        if not theta.flags.c_contiguous:
            raise ConfigurationError("ADAM updates a C-contiguous parameter array in place")
        beta1, beta2, eps = ADAM["adam_beta1"], ADAM["adam_beta2"], ADAM["adam_eps"]
        self.t += 1
        correction1 = 1.0 - beta1**self.t
        correction2 = 1.0 - beta2**self.t
        theta_flat, grad_flat = theta.reshape(-1), grad.reshape(-1)
        for block, m, v, a, b in self._blocks:
            th, g = theta_flat[block], grad_flat[block]
            np.multiply(m, beta1, out=m)
            np.multiply(g, 1.0 - beta1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, beta2, out=v)
            np.multiply(g, 1.0 - beta2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, correction2, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(m, correction1, out=b)
            np.multiply(b, self.lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(th, b, out=th)


def class_weights(labels, n_classes: int = 2) -> np.ndarray:
    """Inverse-frequency weights, normalized to mean 1 over samples."""
    counts = np.bincount(np.asarray(labels, dtype=int), minlength=n_classes).astype(float)
    weights = np.where(counts > 0, len(labels) / (n_classes * np.maximum(counts, 1.0)), 0.0)
    return weights


@dataclass
class TrainResult:
    params: ModelParams
    history: list[dict]
    best_epoch: int | None = None


def _accuracy(params: ModelParams, data) -> float:
    correct = sum(
        1 for g, y in data if int(np.argmax(forward(g, params).probabilities)) == y
    )
    return correct / len(data) if data else 0.0


def train(
    dataset: list[tuple[AttributedGraph, int]],
    cfg: TrainConfig,
    validation: list[tuple[AttributedGraph, int]] | None = None,
) -> TrainResult:
    """Train with per-molecule ADAM steps; deterministic for a fixed seed.

    Every step calls forward, loss_gradients and AdamOptimizer.step once.
    loss_gradients writes the weight gradients straight into reshaped views
    of one flat gradient buffer, laid out like params.flat, and computes no
    input gradient; the optimizer then updates params.flat in place from
    that buffer. NumPy's floating-point warnings are silenced inside the
    epoch loop: a run that diverges is reported by the TrainingError below.

    With a validation set, the returned parameters are the checkpoint with
    the best validation accuracy (the latest epoch wins ties). An epoch
    whose mean loss is not finite raises TrainingError naming the epoch.
    """
    if not dataset:
        raise TrainingError("empty training set")
    labels = [y for _, y in dataset]
    present = sorted(set(labels))
    if len(present) < 2:
        raise TrainingError(f"training needs >= 2 classes, got {present}")
    n_classes = max(present) + 1
    d_in = dataset[0][0].feature_dim

    rng = np.random.default_rng(cfg.seed)
    params = init_params(d_in, cfg.layer_sizes, n_classes, seed=cfg.seed)
    weights = (
        class_weights(labels, n_classes)
        if cfg.class_weighting
        else np.ones(n_classes)
    )
    grad = np.empty_like(params.flat)
    grad_views = _views(grad, params.shapes)
    optimizer = AdamOptimizer(params.flat.shape, cfg.learning_rate)

    history: list[dict] = []
    best: tuple[float, int] | None = None
    best_params: ModelParams | None = None
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(dataset))
            total_loss = 0.0
            for idx in order:
                graph, label = dataset[idx]
                trace = forward(graph, params)
                loss, _ = loss_gradients(
                    trace, graph, params, label, weights[label], out=grad_views
                )
                total_loss += loss
                optimizer.step(params.flat, grad)
            mean_loss = total_loss / len(dataset)
            if not math.isfinite(mean_loss):
                raise TrainingError(
                    f"epoch {epoch}: mean training loss is {mean_loss}; "
                    "training diverged, try a smaller learning rate"
                )
            record = {
                "epoch": epoch,
                "loss": mean_loss,
                "train_accuracy": _accuracy(params, dataset),
            }
            if validation:
                val_acc = _accuracy(params, validation)
                record["val_accuracy"] = val_acc
                # ties go to the later epoch: the more-trained model explains better
                if best is None or val_acc >= best[0]:
                    best = (val_acc, epoch)
                    best_params = params.copy()
            history.append(record)

    if validation and best_params is not None:
        return TrainResult(params=best_params, history=history, best_epoch=best[1])
    return TrainResult(params=params, history=history, best_epoch=None)


# --------------------------------------------------------------- evaluation


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each score's tie group in ascending score order, and each group's size."""
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return group, counts


def _roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with midranks for ties (Mann-Whitney)."""
    group, counts = _tie_groups(scores)
    last = np.cumsum(counts) - 1  # 0-based sorted position of each group's last score
    first = last - counts + 1
    ranks = (0.5 * (first + last) + 1.0)[group]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    rank_sum = ranks[labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision over descending score thresholds (ties grouped)."""
    group, counts = _tie_groups(scores)
    # groups from the highest score down
    group_pos = np.bincount(group, weights=labels, minlength=len(counts))[::-1]
    seen = np.cumsum(counts[::-1])
    tp = np.cumsum(group_pos)
    n_pos = int(labels.sum())
    hit = group_pos > 0
    terms = (group_pos[hit] / n_pos) * (tp[hit] / seen[hit])
    # a running sum adds the terms left to right, as a loop over thresholds does
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def evaluate(params: ModelParams, dataset) -> dict:
    """Accuracy plus ROC/PR AUCs; AUCs are None for one-class sets."""
    if not dataset:
        raise TrainingError("empty evaluation set")
    labels = np.array([y for _, y in dataset], dtype=int)
    probabilities = [forward(g, params).probabilities for g, _ in dataset]
    scores = np.array([p[1] for p in probabilities])
    preds = np.array([int(np.argmax(p)) for p in probabilities])
    out = {"accuracy": float((preds == labels).mean())}
    if len(set(labels.tolist())) < 2:
        out["roc_auc"] = None
        out["pr_auc"] = None
    else:
        out["roc_auc"] = float(_roc_auc(scores, labels))
        out["pr_auc"] = float(_pr_auc(scores, labels))
    return out


# -------------------------------------------------------------- checkpoints

CHECKPOINT_VERSION = 2
# format 2 stores each weight array as base64 of its little-endian float64
# bytes, row-major; format 1 stored lists of JSON numbers and is still read
WEIGHT_DTYPE = np.dtype("<f8")


def _encode_weights(array: np.ndarray) -> str:
    raw = np.ascontiguousarray(array, dtype=WEIGHT_DTYPE).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_weights(stored, shape, version: int, name: str) -> np.ndarray:
    """One weight array of a checkpoint, checked against its recorded shape
    and for values that are not finite (NaN or infinite)."""
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(d) is int and d > 0 for d in shape)
    ):
        raise ConfigurationError(
            f"checkpoint {name} shape must be two positive integers, got {shape!r}"
        )
    size = math.prod(shape)
    try:
        if version == 1:
            flat = np.array(stored, dtype=np.float64)
        else:
            flat = np.frombuffer(base64.b64decode(stored, validate=True), dtype=WEIGHT_DTYPE)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"checkpoint {name} cannot be decoded: {err}") from err
    if flat.shape != (size,):
        raise ConfigurationError(
            f"checkpoint {name} holds {flat.size} values, its shape {shape} needs {size}"
        )
    if not np.isfinite(flat).all():
        raise ConfigurationError(f"checkpoint {name} holds a value that is not finite")
    return flat.reshape(shape)


def checkpoint_to_json(params: ModelParams, cfg: TrainConfig) -> str:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "featurization": FEATURIZATION,
        "layer_sizes": list(params.layer_sizes),
        "n_classes": params.n_classes,
        "layer_weights": [_encode_weights(w) for w in params.layer_weights],
        "layer_shapes": [list(w.shape) for w in params.layer_weights],
        "classifier_weights": _encode_weights(params.classifier_weights),
        "classifier_shape": list(params.classifier_weights.shape),
        "train_config": cfg.to_dict(),
        "seed": cfg.seed,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _read_section(key: str, convert, payload: dict):
    """convert(payload[key]), with a value it cannot convert reported as a
    ConfigurationError that names the key."""
    try:
        return convert(payload[key])
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"checkpoint {key} cannot be read: {err}") from err


def checkpoint_from_json(text: str) -> tuple[ModelParams, TrainConfig, int]:
    """Read a format 1 or 2 checkpoint. It is the one reader that decides
    what loads: every array is checked against its shape, and the shapes
    against each other, layer_sizes and n_classes. Any mismatch, a class
    count other than 2, a weight that is not finite, a config that cannot
    be read or that records ADAM constants other than ADAM, a featurization
    other than smiles.FEATURIZATION, an input width other than
    smiles.D_IN, and text that is not a JSON object, raises
    ConfigurationError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"checkpoint is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"checkpoint must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ConfigurationError(f"unsupported checkpoint format_version {version!r}")
    try:
        layer_weights, layer_shapes = payload["layer_weights"], payload["layer_shapes"]
        if len(layer_weights) != len(layer_shapes):
            raise ConfigurationError(
                f"checkpoint has {len(layer_weights)} layer arrays but {len(layer_shapes)} shapes"
            )
        weights = [
            _decode_weights(stored, shape, version, f"layer {l} weights")
            for l, (stored, shape) in enumerate(zip(layer_weights, layer_shapes), start=1)
        ]
        classifier = _decode_weights(
            payload["classifier_weights"],
            payload["classifier_shape"],
            version,
            "classifier weights",
        )
        params = ModelParams(layer_weights=weights, classifier_weights=classifier)
        if payload["layer_sizes"] != list(params.layer_sizes):
            raise ConfigurationError(
                f"checkpoint layer_sizes {payload['layer_sizes']!r} disagree with "
                f"weight shapes {layer_shapes}"
            )
        if payload["n_classes"] != params.n_classes:
            raise ConfigurationError(
                f"checkpoint n_classes {payload['n_classes']!r} disagrees with "
                f"classifier shape {list(classifier.shape)}"
            )
        if params.n_classes != 2:
            raise ConfigurationError(
                f"checkpoint has {params.n_classes} classes; every stage explains "
                "a two-class model"
            )
        cfg = _read_section("train_config", TrainConfig.from_dict, payload)
        if payload["featurization"] != FEATURIZATION:
            raise ConfigurationError(
                f"checkpoint featurization {payload['featurization']!r} is not "
                f"the fixed featurization {FEATURIZATION!r}"
            )
        if params.input_dim != D_IN:
            raise ConfigurationError(
                f"checkpoint input width {params.input_dim} != the featurization width {D_IN}"
            )
        seed = _read_section("seed", int, payload)
    except KeyError as err:
        raise ConfigurationError(f"checkpoint lacks the key {err}") from err
    return params, cfg, seed


def save_checkpoint(path, params, cfg) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(params, cfg))


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig, int]:
    """checkpoint_from_json on the file at path. A file that is not UTF-8
    raises ConfigurationError too, and every ConfigurationError names the
    file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"{path}: checkpoint is not UTF-8 text: {err}") from err
    try:
        return checkpoint_from_json(text)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err
