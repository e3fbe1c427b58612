"""Spectral graph convolutional classifier with a hand-derived backward pass.

Architecture: a stack of graph convolutions F^l = relu(V F^{l-1} W^l),
global average pooling over nodes, and a linear softmax classifier without
biases. Everything runs in float64; a single molecule per optimizer step
keeps training deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from gcnx.graphs import AttributedGraph
from gcnx.smiles import DEFAULT_SCHEME, FeaturizationScheme


class ConfigurationError(ValueError):
    """Shape or configuration mismatch between graph and parameters."""


class TrainingError(ValueError):
    """Dataset unusable for training (e.g. fewer than two classes)."""


class StaleTraceError(RuntimeError):
    """A ForwardTrace was paired with a graph or parameters it did not come from."""


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    layer_sizes: tuple[int, ...] = (128, 256, 512)
    seed: int = 0
    class_weighting: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        for beta in (self.adam_beta1, self.adam_beta2):
            if not 0.0 < beta < 1.0:
                raise ConfigurationError("ADAM betas must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_eps": self.adam_eps,
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
        d["layer_sizes"] = tuple(d["layer_sizes"])
        return cls(**d)


@dataclass
class ModelParams:
    """Convolution weights W^l plus the K x C classifier matrix."""

    layer_weights: list[np.ndarray]
    classifier_weights: np.ndarray
    layer_sizes: tuple[int, ...]

    @property
    def n_layers(self) -> int:
        return len(self.layer_weights)

    @property
    def n_classes(self) -> int:
        return self.classifier_weights.shape[1]

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(
            layer_weights=[w.copy() for w in self.layer_weights],
            classifier_weights=self.classifier_weights.copy(),
            layer_sizes=self.layer_sizes,
        )


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
    return ModelParams(
        layer_weights=weights,
        classifier_weights=classifier,
        layer_sizes=tuple(layer_sizes),
    )


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, as the explainers need them.

    activations[l] is F^l with F^0 = X (N x d_l). propagated[l] is V @ F^l,
    the locally averaged features entering layer l+1's perceptron, and
    preactivations[l] is propagated[l] @ W^{l+1}, both indexed 0..L-1.
    """

    activations: list[np.ndarray]
    propagated: list[np.ndarray]
    preactivations: list[np.ndarray]
    gap: np.ndarray
    scores: np.ndarray
    probabilities: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.propagated)

    @property
    def n_nodes(self) -> int:
        return self.activations[0].shape[0]


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def forward(graph: AttributedGraph, params: ModelParams) -> ForwardTrace:
    if graph.feature_dim != params.input_dim:
        raise ConfigurationError(
            f"graph feature width {graph.feature_dim} != model input {params.input_dim}"
        )
    v = graph.norm_propagation
    activations = [graph.node_features]
    propagated = []
    preactivations = []
    current = graph.node_features
    for w in params.layer_weights:
        prop = v @ current
        pre = prop @ w
        current = np.maximum(pre, 0.0)
        propagated.append(prop)
        preactivations.append(pre)
        activations.append(current)
    gap = current.mean(axis=0)
    scores = gap @ params.classifier_weights
    return ForwardTrace(
        activations=activations,
        propagated=propagated,
        preactivations=preactivations,
        gap=gap,
        scores=scores,
        probabilities=softmax(scores),
    )


@dataclass
class Gradients:
    """Reverse-mode gradients of one scalar (class score or loss)."""

    layer_weights: list[np.ndarray]
    classifier_weights: np.ndarray
    input: np.ndarray
    activations: list[np.ndarray]  # d(scalar)/dF^l for l = 0..L


def _backprop(
    trace: ForwardTrace,
    graph: AttributedGraph,
    params: ModelParams,
    d_scores: np.ndarray,
    weight_grads: bool = True,
) -> Gradients:
    """Chain rule through classifier, GAP, and the convolution stack, seeded
    with d(scalar)/d(scores).

    The pass is linear in its seed, so d_scores may also stack K seeds as
    rows (K x C). Every gradient then gains a leading axis of length K whose
    row k equals the pass seeded with d_scores[k] alone; each row runs the
    same matrix products as a single-seed pass. With weight_grads=False the
    layer-weight gradients are skipped and layer_weights is left empty.
    """
    if trace.activations[0].shape != graph.node_features.shape or len(
        trace.propagated
    ) != len(params.layer_weights):
        raise StaleTraceError("trace does not match graph/parameters")
    n = trace.n_nodes
    v = graph.norm_propagation
    d_classifier = trace.gap[:, None] * d_scores[..., None, :]
    # .T is a no-op on a 1-D seed, which keeps the single-seed product as it was
    d_gap = (params.classifier_weights @ d_scores.T).T
    d_act = np.repeat((d_gap / n)[..., None, :], n, axis=-2)
    d_activations = [d_act]
    d_layer_weights = []
    for l in range(trace.n_layers - 1, -1, -1):
        d_pre = d_act * (trace.preactivations[l] > 0.0)
        if weight_grads:
            d_layer_weights.append(trace.propagated[l].T @ d_pre)
        d_prop = d_pre @ params.layer_weights[l].T
        d_act = v.T @ d_prop
        d_activations.append(d_act)
    d_activations.reverse()
    d_layer_weights.reverse()
    return Gradients(
        layer_weights=d_layer_weights,
        classifier_weights=d_classifier,
        input=d_activations[0],
        activations=d_activations,
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
    return _backprop(trace, graph, params, seeds, weight_grads=False).activations


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
) -> tuple[float, Gradients]:
    """Weighted softmax cross-entropy and its gradients."""
    d_scores = trace.probabilities.copy()
    d_scores[label] -= 1.0
    d_scores *= weight
    return cross_entropy(trace, label, weight), _backprop(trace, graph, params, d_scores)


def occlude(graph: AttributedGraph, mask) -> AttributedGraph:
    """Zero the feature rows of the masked nodes, keeping adjacency intact."""
    mask = np.asarray(list(mask), dtype=bool)
    if mask.shape[0] != graph.n_nodes:
        raise ConfigurationError("occlusion mask length != node count")
    features = graph.node_features.copy()
    features[mask] = 0.0
    return graph.with_features(features)


# ----------------------------------------------------------------- training


class AdamOptimizer:
    """Standard ADAM with bias correction over a list of parameter arrays."""

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

    With a validation set, the returned parameters are the checkpoint with
    the best validation accuracy (the latest epoch wins ties).
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
    tensors = params.layer_weights + [params.classifier_weights]
    optimizer = AdamOptimizer(
        [t.shape for t in tensors],
        cfg.learning_rate,
        cfg.adam_beta1,
        cfg.adam_beta2,
        cfg.adam_eps,
    )

    history: list[dict] = []
    best: tuple[float, int] | None = None
    best_params: ModelParams | None = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        total_loss = 0.0
        for idx in order:
            graph, label = dataset[idx]
            trace = forward(graph, params)
            loss, grads = loss_gradients(trace, graph, params, label, weights[label])
            total_loss += loss
            optimizer.step(tensors, grads.layer_weights + [grads.classifier_weights])
        record = {
            "epoch": epoch,
            "loss": total_loss / len(dataset),
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


def _roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with midranks for ties (Mann-Whitney)."""
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


def _pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision over descending score thresholds (ties grouped)."""
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

CHECKPOINT_VERSION = 1


def checkpoint_to_json(
    params: ModelParams,
    cfg: TrainConfig,
    scheme: FeaturizationScheme = DEFAULT_SCHEME,
    seed: int | None = None,
) -> str:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "featurization": scheme.to_dict(),
        "layer_sizes": list(params.layer_sizes),
        "n_classes": params.n_classes,
        "layer_weights": [w.reshape(-1).tolist() for w in params.layer_weights],
        "layer_shapes": [list(w.shape) for w in params.layer_weights],
        "classifier_weights": params.classifier_weights.reshape(-1).tolist(),
        "classifier_shape": list(params.classifier_weights.shape),
        "train_config": cfg.to_dict(),
        "seed": cfg.seed if seed is None else seed,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def checkpoint_from_json(text: str) -> tuple[ModelParams, TrainConfig, FeaturizationScheme, int]:
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint format_version {version!r}")
    weights = [
        np.array(flat).reshape(shape)
        for flat, shape in zip(payload["layer_weights"], payload["layer_shapes"])
    ]
    classifier = np.array(payload["classifier_weights"]).reshape(
        payload["classifier_shape"]
    )
    params = ModelParams(
        layer_weights=weights,
        classifier_weights=classifier,
        layer_sizes=tuple(payload["layer_sizes"]),
    )
    cfg = TrainConfig.from_dict(payload["train_config"])
    scheme = FeaturizationScheme.from_dict(payload["featurization"])
    return params, cfg, scheme, int(payload["seed"])


def save_checkpoint(path, params, cfg, scheme=DEFAULT_SCHEME, seed=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(params, cfg, scheme, seed))


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig, FeaturizationScheme, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return checkpoint_from_json(fh.read())
