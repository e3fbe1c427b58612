"""Explanation quality measures: fidelity, contrastivity, sparsity.

Masks are derived from jointly normalized class heatmaps by a strict
threshold. Contrastivity is the Hamming distance between the two class
masks over their union; sparsity is the fraction of nodes outside the
union; fidelity is the accuracy drop after occluding salient nodes,
macro-averaged over true classes.

metric_suite and fidelity share one loop over molecules. Each molecule
gets one forward and one explainers.MoleculeExplanations for all methods.
Fidelity occludes the predicted-class mask of the same pair that
contrastivity and sparsity read, and methods whose masks coincide share
one occlusion forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcnx.explainers import Heatmap, MoleculeExplanations, explain_pair
from gcnx.model import ModelParams, forward, occlude

DEFAULT_THRESHOLD = 0.01


def binarize(heatmap: Heatmap, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Boolean mask of nodes whose normalized saliency exceeds the threshold."""
    return heatmap.values > threshold


def contrastivity(m0, m1) -> float:
    """100 * hamming(m0, m1) / |m0 or m1|; 0 when the union is empty."""
    m0 = np.asarray(m0, dtype=bool)
    m1 = np.asarray(m1, dtype=bool)
    if m0.shape != m1.shape:
        raise ValueError(f"mask length mismatch: {m0.shape} vs {m1.shape}")
    union = int(np.logical_or(m0, m1).sum())
    if union == 0:
        return 0.0
    return 100.0 * int(np.logical_xor(m0, m1).sum()) / union


def sparsity(m0, m1, n_nodes: int) -> float:
    """100 * (1 - |m0 or m1| / n_nodes)."""
    m0 = np.asarray(m0, dtype=bool)
    m1 = np.asarray(m1, dtype=bool)
    union = int(np.logical_or(m0, m1).sum())
    return 100.0 * (1.0 - union / n_nodes)


@dataclass
class _Outcome:
    """One method's outcome on one molecule."""

    label: int
    masks: tuple[np.ndarray, np.ndarray]  # positive-class, negative-class
    predicted: int
    predicted_after: int  # after occluding the predicted class's mask


def _explain_molecule(graph, label, params, methods, threshold) -> list[_Outcome]:
    """Masks and occlusion outcome of every method on one molecule: one
    forward, one shared explanation source, and one occlusion forward per
    distinct nonempty predicted-class mask."""
    source = MoleculeExplanations(graph, params)
    predicted = int(np.argmax(source.trace.probabilities))
    after_by_mask = {}
    outcomes = []
    for method in methods:
        h_pos, h_neg = explain_pair(source, method)
        masks = (binarize(h_pos, threshold), binarize(h_neg, threshold))
        mask = masks[0] if predicted == 1 else masks[1]
        key = mask.tobytes()
        if key not in after_by_mask:
            if mask.any():
                occluded_trace = forward(occlude(graph, mask), params)
                after_by_mask[key] = int(np.argmax(occluded_trace.probabilities))
            else:
                after_by_mask[key] = predicted
        outcomes.append(_Outcome(label, masks, predicted, after_by_mask[key]))
    return outcomes


def _outcomes(params, dataset, methods, threshold) -> list[tuple[_Outcome, ...]]:
    """The one loop over molecules; element m holds method m's outcomes in
    dataset order."""
    rows = [
        _explain_molecule(graph, label, params, methods, threshold)
        for graph, label in dataset
    ]
    return list(zip(*rows))


def _fidelity(outcomes) -> float:
    per_class: dict[int, list[tuple[bool, bool]]] = {}
    for o in outcomes:
        per_class.setdefault(o.label, []).append(
            (o.predicted == o.label, o.predicted_after == o.label)
        )
    drops = []
    for label in sorted(per_class):
        runs = per_class[label]
        acc_before = sum(1 for before, _ in runs if before) / len(runs)
        acc_after = sum(1 for _, after in runs if after) / len(runs)
        drops.append(acc_before - acc_after)
    return float(np.mean(drops))


def fidelity(
    params: ModelParams,
    dataset,
    method: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Accuracy drop from occluding nodes salient for the predicted class,
    macro-averaged over the true classes present in the dataset."""
    if not dataset:
        raise ValueError("empty dataset")
    return _fidelity(_outcomes(params, dataset, [method], threshold)[0])


@dataclass
class MetricReport:
    method: str
    fidelity: float
    contrastivity_mean: float
    contrastivity_std: float
    sparsity_mean: float
    sparsity_std: float
    n_molecules: int
    n_degenerate: int  # molecules whose mask union was empty

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "fidelity": self.fidelity,
            "contrastivity_mean": self.contrastivity_mean,
            "contrastivity_std": self.contrastivity_std,
            "sparsity_mean": self.sparsity_mean,
            "sparsity_std": self.sparsity_std,
            "n_molecules": self.n_molecules,
            "n_degenerate": self.n_degenerate,
        }


def metric_suite(
    params: ModelParams,
    dataset,
    methods,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[MetricReport]:
    """Per-method aggregation; population standard deviations; degenerate
    (empty-union) molecules are excluded from the contrastivity mean but
    still count toward sparsity. Fidelity reads the same masks."""
    methods = list(methods)
    if not dataset:
        raise ValueError("empty dataset")
    reports = []
    per_method = _outcomes(params, dataset, methods, threshold)
    for method, outcomes in zip(methods, per_method):
        contrastivities = []
        sparsities = []
        n_degenerate = 0
        for (graph, _), o in zip(dataset, outcomes):
            m0, m1 = o.masks
            if not (m0.any() or m1.any()):
                n_degenerate += 1
            else:
                contrastivities.append(contrastivity(m0, m1))
            sparsities.append(sparsity(m0, m1, graph.n_nodes))
        reports.append(
            MetricReport(
                method=method,
                fidelity=_fidelity(outcomes),
                contrastivity_mean=float(np.mean(contrastivities)) if contrastivities else 0.0,
                contrastivity_std=float(np.std(contrastivities)) if contrastivities else 0.0,
                sparsity_mean=float(np.mean(sparsities)),
                sparsity_std=float(np.std(sparsities)),
                n_molecules=len(dataset),
                n_degenerate=n_degenerate,
            )
        )
    return reports
