"""Explanation quality measures: fidelity, contrastivity, sparsity.

Masks are derived from jointly normalized class heatmaps by a strict
threshold. Contrastivity is the Hamming distance between the two class
masks over their union; sparsity is the fraction of nodes outside the
union; fidelity is the accuracy drop after occluding salient nodes,
macro-averaged over true classes.

metric_suite computes every measure in one loop over the molecules, with
one forward and one explainers.MoleculeExplanations per molecule, and at
most one stacked forward over the molecule's occlusions. Its pairs are in
class order, so fidelity occludes masks[predicted] of the pair that
contrastivity and sparsity read; methods whose masks coincide share one
occluded copy. fidelity is metric_suite's fidelity of one method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcnx.explainers import (
    Heatmap,
    MoleculeExplanations,
    explain_pair,
    positive_layer_weights,
)
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


def _fidelity(runs_by_label: dict[int, list[tuple[bool, bool]]]) -> float:
    """Macro-averaged accuracy drop from per-label (correct before, after) runs."""
    drops = []
    for label in sorted(runs_by_label):
        runs = runs_by_label[label]
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
    macro-averaged over the true classes present in the dataset: the
    fidelity of metric_suite run on this one method."""
    return metric_suite(params, dataset, [method], threshold)[0].fidelity


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
    """Per-method lists in dataset order from one loop over the molecules;
    population standard deviations; degenerate (empty-union) molecules are
    excluded from the contrastivity mean but still count toward sparsity.
    Fidelity reads the same masks.

    W+ for excitation backprop is built once, for all molecules. Per
    molecule, each distinct non-empty predicted-class mask is occluded
    once (model.occlude), and one forward runs all K occluded feature
    matrices as a leading axis; its probabilities can differ from K lone
    forwards in the last bit."""
    methods = list(methods)
    if not dataset:
        raise ValueError("empty dataset")
    contrastivities = {method: [] for method in methods}
    sparsities = {method: [] for method in methods}
    n_degenerate = dict.fromkeys(methods, 0)
    runs = {method: {} for method in methods}  # label -> [(correct before, after)]
    positive_weights = positive_layer_weights(params)
    for graph, label in dataset:
        source = MoleculeExplanations(graph, params, positive_weights=positive_weights)
        predicted = int(np.argmax(source.trace.probabilities))
        distinct, key_of = {}, {}  # mask bytes -> mask; method -> its mask's bytes
        for method in methods:
            m0, m1 = masks = [binarize(h, threshold) for h in explain_pair(source, method)]
            if not (m0.any() or m1.any()):
                n_degenerate[method] += 1
            else:
                contrastivities[method].append(contrastivity(m0, m1))
            sparsities[method].append(sparsity(m0, m1, graph.n_nodes))
            key_of[method] = key = masks[predicted].tobytes()
            distinct.setdefault(key, masks[predicted])
        after = dict.fromkeys(distinct, predicted)
        occluded = [key for key, mask in distinct.items() if mask.any()]
        if occluded:
            features = np.stack([occlude(graph, distinct[key]).node_features for key in occluded])
            probabilities = forward(graph, params, features).probabilities
            after.update(zip(occluded, np.argmax(probabilities, axis=-1).tolist()))
        for method in methods:
            runs[method].setdefault(label, []).append(
                (predicted == label, after[key_of[method]] == label)
            )
    reports = []
    for method in methods:
        scores = contrastivities[method]
        reports.append(
            MetricReport(
                method=method,
                fidelity=_fidelity(runs[method]),
                contrastivity_mean=float(np.mean(scores)) if scores else 0.0,
                contrastivity_std=float(np.std(scores)) if scores else 0.0,
                sparsity_mean=float(np.mean(sparsities[method])),
                sparsity_std=float(np.std(sparsities[method])),
                n_molecules=len(dataset),
                n_degenerate=n_degenerate[method],
            )
        )
    return reports
