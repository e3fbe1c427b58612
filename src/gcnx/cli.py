"""Command-line pipeline: train, explain, metrics, mine.

Every artifact embeds the tool version, a hash of the effective
configuration, and the seed; payloads carry no timestamps, so identical
configurations produce byte-identical outputs.

explain, metrics and mine each make one pass over the molecules and build
one explainers.MoleculeExplanations per molecule on the node features that
parsing built; explain, and metrics when it computes eb or ceb, build the
excitation weights W+ once for the checkpoint and hand them to every
source. explain writes each molecule's records, and with --render its
depictions, before it moves to the next. It also writes the exact float64 values of every pair it
computes, and each molecule's predicted class, to a heatmap store in its
--out-dir (heatmap_store.f64 and its index heatmap_store.json, see
explainers.HeatmapStoreWriter). metrics and mine, run with the same
--out-dir, score those values and build no MoleculeExplanations when the
store's key matches their checkpoint and molecules and it holds their
methods; otherwise they compute the heatmaps as above. Either way their
artifacts have the same bytes, and their stdout says which it was and
why. With --render explain first lays out every molecule in one
render.layout_molecules call, and then writes two files per molecule:
render/<molecule_id>.svg, one sheet with a row per requested (method,
layer) and a column per class, and render/<molecule_id>.dot, a cluster
per (method, layer). Epochs or widths below 1, a learning rate
that is not finite and positive, a --methods value with no name or with an
unknown or repeated one, a --layers value with no integer or with a
repeated one, a negative --seed, --top-k or --min-occurrence, a --tau or
--fidelity-threshold that is not finite, a synth: motif that does not
parse, a synth: corpus of 0 molecules, a checkpoint that is not a JSON
object, whose arrays, shapes or class count disagree, whose class count
is not 2, whose weights are not all finite, whose featurization or input
width is not the fixed one or whose config cannot be read and, with
--render, a molecule id that is empty or not a single file-name
component are usage errors (exit 2),
raised before any artifact is written. Training that diverges to a
non-finite loss exits 1 and writes no checkpoint.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

import gcnx
from gcnx.datasets import DataError, LabeledSet, load_csv, split, synth_motif_set
from gcnx.explainers import (
    METHODS,
    STORE_INDEX,
    HeatmapStoreWriter,
    MoleculeExplanations,
    StoredHeatmaps,
    StoreMismatch,
    explain_pair,
    heatmap_records,
    load_heatmap_store,
    molecule_pairs,
    positive_layer_weights,
)
from gcnx.metrics import metric_suite
from gcnx.mining import mine
from gcnx.model import (
    ConfigurationError,
    TrainConfig,
    TrainingError,
    evaluate,
    forward,  # noqa: F401  (unused here; bench/selftest.py checks the tracer wraps this binding)
    load_checkpoint,
    save_checkpoint,
    train,
)
from gcnx.render import layout_molecules, molecule_dot, molecule_svg

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def artifact_header(config: dict) -> dict:
    return {
        "tool_version": gcnx.__version__,
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
    }


def csv_header_line(config: dict) -> str:
    header = artifact_header(config)
    return (
        f"# gcnx {header['tool_version']} config={header['config_hash']} "
        f"seed={header['seed']}"
    )


def load_data(args) -> LabeledSet:
    """--data accepts a CSV path or synth:<motif>:<n> for a generated set."""
    spec = args.data
    if spec.startswith("synth:"):
        parts = spec.split(":")
        if len(parts) != 3 or not parts[2].isdigit():
            raise DataError(f"synthetic data spec must be synth:<motif>:<n>, got {spec!r}")
        return synth_motif_set(int(parts[2]), parts[1], seed=args.seed)
    return load_csv(
        spec,
        smiles_column=args.smiles_column,
        label_column=args.task_column,
        id_column=args.id_column,
    )


def effective_config(args, command: str) -> dict:
    skip = {"func", "out_dir"}
    config = {
        key: value for key, value in sorted(vars(args).items()) if key not in skip
    }
    config["command"] = command
    return config


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- train


def cmd_train(args) -> int:
    config = effective_config(args, "train")
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        layer_sizes=tuple(args.layers),
        seed=args.seed,
        class_weighting=not args.no_class_weighting,
    )
    dataset = load_data(args)
    train_set, val_set, test_set = split(dataset, args.seed)
    result = train(
        train_set.graph_pairs(),
        cfg,
        validation=val_set.graph_pairs(),
    )
    test_metrics = evaluate(result.params, test_set.graph_pairs())

    os.makedirs(args.out_dir, exist_ok=True)
    checkpoint_path = os.path.join(args.out_dir, "checkpoint.json")
    save_checkpoint(checkpoint_path, result.params, cfg)
    log_payload = {
        "header": artifact_header(config),
        "provenance": dataset.provenance,
        "skipped_rows": dataset.skipped,
        "class_counts": {
            "positives": dataset.class_counts[0],
            "negatives": dataset.class_counts[1],
        },
        "label_census": list(dataset.label_census) if dataset.label_census else None,
        "split_note": "random stratified split; scaffold split not implemented",
        "sizes": {
            "train": len(train_set),
            "validation": len(val_set),
            "test": len(test_set),
        },
        "best_epoch": result.best_epoch,
        "history": result.history,
        "test_metrics": test_metrics,
    }
    write_json(os.path.join(args.out_dir, "train_log.json"), log_payload)
    print(f"checkpoint written to {checkpoint_path}")
    print(
        f"final: test accuracy {test_metrics['accuracy']:.4f}"
        + (
            f", roc_auc {test_metrics['roc_auc']:.4f}"
            if test_metrics["roc_auc"] is not None
            else ""
        )
    )
    return EXIT_OK


# -------------------------------------------------------------- explain


def _comma_integers(raw: str) -> list[int]:
    """The integers of a --layers value such as 16,32,64; blank items are
    ignored, and a value that holds no integer is a usage error."""
    try:
        values = [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 16,32,64, got {raw!r}"
        )
    return values


def _nonnegative_int(raw: str) -> int:
    """An integer option that must not be negative."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {raw!r}")
    return value


def _finite_float(raw: str) -> float:
    """A number option that must be finite: nan and inf are refused."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _parse_layers(raw: str | None) -> list[int] | None:
    """--layers of explain as distinct integers, or None when not given."""
    if raw is None:
        return None
    try:
        layers = _comma_integers(raw)
    except argparse.ArgumentTypeError as err:
        raise ConfigurationError(f"--layers: {err}")
    repeated = sorted({layer for layer in layers if layers.count(layer) > 1})
    if repeated:
        raise ConfigurationError(f"layer(s) {', '.join(map(str, repeated))} given more than once")
    return layers


def _parse_methods(raw: str) -> list[str]:
    """--methods names: METHODS plus the diagnostic null explainer."""
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("no methods given")
    unknown = [m for m in methods if m not in METHODS + ("null",)]
    if unknown:
        raise ConfigurationError(
            f"unknown method(s) {', '.join(unknown)}; choose from {', '.join(METHODS)} or null"
        )
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigurationError(f"method(s) {', '.join(repeated)} given more than once")
    return methods


def _check_render_id(mol_id: str) -> None:
    """--render names files after molecule ids, so each id must be a single
    file-name component."""
    if mol_id in ("", ".", "..") or any(c in mol_id for c in "/\\\0"):
        raise DataError(
            f"molecule id {mol_id!r} cannot name a render file: it must not "
            "contain '/', '\\' or NUL, nor be empty, '.' or '..'"
        )


def cmd_explain(args) -> int:
    config = effective_config(args, "explain")
    methods = _parse_methods(args.methods)
    layers = _parse_layers(args.layers_list)
    params, _, _ = load_checkpoint(args.checkpoint)
    layers = [params.n_layers] if layers is None else layers
    for layer in layers:
        if not 1 <= layer <= params.n_layers:
            raise ConfigurationError(f"layer {layer} outside 1..{params.n_layers}")
    dataset = load_data(args)
    if args.render:
        for mol_id, _, _ in dataset.entries:
            _check_render_id(mol_id)
    render_dir = os.path.join(args.out_dir, "render")
    os.makedirs(render_dir if args.render else args.out_dir, exist_ok=True)
    records_path = os.path.join(args.out_dir, "heatmaps.jsonl")

    if args.render:
        layouts = layout_molecules([m for _, m, _ in dataset.entries], seed=args.seed)

    requested = [
        (method, layer)
        for method in methods
        for layer in (layers if method == "grad_cam" else [None])
    ]
    labels = [method + (f"-l{layer}" if layer is not None else "") for method, layer in requested]
    positive_weights = positive_layer_weights(params)
    n_records = n_render_files = 0
    with (
        open(records_path, "w", encoding="utf-8") as fh,
        HeatmapStoreWriter(args.out_dir, params, dataset.entries, requested) as store,
    ):
        fh.write(json.dumps({"header": artifact_header(config)}) + "\n")
        for index, (mol_id, molecule, _) in enumerate(dataset.entries):
            # every pair of the molecule shares this source's gradients and EB passes
            source = MoleculeExplanations(
                molecule.graph, params, positive_weights=positive_weights
            )
            pairs = [explain_pair(source, method, layer) for method, layer in requested]
            fh.write(heatmap_records(mol_id, molecule.source_string, pairs))
            n_records += 2 * len(pairs)
            store.add(int(np.argmax(source.trace.probabilities)), pairs)
            if args.render:
                panels = [
                    (label, {h.class_id: h.values for h in pair})
                    for label, pair in zip(labels, pairs)
                ]
                stem = os.path.join(render_dir, mol_id)
                with open(stem + ".svg", "w", encoding="utf-8") as out:
                    out.write(molecule_svg(molecule, panels, layouts[index], title=mol_id))
                with open(stem + ".dot", "w", encoding="utf-8") as out:
                    out.write(molecule_dot(molecule, panels))
                n_render_files += 2

    rendered = f" and {n_render_files} render files to {render_dir}" if args.render else ""
    print(f"wrote {n_records} heatmap records to {records_path}{rendered}")
    return EXIT_OK


# -------------------------------------------------------------- metrics


def _stored_heatmaps(
    out_dir: str, params, dataset: LabeledSet, methods
) -> tuple[StoredHeatmaps | None, str]:
    """explain's heatmap store in out_dir when it serves this model,
    these molecules and methods, else None; and the stdout line that says
    which heatmaps the stage scored, and why it computed them."""
    try:
        stored = load_heatmap_store(out_dir, params, dataset.entries, methods)
    except StoreMismatch as err:
        return None, f"computed the heatmaps of {len(dataset)} molecules: {err}"
    index_path = os.path.join(out_dir, STORE_INDEX)
    return stored, f"scored the stored heatmaps of {len(dataset)} molecules from {index_path}"


def cmd_metrics(args) -> int:
    config = effective_config(args, "metrics")
    methods = _parse_methods(args.methods)
    params, _, _ = load_checkpoint(args.checkpoint)
    dataset = load_data(args)
    stored, source_line = _stored_heatmaps(args.out_dir, params, dataset, methods)
    reports = metric_suite(
        params, dataset.graph_pairs(), methods, threshold=args.fidelity_threshold, stored=stored
    )

    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, "metrics.json")
    write_json(
        json_path,
        {
            "header": artifact_header(config),
            "reports": [report.to_dict() for report in reports],
        },
    )
    csv_path = os.path.join(args.out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_header_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["method", "fidelity", "contrastivity", "sparsity"])
        for report in reports:
            writer.writerow(
                [
                    report.method,
                    f"{report.fidelity:.4f}",
                    f"{report.contrastivity_mean:.2f}±{report.contrastivity_std:.2f}",
                    f"{report.sparsity_mean:.2f}±{report.sparsity_std:.2f}",
                ]
            )
    print(source_line)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# ----------------------------------------------------------------- mine


def cmd_mine(args) -> int:
    config = effective_config(args, "mine")
    params, _, _ = load_checkpoint(args.checkpoint)
    dataset = load_data(args)
    stored, source_line = _stored_heatmaps(args.out_dir, params, dataset, ["grad_cam"])

    predictions = {}
    heatmaps = {}
    graphs = [molecule.graph for _, molecule, _ in dataset.entries]
    sources = molecule_pairs(params, graphs, ["grad_cam"], stored)
    for (mol_id, _, _), (predicted, (pair,)) in zip(dataset.entries, sources):
        predictions[mol_id] = predicted
        heatmaps[mol_id] = pair[predicted]

    counts: dict[str, int] = {}
    records = mine(
        dataset.entries,
        heatmaps,
        predictions=predictions,
        tau=args.tau,
        min_occurrence=args.min_occurrence,
        top_k=args.top_k,
        true_positives_only=not args.all_samples,
        stats=counts,
    )
    rows = [record.to_dict() for record in records]
    average_r_p = float(np.mean([row["r_p"] for row in rows])) if rows else None

    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, "mining.json")
    write_json(
        json_path,
        {
            "header": artifact_header(config),
            "base_method": "grad_cam",
            "records": rows,
            "average_r_p": average_r_p,
        },
    )
    csv_path = os.path.join(args.out_dir, "mining.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_header_line(config) + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "substructure", "canonical_key", "n_explained", "n_pos", "n_neg", "r_e", "r_p"]
        )
        for rank, row in enumerate(rows, start=1):
            writer.writerow(
                [
                    rank,
                    row["substructure"],
                    row["canonical_key"],
                    row["n_explained"],
                    row["n_pos"],
                    row["n_neg"],
                    f"{row['r_e']:.4f}",
                    f"{row['r_p']:.4f}",
                ]
            )
        if average_r_p is not None:
            writer.writerow(["", "average_r_p", "", "", "", "", "", f"{average_r_p:.4f}"])
    print(source_line)
    print(
        f"wrote {csv_path} and {json_path} ({len(rows)} substructures; "
        f"{counts['candidates']} candidates, {counts['hosts']} distinct hosts, "
        f"{counts['decisions']} containment decisions)"
    )
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV path or synth:<motif>:<n>")
    parser.add_argument("--smiles-column", default="smiles")
    parser.add_argument("--task-column", default="label", help="label column name")
    parser.add_argument("--id-column", default=None)
    parser.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="nonnegative seed of training, the data split, synth: corpora and "
        "render layouts (default 0)",
    )
    parser.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcnx",
        description="Train molecular GCN classifiers, explain them per atom, "
        "score the explanations, and mine salient substructures.",
    )
    parser.add_argument("--version", action="version", version=gcnx.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a classifier and write a checkpoint")
    _add_common(p_train)
    p_train.add_argument("--epochs", type=int, default=100)
    p_train.add_argument("--lr", type=float, default=0.001)
    p_train.add_argument(
        "--layers",
        type=_comma_integers,
        default=[128, 256, 512],
        help="comma-separated convolution widths",
    )
    p_train.add_argument("--no-class-weighting", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_explain = sub.add_parser("explain", help="emit per-atom heatmap records")
    _add_common(p_explain)
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--methods", default=",".join(METHODS))
    p_explain.add_argument(
        "--layers",
        dest="layers_list",
        default=None,
        help="comma-separated grad_cam layers (default: final layer)",
    )
    p_explain.add_argument(
        "--render",
        action="store_true",
        help="write render/<molecule_id>.svg, one panel per method, layer and class, "
        "and a .dot with one cluster per method and layer",
    )
    p_explain.set_defaults(func=cmd_explain)

    p_metrics = sub.add_parser("metrics", help="fidelity/contrastivity/sparsity table")
    _add_common(p_metrics)
    p_metrics.add_argument("--checkpoint", required=True)
    p_metrics.add_argument(
        "--methods", default="gradient,grad_cam,grad_cam_avg,eb,ceb"
    )
    p_metrics.add_argument(
        "--fidelity-threshold",
        type=_finite_float,
        default=0.01,
        help="finite normalized heatmap value an atom must exceed to be in a "
        "method's mask (default 0.01)",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_mine = sub.add_parser("mine", help="rank salient substructures")
    _add_common(p_mine)
    p_mine.add_argument("--checkpoint", required=True)
    p_mine.add_argument(
        "--tau",
        type=_finite_float,
        default=0.0,
        help="finite normalized grad_cam value an atom must exceed to be "
        "activated; -1 activates every atom (default 0)",
    )
    p_mine.add_argument(
        "--min-occurrence",
        type=_nonnegative_int,
        default=10,
        help="nonnegative count that a substructure's molecules (positive plus "
        "negative) must exceed for it to be reported (default 10)",
    )
    p_mine.add_argument("--top-k", type=_nonnegative_int, default=10)
    p_mine.add_argument(
        "--all-samples",
        action="store_true",
        help="mine every explained molecule, not only true positives",
    )
    p_mine.set_defaults(func=cmd_mine)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ConfigurationError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
