import base64
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from _oracles import heatmap_record_lines
from conftest import bench_module, drop_last_value
from gcnx.cli import main
from gcnx.datasets import synth_motif_set
from gcnx.explainers import MoleculeExplanations, explain_pair
from gcnx.model import load_checkpoint


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("train")
    code = main(
        [
            "train",
            "--data", "synth:NO:60",
            "--epochs", "10",
            "--layers", "8,16",
            "--seed", "3",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return out_dir


def src_pythonpath():
    """PYTHONPATH for a `python -m gcnx` subprocess: this checkout's src first."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def sheet_panel_labels(path):
    """The label of each panel of an SVG sheet, in sheet order."""
    svg = "{http://www.w3.org/2000/svg}"
    root = ET.parse(path).getroot()
    return [g.find(f"{svg}text").text for g in root.findall(f"{svg}g")]


class TestTrain:
    def test_checkpoint_and_log_written(self, trained, capsys):
        assert (trained / "checkpoint.json").exists()
        log = json.loads((trained / "train_log.json").read_text())
        assert "test_metrics" in log
        assert "accuracy" in log["test_metrics"]
        assert log["header"]["tool_version"]
        assert log["header"]["seed"] == 3

    def test_rerun_identical_checkpoint_bytes(self, trained, tmp_path):
        code = main(
            [
                "train",
                "--data", "synth:NO:60",
                "--epochs", "10",
                "--layers", "8,16",
                "--seed", "3",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "checkpoint.json").read_bytes() == (
            trained / "checkpoint.json"
        ).read_bytes()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--data", str(tmp_path / "absent.csv"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--layers", "16,0"], "layer widths must be positive"),
            (["--layers", "16,-3"], "layer widths must be positive"),
            (["--epochs", "-2"], "epochs must be positive"),
            (["--layers", ","], "expected comma-separated integers"),
            (["--lr", "nan"], "learning rate must be finite and positive"),
            (["--lr", "inf"], "learning rate must be finite and positive"),
            (["--seed", "-1"], "argument --seed: expected a nonnegative integer"),
            # a later --data replaces synth:NO:20
            (["--data", "synth:Q:40"], "motif 'Q' does not parse"),
        ],
    )
    def test_unusable_config_exit_2_before_writing(self, tmp_path, capsys, option, message):
        out = tmp_path / "out"
        try:
            code = main(["train", "--data", "synth:NO:20", *option, "--out-dir", str(out)])
        except SystemExit as exc:  # argparse rejects --layers and --seed values itself
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_training_exit_1_without_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--data", "synth:NO:20",
                "--layers", "8",
                "--epochs", "2",
                "--lr", "1e308",
                "--out-dir", str(out),
            ]
        )
        assert code == 1
        assert "mean training loss is nan" in capsys.readouterr().err
        assert not out.exists()


    def test_diverging_training_stderr_is_the_error_alone(self, tmp_path):
        # a subprocess, so stderr holds any NumPy warning as a user sees it
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "gcnx", "train",
                "--data", "synth:NO:20",
                "--layers", "8",
                "--epochs", "2",
                "--lr", "1e308",
                "--out-dir", str(out),
            ],
            env=dict(os.environ, PYTHONPATH=src_pythonpath()),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: epoch 0: mean training loss is nan; "
            "training diverged, try a smaller learning rate\n"
        )
        assert not out.exists()


class TestExplain:
    def test_record_count_one_molecule(self, trained, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("smiles,label\nCCO,1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", str(data),
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "gradient,cam",
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = read_jsonl(out / "heatmaps.jsonl")
        records = lines[1:]  # first line is the artifact header
        assert len(records) == 4  # 1 molecule x 2 methods x 2 classes
        assert {r["method"] for r in records} == {"gradient", "cam"}
        assert {r["class"] for r in records} == {0, 1}

    def test_cam_equals_final_grad_cam_records(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:8",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "cam,grad_cam",
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out / "heatmaps.jsonl")[1:]
        by_key = {}
        for r in records:
            by_key[(r["molecule_id"], r["method"], r["class"])] = r["values"]
        for (mol_id, method, class_id), values in by_key.items():
            if method == "cam":
                assert values == by_key[(mol_id, "grad_cam", class_id)]

    def test_records_equal_per_record_json_dumps(self, tmp_path):
        # every method and Grad-CAM layer, against one json.dumps per record
        # of a pair computed on its own source
        checkpoint = train_checkpoint(tmp_path / "train", "16,32,64", "3")
        methods = "gradient,cam,grad_cam,grad_cam_avg,eb,ceb,null"
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:40",
                "--checkpoint", str(checkpoint),
                "--methods", methods,
                "--layers", "1,2,3",
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        params, _, _ = load_checkpoint(str(checkpoint))
        requested = [
            (method, layer)
            for method in methods.split(",")
            for layer in ((1, 2, 3) if method == "grad_cam" else (None,))
        ]
        expected = "".join(
            heatmap_record_lines(
                mol_id,
                molecule.source_string,
                [
                    explain_pair(MoleculeExplanations(molecule.graph, params), method, layer)
                    for method, layer in requested
                ],
            )
            for mol_id, molecule, _ in synth_motif_set(40, "NO", seed=3).entries
        )
        lines = (out / "heatmaps.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 1 + 40 * 2 * len(requested)
        assert "".join(lines[1:]) == expected

    def test_cam_and_grad_cam_dot_clusters_match_on_symmetric_molecules(self, tmp_path, monkeypatch):
        # the benchmark's symmetric-mine train and explain stages; symmetric
        # atoms are where last-bit differences between two CAM computations
        # showed up as different fill colours
        workloads = bench_module("workloads")
        workload = workloads.WORKLOADS["symmetric-mine"]
        monkeypatch.chdir(tmp_path)
        rows = workload.corpus(5)
        workloads.write_corpus("corpus.csv", rows)
        stages = dict(workloads.stage_argv(workload, 5, "corpus.csv", "out"))
        assert main(stages["train"]) == 0
        assert main([*stages["explain"], "--methods", "cam,grad_cam"]) == 0
        for mol_id, _, _ in rows:
            dot = (tmp_path / "out" / "render" / f"{mol_id}.dot").read_text()
            clusters = re.findall(r"  subgraph cluster_\d+ \{\n(.*?)\n  \}\n", dot, re.S)
            assert [c.splitlines()[0] for c in clusters] == ['    label="cam";', '    label="grad_cam-l3";']
            cam, grad_cam = (re.sub(r"\bc[01]n", "n", c) for c in clusters)
            assert cam.replace('label="cam"', 'label="grad_cam-l3"') == grad_cam

    def test_render_emits_svg_and_dot(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:4",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "grad_cam,eb",
                "--seed", "3",
                "--out-dir", str(out),
                "--render",
            ]
        )
        assert code == 0
        mol_ids = {r["molecule_id"] for r in read_jsonl(out / "heatmaps.jsonl")[1:]}
        assert len(mol_ids) == 4
        # one SVG sheet and one DOT file per molecule
        assert sorted(os.listdir(out / "render")) == sorted(
            f"{mol_id}{ext}" for mol_id in mol_ids for ext in (".svg", ".dot")
        )
        for mol_id in mol_ids:
            assert sheet_panel_labels(out / "render" / f"{mol_id}.svg") == [
                f"{label} class {c}" for label in ("grad_cam-l2", "eb") for c in (0, 1)
            ]
            dot = (out / "render" / f"{mol_id}.dot").read_text()
            assert dot.count("subgraph cluster_") == 2

    def test_render_file_count_reported(self, trained, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:5",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "gradient,grad_cam,ceb",
                "--layers", "1,2",
                "--seed", "3",
                "--out-dir", str(out),
                "--render",
            ]
        )
        assert code == 0
        # 5 molecules x (svg, dot); each sheet has a row per
        # (gradient, grad_cam-l1, grad_cam-l2, ceb) and a column per class
        n_files = 2 * 5
        rendered = sorted(os.listdir(out / "render"))
        assert len(rendered) == n_files
        for name in rendered:
            if name.endswith(".svg"):
                assert sheet_panel_labels(out / "render" / name) == [
                    f"{label} class {c}"
                    for label in ("gradient", "grad_cam-l1", "grad_cam-l2", "ceb")
                    for c in (0, 1)
                ]
        # the whole line, so that no timing can slip into it
        assert capsys.readouterr().out.strip().splitlines()[-1] == (
            f"wrote 40 heatmap records to {out / 'heatmaps.jsonl'} "
            f"and {n_files} render files to {out / 'render'}"
        )


    @pytest.mark.parametrize("mol_id", ["sub/x", "a\\b", "../x", ".", "..", "x\0y", ""])
    def test_unsafe_render_id_rejected_before_writing(self, trained, tmp_path, capsys, mol_id):
        data = tmp_path / "ids.csv"
        data.write_text(f"id,smiles,label\nok,CCO,1\n{mol_id},CCN,0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", str(data),
                "--id-column", "id",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "grad_cam",
                "--out-dir", str(out),
                "--render",
            ]
        )
        assert code == 2
        assert "render file" in capsys.readouterr().err
        assert not out.exists()

    def test_unsafe_id_allowed_without_render(self, trained, tmp_path):
        data = tmp_path / "ids.csv"
        data.write_text("id,smiles,label\nsub/x,CCO,1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", str(data),
                "--id-column", "id",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "grad_cam",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert read_jsonl(out / "heatmaps.jsonl")[1]["molecule_id"] == "sub/x"

    def test_render_title_escaped(self, trained, tmp_path):
        data = tmp_path / "ids.csv"
        data.write_text('id,smiles,label\n"a&b<c",CCO,1\n', encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", str(data),
                "--id-column", "id",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "grad_cam",
                "--out-dir", str(out),
                "--render",
            ]
        )
        assert code == 0
        sheet = out / "render" / "a&b<c.svg"
        assert "a&amp;b&lt;c" in sheet.read_text()
        root = ET.parse(sheet).getroot()
        title = root.find("{http://www.w3.org/2000/svg}text")
        assert title.text == "a&b<c"
        assert sheet_panel_labels(sheet) == ["grad_cam-l2 class 0", "grad_cam-l2 class 1"]

    def test_unknown_method_exit_2(self, trained, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:4",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "grad_cam,bogus",
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--methods", "cam,gradient, cam"], "method(s) cam given more than once"),
            (["--methods", "grad_cam", "--layers", "3,3"], "layer(s) 3 given more than once"),
            (["--methods", "grad_cam", "--layers", ","], "expected comma-separated integers"),
            (["--methods", "grad_cam", "--layers", ""], "expected comma-separated integers"),
            (["--methods", ""], "no methods given"),
            (["--methods", ",,"], "no methods given"),
            (["--render", "--seed", "-1"], "argument --seed: expected a nonnegative integer"),
        ],
    )
    def test_repeated_method_exit_2_before_checkpoint_read(
        self, tmp_path, capsys, options, message
    ):
        # the checkpoint does not exist: the usage error must come first
        out = tmp_path / "out"
        try:
            code = main(
                [
                    "explain",
                    "--data", "synth:NO:4",
                    "--checkpoint", str(tmp_path / "absent.json"),
                    *options,
                    "--out-dir", str(out),
                ]
            )
        except SystemExit as exc:  # argparse rejects a --seed value itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "absent.json" not in err
        assert not out.exists()

    def test_checkpoint_with_batch_size_4_exit_2(self, trained, tmp_path, capsys):
        payload = json.loads((trained / "checkpoint.json").read_text())
        payload["train_config"]["batch_size"] = 4
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        code = main(
            [
                "explain",
                "--data", "synth:NO:4",
                "--checkpoint", str(checkpoint),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda d: d.update(
                    layer_weights=[d["layer_weights"][0], drop_last_value(d["layer_weights"][1])]
                ),
                "holds 127",
            ),
            (lambda d: d.update(classifier_weights="@@not base64@@"), "cannot be decoded"),
            (lambda d: d.update(layer_shapes=[[23, 8], [16, 8]], layer_sizes=[8, 8]), "chain"),
            (lambda d: d.update(layer_sizes=[8, 32]), "layer_sizes"),
            (lambda d: d.update(n_classes=3), "n_classes"),
            (lambda d: d["featurization"].update(max_degree=4), "not the fixed featurization"),
            # the featurization record intact, the first array one row short
            (
                lambda d: d.update(
                    layer_weights=[base64.b64encode(bytes(22 * 8 * 8)).decode(), d["layer_weights"][1]],
                    layer_shapes=[[22, 8], [8, 16]],
                ),
                "input width 22 != the featurization width 23",
            ),
            (lambda d: d["train_config"].update(momentum=0.5), "unknown keys ['momentum']"),
            (lambda d: d["featurization"].update(max_degree="x"), "not the fixed featurization"),
            # same width, elements in another order
            (lambda d: d["featurization"]["element_vocab"].reverse(), "not the fixed featurization"),
        ],
    )
    def test_inconsistent_checkpoint_exit_2_before_writing(
        self, trained, tmp_path, capsys, corrupt, message
    ):
        payload = json.loads((trained / "checkpoint.json").read_text())
        assert payload["layer_shapes"] == [[23, 8], [8, 16]]
        corrupt(payload)
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:4",
                "--checkpoint", str(checkpoint),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["explain", "metrics", "mine"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda w: np.where(w == w.flat[0], np.nan, w), "holds a value that is not finite"),
            (lambda w: np.hstack([w, w[:, :1]]), "has 3 classes"),
        ],
        ids=["nan_weight", "three_classes"],
    )
    def test_unusable_classifier_exit_2_before_writing(
        self, trained, tmp_path, capsys, command, corrupt, message
    ):
        payload = json.loads((trained / "checkpoint.json").read_text())
        stored = np.frombuffer(base64.b64decode(payload["classifier_weights"]), "<f8")
        classifier = corrupt(stored.reshape(payload["classifier_shape"]))
        payload["classifier_weights"] = base64.b64encode(classifier.tobytes()).decode("ascii")
        payload["classifier_shape"] = list(classifier.shape)
        payload["n_classes"] = classifier.shape[1]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                command,
                "--data", "synth:NO:4",
                "--checkpoint", str(checkpoint),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"not json", "not valid JSON"),
            (b"[1]", "must be a JSON object"),
            (b"", "not valid JSON"),
            (b"\xff\xfe{}", "not UTF-8"),
        ],
    )
    def test_malformed_checkpoint_json_exit_2_names_file(
        self, tmp_path, capsys, content, message
    ):
        checkpoint = tmp_path / "broken-checkpoint.json"
        checkpoint.write_bytes(content)
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--data", "synth:NO:4",
                "--checkpoint", str(checkpoint),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and str(checkpoint) in err
        assert not out.exists()


class TestMetrics:
    def test_table_shape(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "metrics",
                "--data", "synth:NO:16",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# gcnx")
        assert lines[1] == "method,fidelity,contrastivity,sparsity"
        assert len(lines) == 2 + 5  # header comment, column row, 5 methods
        payload = json.loads((out / "metrics.json").read_text())
        assert len(payload["reports"]) == 5

    def test_null_explainer_zero_fidelity(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "metrics",
                "--data", "synth:NO:12",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "null",
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["reports"][0]["fidelity"] == 0.0

    def test_unknown_method_exit_2(self, trained, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "metrics",
                "--data", "synth:NO:4",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--methods", "bogus",
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, messages",
        [
            (["--methods", "cam,cam"], ["cam", "more than once"]),
            (["--methods", ""], ["no methods given"]),
            (["--fidelity-threshold", "nan"], ["argument --fidelity-threshold", "finite"]),
            (["--fidelity-threshold", "inf"], ["argument --fidelity-threshold", "finite"]),
            (["--seed", "-1"], ["argument --seed", "nonnegative"]),
        ],
    )
    def test_repeated_method_exit_2_before_checkpoint_read(
        self, tmp_path, capsys, options, messages
    ):
        # the checkpoint does not exist: the usage error must come first
        out = tmp_path / "out"
        try:
            code = main(
                [
                    "metrics",
                    "--data", "synth:NO:4",
                    "--checkpoint", str(tmp_path / "absent.json"),
                    *options,
                    "--out-dir", str(out),
                ]
            )
        except SystemExit as exc:  # argparse rejects number values itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages)
        assert "absent.json" not in err
        assert not out.exists()

    def test_same_seed_identical_reports(self, trained, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "metrics",
                    "--data", "synth:NO:12",
                    "--checkpoint", str(trained / "checkpoint.json"),
                    "--seed", "5",
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestMine:
    def test_report_columns_and_footer(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "mine",
                "--data", "synth:NO:120",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--min-occurrence", "5",
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "mining.csv").read_text().strip().splitlines()
        assert (
            lines[1]
            == "rank,substructure,canonical_key,n_explained,n_pos,n_neg,r_e,r_p"
        )
        assert "average_r_p" in lines[-1]
        payload = json.loads((out / "mining.json").read_text())
        assert payload["base_method"] == "grad_cam"
        assert payload["records"]
        for record in payload["records"]:
            assert set(record) >= {"substructure", "n_explained", "n_pos", "n_neg", "r_e", "r_p"}

    def test_min_occurrence_above_corpus_max_empty_report(self, trained, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "mine",
                "--data", "synth:NO:60",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--min-occurrence", "100000",
                "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "mining.json").read_text())
        assert payload["records"] == []
        assert payload["average_r_p"] is None


    @pytest.mark.parametrize("tau", ["-1", "0.1"])
    def test_stdout_reports_candidates_hosts_and_decisions(self, trained, tmp_path, capsys, tau):
        code = main(
            [
                "mine",
                "--data", "synth:NO:40",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--tau", tau,
                "--all-samples",
                "--min-occurrence", "2",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        match = re.search(
            r"(\d+) candidates, (\d+) distinct hosts, (\d+) containment decisions", line
        )
        assert match, line
        candidates, hosts, decisions = map(int, match.groups())
        assert candidates > 0 and 0 < hosts <= 40
        if tau == "-1":
            # every activated region is its whole molecule: no region is tested apart
            assert decisions == candidates * hosts
        else:
            assert decisions >= candidates * hosts

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--top-k", "-1"),
            ("--tau", "nan"),
            ("--tau", "inf"),
            ("--min-occurrence", "-5"),
            ("--seed", "-1"),
        ],
    )
    def test_negative_top_k_exit_2(self, tmp_path, capsys, flag, value):
        # the checkpoint does not exist: the usage error must come first
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:  # argparse rejects the value itself
            main(
                [
                    "mine",
                    "--data", "synth:NO:8",
                    "--checkpoint", str(tmp_path / "absent.json"),
                    flag, value,
                    "--out-dir", str(out),
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "absent.json" not in err
        assert not out.exists()

    def test_runs_no_backward_pass(self, trained, tmp_path, monkeypatch):
        import gcnx.explainers

        argv = [
            "mine",
            "--data", "synth:NO:40",
            "--checkpoint", str(trained / "checkpoint.json"),
            "--min-occurrence", "2",
            "--seed", "3",
        ]
        assert main([*argv, "--out-dir", str(tmp_path / "a")]) == 0

        def no_backward_pass(*args, **kwargs):
            raise AssertionError("mine ran a backward pass")

        monkeypatch.setattr(gcnx.explainers, "class_score_gradients", no_backward_pass)
        assert main([*argv, "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("mining.json", "mining.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["conjure"])
        assert exc.value.code == 2

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        data = tmp_path / "one_class.csv"
        rows = "\n".join(f"m{i},CCO,1" for i in range(12))
        data.write_text("id,smiles,label\n" + rows + "\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--data", str(data),
                "--id-column", "id",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "classes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "explain", "metrics", "mine"])
    def test_empty_synthetic_corpus_exit_2_before_writing(self, trained, tmp_path, capsys, command):
        # as a CSV with no usable rows is
        out = tmp_path / "out"
        checkpoint = [] if command == "train" else ["--checkpoint", str(trained / "checkpoint.json")]
        code = main([command, "--data", "synth:NO:0", *checkpoint, "--out-dir", str(out)])
        assert code == 2
        assert "synthetic corpus of 0 molecules" in capsys.readouterr().err
        assert not out.exists()


STORE_DATA = "synth:NO:16"
SCORED = ("metrics.json", "metrics.csv", "mining.json", "mining.csv")


def train_checkpoint(out, layers, epochs, seed="3"):
    code = main(
        [
            "train",
            "--data", "synth:NO:40",
            "--epochs", epochs,
            "--layers", layers,
            "--seed", seed,
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out / "checkpoint.json"


def explain_into(out, checkpoint, *options):
    argv = ["explain", "--data", STORE_DATA, "--checkpoint", str(checkpoint), "--seed", "3"]
    assert main([*argv, "--out-dir", str(out), *options]) == 0


def score(out, checkpoint, capsys):
    """metrics and mine on STORE_DATA in out: the bytes of their artifacts
    and the stdout lines that say where their heatmaps came from."""
    capsys.readouterr()
    common = ["--data", STORE_DATA, "--checkpoint", str(checkpoint), "--seed", "3"]
    assert main(["metrics", *common, "--out-dir", str(out)]) == 0
    mine_options = ["--min-occurrence", "2", "--all-samples"]
    assert main(["mine", *common, "--out-dir", str(out), *mine_options]) == 0
    lines = capsys.readouterr().out.splitlines()
    sources = [line for line in lines if " heatmaps of " in line]
    return {name: (out / name).read_bytes() for name in SCORED}, sources


class TestHeatmapStore:
    """explain's heatmap store: metrics and mine score its exact values when
    it matches, compute them otherwise, and write the same bytes either way."""

    @pytest.mark.parametrize(
        "layers, epochs", [("16,32,64", "3"), ("128,256,512", "1")], ids=["desk", "paper"]
    )
    def test_same_bytes_with_and_without_store(self, tmp_path, capsys, layers, epochs):
        checkpoint = train_checkpoint(tmp_path / "train", layers, epochs)
        explain_into(tmp_path / "stored", checkpoint)
        stored, stored_lines = score(tmp_path / "stored", checkpoint, capsys)
        computed, computed_lines = score(tmp_path / "fresh", checkpoint, capsys)
        assert stored == computed
        assert json.loads(stored["mining.json"])["records"]
        index = tmp_path / "stored" / "heatmap_store.json"
        assert stored_lines == [f"scored the stored heatmaps of 16 molecules from {index}"] * 2
        reason = f"no heatmap store in {tmp_path / 'fresh'}"
        assert computed_lines == [f"computed the heatmaps of 16 molecules: {reason}"] * 2

    def test_matching_store_recomputes_nothing(self, trained, tmp_path, capsys, monkeypatch):
        import gcnx.cli
        import gcnx.explainers
        import gcnx.metrics

        checkpoint = trained / "checkpoint.json"
        computed, _ = score(tmp_path / "fresh", checkpoint, capsys)
        explain_into(tmp_path / "stored", checkpoint)

        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f"{name} ran although the store matches")

            return refused

        real_forward = gcnx.metrics.forward

        def occluded_only(graph, params, features=None):
            if features is None:
                raise AssertionError("an unoccluded forward ran although the store matches")
            return real_forward(graph, params, features)

        for name in ("excitation_backprop_trace", "class_score_gradients", "forward"):
            monkeypatch.setattr(gcnx.explainers, name, refuse(name))
        for module in (gcnx.cli, gcnx.explainers):
            monkeypatch.setattr(module, "positive_layer_weights", refuse("positive_layer_weights"))
        monkeypatch.setattr(gcnx.metrics, "forward", occluded_only)
        stored, lines = score(tmp_path / "stored", checkpoint, capsys)
        assert stored == computed
        assert all(line.startswith("scored the stored heatmaps of 16") for line in lines)

    @pytest.mark.parametrize(
        "explain_options, damage, reason",
        [
            (["--checkpoint", "OTHER"], None, "the heatmap store is of another model"),
            (["--data", "synth:NO:12"], None, "the heatmap store is of other molecules"),
            (["--methods", "gradient"], None, "the heatmap store holds no grad_cam at layer 2"),
            (["--layers", "1"], None, "the heatmap store holds no grad_cam at layer 2"),
            (
                [],
                lambda out: (out / "heatmap_store.f64").write_bytes(
                    (out / "heatmap_store.f64").read_bytes()[:-8]
                ),
                "the heatmap store is unreadable",
            ),
            ([], lambda out: (out / "heatmap_store.json").unlink(), "no heatmap store in"),
        ],
        ids=[
            "another_checkpoint",
            "other_molecules",
            "gradient_only",
            "no_final_layer",
            "truncated_values",
            "missing_index",
        ],
    )
    def test_fallback_recomputes_the_same_bytes(
        self, trained, tmp_path, capsys, explain_options, damage, reason
    ):
        checkpoint = trained / "checkpoint.json"
        computed, _ = score(tmp_path / "fresh", checkpoint, capsys)
        if "OTHER" in explain_options:
            other = train_checkpoint(tmp_path / "other", "8,16", "1", seed="4")
            explain_options = ["--checkpoint", str(other)]
        out = tmp_path / "stored"
        explain_into(out, checkpoint, *explain_options)
        if damage is not None:
            damage(out)
        stored, lines = score(out, checkpoint, capsys)
        assert stored == computed
        assert len(lines) == 2
        for line in lines:
            assert line.startswith("computed the heatmaps of 16 molecules: ")
            assert reason in line

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda index: "not json",
            lambda index: "[1]",
            lambda index: json.dumps({**index, "pairs": 5}),
            lambda index: json.dumps({**index, "pairs": [["grad_cam"]]}),
            lambda index: json.dumps({**index, "predicted": index["predicted"][:-1]}),
            lambda index: json.dumps({**index, "predicted": [2] * len(index["predicted"])}),
            lambda index: json.dumps({key: index[key] for key in index if key != "model"} | {"key": "0"}),
        ],
        ids=["not_json", "list", "pairs_number", "pair_short", "predicted_short", "class_2", "no_model"],
    )
    def test_unreadable_index_recomputes(self, trained, tmp_path, capsys, corrupt):
        checkpoint = trained / "checkpoint.json"
        computed, _ = score(tmp_path / "fresh", checkpoint, capsys)
        out = tmp_path / "stored"
        explain_into(out, checkpoint)
        index_path = out / "heatmap_store.json"
        index_path.write_text(corrupt(json.loads(index_path.read_text())), encoding="utf-8")
        stored, lines = score(out, checkpoint, capsys)
        assert stored == computed
        assert all("the heatmap store is unreadable" in line for line in lines) and len(lines) == 2

    def test_interrupted_explain_leaves_no_store(self, trained, tmp_path, monkeypatch):
        import gcnx.cli

        out = tmp_path / "out"
        checkpoint = trained / "checkpoint.json"
        explain_into(out, checkpoint)
        assert (out / "heatmap_store.json").exists()
        real_explain_pair = gcnx.cli.explain_pair
        calls = []

        def failing_explain_pair(*args):
            calls.append(args)
            if len(calls) > 20:
                raise RuntimeError("interrupted")
            return real_explain_pair(*args)

        monkeypatch.setattr(gcnx.cli, "explain_pair", failing_explain_pair)
        argv = ["explain", "--data", STORE_DATA, "--checkpoint", str(checkpoint)]
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["heatmap_store.f64", "heatmaps.jsonl"]


class TestExcitationWeights:
    @pytest.mark.parametrize("command", ["explain", "metrics"])
    def test_built_once_per_run(self, trained, tmp_path, monkeypatch, command):
        import gcnx.cli
        import gcnx.explainers

        builds, passes = [], []
        real_build = gcnx.explainers.positive_layer_weights
        real_pass = gcnx.explainers.excitation_backprop_trace

        def counting_build(params):
            builds.append(real_build(params))
            return builds[-1]

        def counting_pass(trace, graph, params, positive_weights=None):
            passes.append(positive_weights)
            return real_pass(trace, graph, params, positive_weights)

        # metrics builds W+ through explainers.molecule_pairs
        for module in (gcnx.cli, gcnx.explainers):
            monkeypatch.setattr(module, "positive_layer_weights", counting_build)
        monkeypatch.setattr(gcnx.explainers, "excitation_backprop_trace", counting_pass)
        argv = [
            command,
            "--data", "synth:NO:16",
            "--checkpoint", str(trained / "checkpoint.json"),
            "--methods", "eb,ceb,grad_cam",
            "--seed", "3",
            "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert len(builds) == 1
        # one EB pass per molecule, each on the one build
        assert len(passes) == 16
        assert all(weights is builds[0] for weights in passes)


def blas_thread_outputs(tmp_path, layers, epochs, train_data):
    """heatmaps.jsonl and metrics.json bytes of explain and metrics on
    synth:NO:8, run under OpenBLAS on 1 and on 2 threads; metrics runs once
    on explain's heatmap store and once in a directory without one, where
    it computes the heatmaps itself."""
    checkpoint_dir = tmp_path / "train"
    code = main(
        [
            "train",
            "--data", train_data,
            "--epochs", epochs,
            "--layers", layers,
            "--seed", "3",
            "--out-dir", str(checkpoint_dir),
        ]
    )
    assert code == 0
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src_pythonpath())
        out = tmp_path / f"blas{threads}"
        fresh = tmp_path / f"blas{threads}-no-store"
        for command, out_dir in (("explain", out), ("metrics", out), ("metrics", fresh)):
            subprocess.run(
                [
                    sys.executable, "-m", "gcnx", command,
                    "--data", "synth:NO:8",
                    "--checkpoint", str(checkpoint_dir / "checkpoint.json"),
                    "--seed", "3",
                    "--out-dir", str(out_dir),
                ],
                env=env,
                check=True,
                capture_output=True,
            )
        assert not (fresh / "heatmap_store.json").exists()
        outputs.append(
            (
                (out / "heatmaps.jsonl").read_bytes(),
                (out / "metrics.json").read_bytes(),
                (fresh / "metrics.json").read_bytes(),
            )
        )
    return outputs


class TestBlasThreads:
    def test_outputs_do_not_depend_on_blas_thread_count(self, tmp_path):
        outputs = blas_thread_outputs(tmp_path, "16,32,64", "3", "synth:NO:40")
        assert outputs[0] == outputs[1]

    def test_paper_width_outputs_do_not_depend_on_blas_thread_count(self, tmp_path):
        # the stacked occlusion forward's K*N-row products are the largest
        # that metrics runs
        outputs = blas_thread_outputs(tmp_path, "128,256,512", "1", "synth:NO:40")
        assert outputs[0] == outputs[1]
