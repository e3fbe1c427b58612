"""Every function the benchmark's per-layer metrics name still exists.

BENCHMARK.json names per-layer metrics ``<stage>.<module>.<attr...>.<stat>``
after the public functions and methods its tracer wraps. A renamed or moved
function makes a traced run drop that metric, so this reads the file (and
never writes it) and resolves each name in the package.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

import gcnx.cli
import gcnx.datasets
import gcnx.explainers
import gcnx.metrics
import gcnx.mining
import gcnx.model

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def pinned_names() -> list[str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        stage, _, rest = name.partition(".")
        # trace.* describes the tracer itself; <stage>.cli.self_s sums all of cli
        if stage == "trace" or rest == "cli.self_s":
            continue
        names.append(name)
    return names


@pytest.mark.parametrize("name", pinned_names())
def test_pinned_name_resolves(name):
    _, module_name, *parts = name.split(".")
    module = importlib.import_module(f"gcnx.{module_name}")
    owner, target, resolved = module, None, 0
    for attr in parts:
        if attr.startswith("_") or attr not in vars(owner):
            break
        owner = target = vars(owner)[attr]
        resolved += 1
    # the tracer wraps public functions and names each after its defining module
    assert inspect.isfunction(target), f"{name}: no public function"
    assert target.__module__ == module.__name__, f"{name}: defined in {target.__module__}"
    stat = parts[resolved:]
    assert stat, f"{name}: no statistic after the function"
    if len(stat) == 2 and stat[1] == "s":
        # per-method time: the tracer reads the function's `method` argument
        assert "method" in inspect.signature(target).parameters
        assert stat[0] in gcnx.explainers.METHODS


@pytest.mark.parametrize(
    "module, attr, home",
    [
        (gcnx.explainers, "forward", gcnx.model),
        (gcnx.metrics, "forward", gcnx.model),
        (gcnx.cli, "forward", gcnx.model),
        (gcnx.datasets, "molecule_contains", gcnx.mining),
    ],
)
def test_imported_bindings_are_home_functions(module, attr, home):
    assert getattr(module, attr) is getattr(home, attr)
