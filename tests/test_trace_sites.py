"""Every name the benchmark tracer wraps must still exist.

With ``--trace 1``, perfbench/spans.py swaps a wrapper in at each import
site listed in its SITES table, plus ``fpblock.cli.model_by_name``, and
refuses to start if one of those names is gone. This test catches such a
rename or deletion without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

NAMES = [(target, attr) for target, attr, _, _ in spans.SITES]
NAMES.append(("fpblock.cli", "model_by_name"))


@pytest.mark.parametrize(
    "target, attr", NAMES, ids=[f"{target}.{attr}" for target, attr in NAMES]
)
def test_traced_name_resolves(target, attr):
    assert hasattr(spans._resolve(target), attr)
