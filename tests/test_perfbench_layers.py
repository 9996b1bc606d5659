"""The benchmark's tracer wraps designforge functions by name; each name must resolve."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from designforge import designs

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict[str, tuple[str, ...]]:
    """The LAYERS table of perfbench/spans.py, read from its source, not imported."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_every_traced_layer_names_an_attribute_of_its_module():
    """A rename in designforge fails here, not only in a traced benchmark run."""
    layers = _layers()
    assert "kramer_mesner" in layers and "build_system" in layers["kramer_mesner"]
    for module_name, names in layers.items():
        module = importlib.import_module(f"designforge.{module_name}")
        for name in names:
            owner, _, member = name.partition(".")
            assert hasattr(module, owner), f"designforge.{module_name} has no {owner}"
            target = getattr(module, owner)
            if not member:
                assert callable(target), name
            elif member == "init":  # "PairSet.init" is PairSet.__post_init__
                assert callable(getattr(target, "__post_init__", None)), name
            elif owner == "verify_whist":  # one function, named per check
                assert member in designs._CHECKS, name
            else:
                assert callable(getattr(target, member, None)), name
