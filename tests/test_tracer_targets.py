"""Every function and field the benchmark's tracer touches still exists.

``perfbench/spans.py`` wraps each ``(module, attribute)`` pair of its
``LAYER_FUNCTIONS``, plus ``trf.solve``, by ``getattr``, and rebuilds each
solved problem with ``dataclasses.replace``; a refactor that drops or
renames one breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` or a ``TypeError``. The file is parsed, not imported,
so nothing is written under ``perfbench/``.

Delete this test together with ``LAYER_FUNCTIONS`` once the library records
its own phases (ROADMAP item 1) and the tracer stops patching attributes.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from factorfit import trf

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_pairs():
    tree = ast.parse(SPANS.read_text())
    (listing,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets)
    ]
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in listing.elts]
    return pairs + [("trf", "solve")]


def test_every_traced_function_resolves():
    pairs = traced_pairs()
    assert len(pairs) > 10
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(f"factorfit.{module}"), attr, None))
    ]
    assert missing == []


def test_every_replaced_field_exists():
    """The keywords ``spans.py`` passes to ``dataclasses.replace`` are all
    fields of ``trf.LeastSquaresProblem``, the only dataclass it rebuilds."""
    keywords = [
        keyword.arg
        for node in ast.walk(ast.parse(SPANS.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and getattr(node.func.value, "id", None) == "dataclasses"
        for keyword in node.keywords
    ]
    fields = {f.name for f in dataclasses.fields(trf.LeastSquaresProblem)}
    assert keywords and set(keywords) <= fields, set(keywords) - fields
