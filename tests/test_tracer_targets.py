"""Every function and field the benchmark's tracer touches still exists.

``perfbench/spans.py`` wraps each ``(module, attribute)`` pair of its
``LAYER_FUNCTIONS``, plus ``trf.solve``, by ``getattr``, and rebuilds each
solved problem with ``dataclasses.replace``; a refactor that drops or
renames one breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` or a ``TypeError``. The benchmark also builds its
communicators itself, so every ``collectives.<name>(...)`` call in
``perfbench/*.py`` must still bind to the library's signature. The files
are parsed, not imported, so nothing is written under ``perfbench/``.

Delete this test together with ``LAYER_FUNCTIONS`` once the library records
its own phases (ROADMAP item 1) and the tracer stops patching attributes.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from factorfit import collectives, trf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_every_collectives_call_binds():
    """``collectives.<name>(...)`` calls in ``perfbench/*.py`` bind to the
    library's signatures (``SerialCommunicator()`` with no argument,
    ``SocketCommunicator(rank, size, coord, timeout=...)``)."""
    calls = [
        (path.name, node)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "collectives"
    ]
    assert {node.func.attr for _, node in calls} >= {"SerialCommunicator", "SocketCommunicator"}
    unbound = []
    for name, node in calls:
        signature = inspect.signature(getattr(collectives, node.func.attr))
        try:
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{name}:{node.lineno} collectives.{node.func.attr}: {exc}")
    assert unbound == []
