"""No module of the package imports a name it does not use.

A name a module imports must be read in the module, listed in its
``__all__``, or wrapped by ``perfbench/spans.py``'s ``LAYER_FUNCTIONS``,
which patches ``(module, name)`` pairs by ``getattr`` (``srm``'s
``polar_orthogonal`` is imported for that alone). The modules are parsed,
not imported.
"""

import ast
from pathlib import Path

from test_tracer_targets import traced_pairs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "factorfit"


def dead_imports(source, module, traced=()):
    """The names ``source`` imports that it neither reads, nor lists in
    ``__all__``, nor has traced as ``(module, name)``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    kept = read | exported | {name for m, name in traced if m == module}
    return sorted(f"{module}:{line} {name}" for name, line in imported.items() if name not in kept)


def test_checker_finds_a_dead_import():
    source = (
        "import os\nimport numpy as np\nfrom .kernels import a, b, c\n"
        "__all__ = ['b']\nx = np.zeros(a)\n"
    )
    assert dead_imports(source, "m") == ["m:1 os", "m:3 c"]
    assert dead_imports(source, "m", [("m", "c"), ("other", "os")]) == ["m:1 os"]


def test_no_module_has_a_dead_import():
    pairs = traced_pairs()
    dead = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        for line in dead_imports(path.read_text(), path.stem, pairs)
    ]
    assert dead == []
