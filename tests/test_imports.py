"""No module of the package imports a name it does not use, and none
defines one that nothing reads.

A name a module imports must be read in the module, listed in its
``__all__``, or wrapped by ``perfbench/spans.py``'s ``LAYER_FUNCTIONS``,
which patches ``(module, name)`` pairs by ``getattr`` (``srm``'s
``polar_orthogonal`` is imported for that alone). A function, class or
constant a module defines at its top level must be read somewhere in the
package (by name, as an attribute or through an import) or be listed in
its module's ``__all__``. The modules are parsed, not imported.
"""

import ast
from pathlib import Path

from test_tracer_targets import traced_pairs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "factorfit"


def exported_names(tree):
    """The names a parsed module lists in its ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return exported


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
    kept = read | exported_names(tree) | {name for m, name in traced if m == module}
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


def dead_definitions(sources):
    """The top-level functions, classes and constants of ``sources``
    (module name -> source) that no module reads and whose module does not
    list them in ``__all__``, as ``module:line name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    dead = []
    for module, tree in trees.items():
        kept = read | exported_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            else:
                continue
            dead += [
                f"{module}:{node.lineno} {name}"
                for name in names
                if name not in kept and not name.startswith("__")
            ]
    return sorted(dead)


def test_checker_finds_a_dead_definition():
    sources = {
        "a": "__all__ = ['f']\nLIMIT, SPARE = 4, 5\ndef f():\n    return LIMIT\n"
             "def g():\n    pass\nclass C:\n    pass\n",
        "b": "from .a import g\nfrom . import a\nx = a.C\n",
    }
    assert dead_definitions(sources) == ["a:2 SPARE", "b:3 x"]


def test_no_module_defines_a_dead_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources) == []
