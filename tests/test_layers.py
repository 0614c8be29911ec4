import ast
from pathlib import Path

import pdfp

# The package's modules from the bottom up: each may import only those before it.
LAYERS = ("linops", "prox", "schedules", "solvers", "diagnostics", "tomo", "cli")
PACKAGE = Path(pdfp.__file__).parent


def package_imports(path):
    """The modules of the package that the file at ``path`` imports, wherever it imports them."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from . import a" names modules; "from .a import b" names one
            found.update([a.name for a in node.names] if node.module is None else [node.module])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pdfp."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("pdfp."))
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


def test_each_module_imports_only_the_layers_below_it():
    for k, name in enumerate(LAYERS):
        above = package_imports(PACKAGE / f"{name}.py") - set(LAYERS[:k])
        assert not above, f"{name} imports {sorted(above)}, which are not below it"
