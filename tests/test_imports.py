"""Every import in the package and in the tests is used."""

import ast
import pathlib

import depolar

PACKAGE = pathlib.Path(depolar.__file__).parent
TESTS = pathlib.Path(__file__).parent


def unused_imports(source):
    """Names bound by an import in source and never read there.  Names
    listed in the module's __all__ count as read: they are re-exports."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from x import (y, z)\nfrom w import v\n"
              "__all__ = ['v']\nnp.zeros(z)\n")
    assert unused_imports(source) == [(1, "os"), (3, "a"), (4, "y")]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [(path.name, line, name) for path in paths
              for line, name in unused_imports(path.read_text())]
    assert unused == []
