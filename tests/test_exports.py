"""Every public name of the package has a caller in the package or the bench."""

import ast
from pathlib import Path

import irsbeam

ROOT = Path(__file__).parents[1]

# the ROADMAP's run-record item makes it the predicted peak that the record compares
# with the measured argmax of an angle sweep; until then only tests call it
NO_CALLER_YET = {"far_squint_direction"}


def used_names(paths) -> set[str]:
    """Names read as a variable or an attribute: a definition, an import or a
    docstring is not a use."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    package = [p for p in (ROOT / "src" / "irsbeam").glob("*.py") if p.name != "__init__.py"]
    used = used_names(package + sorted((ROOT / "bench").glob("*.py")))
    assert set(irsbeam.__all__) - used - NO_CALLER_YET == set()
