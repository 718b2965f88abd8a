"""Every public name of the package, and every public method and property of
its public classes, has a caller in the package or the bench."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import irsbeam

ROOT = Path(__file__).parents[1]

# the ROADMAP's run-record item makes it the predicted peak that the record compares
# with the measured argmax of an angle sweep; until then only tests call it
NO_CALLER_YET = {"far_squint_direction"}
# the ROADMAP's run-record item hashes the canonical scenario it returns as the run's
# provenance; until then only tests call it
NO_CALLER_YET_MEMBERS = {"Scenario.to_dict"}

CONSTRUCTORS = ("__init__", "__post_init__")


def _names(node) -> Counter:
    """Names read as a variable or an attribute below ``node``: a definition, an
    import or a docstring is not a use."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
    return names


def used_names(paths) -> tuple[Counter, dict[str, Counter]]:
    """The uses of each name in ``paths``, and for each class the uses inside
    its own constructor, which a member's caller may not be."""
    names, in_constructor = Counter(), {}
    for path in paths:
        tree = ast.parse(path.read_text())
        names += _names(tree)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name in CONSTRUCTORS:
                        in_constructor.setdefault(cls.name, Counter()).update(_names(fn))
    return names, in_constructor


def public_members(cls) -> set[str]:
    """The public methods and properties that ``cls`` itself defines."""
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
    }


def _sources():
    package = [p for p in (ROOT / "src" / "irsbeam").glob("*.py") if p.name != "__init__.py"]
    return package + sorted((ROOT / "bench").glob("*.py"))


def test_every_export_has_a_caller():
    used, _ = used_names(_sources())
    assert set(irsbeam.__all__) - set(used) - NO_CALLER_YET == set()


def test_every_public_member_of_an_exported_class_has_a_caller():
    used, in_constructor = used_names(_sources())
    classes = [getattr(irsbeam, name) for name in irsbeam.__all__]
    uncalled = {
        f"{cls.__name__}.{member}"
        for cls in classes if inspect.isclass(cls)
        for member in public_members(cls)
        if used[member] - in_constructor.get(cls.__name__, Counter())[member] <= 0
    }
    assert uncalled - NO_CALLER_YET_MEMBERS == set()
