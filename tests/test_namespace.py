"""The package namespace is the union of its modules' ``__all__``, and
every name in it is read by the package, a demo or the benchmark."""

import ast
import inspect
import types
from pathlib import Path

import retrodyn as rd
from retrodyn import dynamics, errors, estimation, fullmodel, model, pipeline, thermo

MODULES = (model, dynamics, estimation, thermo, fullmodel, pipeline)


def _owners():
    owners = {name: errors for name, obj in vars(errors).items()
              if inspect.isclass(obj) and issubclass(obj, rd.RetrodynError)}
    for module in MODULES:
        owners.update((name, module) for name in module.__all__)
    return owners


def test_public_names_are_the_modules_all():
    public = {name for name, obj in vars(rd).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(_owners())


def test_each_name_is_its_modules_object():
    for name, module in _owners().items():
        assert getattr(rd, name) is getattr(module, name), name


ROOT = Path(__file__).resolve().parents[1]
READERS = ("src/retrodyn", "demos", "refbench")
# Public names allowed to go unread for now.
PENDING: set = set()


def _read_names():
    """Names read by the package, the demos and the benchmark: loaded names,
    attributes, imported names and the benchmark tracer's TRACED entries.
    A def, a class or an __all__ string is not a read."""
    read = set()
    for path in sorted(p for d in READERS for p in (ROOT / d).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Assign) and path.name == "spans.py"
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
                read.update(entry.elts[1].value for entry in node.value.elts)
    return read


def test_every_public_name_has_a_reader():
    read = _read_names()
    unread = sorted(name for module in MODULES for name in module.__all__
                    if name not in read and name not in PENDING)
    assert not unread, unread
