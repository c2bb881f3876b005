"""The package namespace is the union of its modules' ``__all__``."""

import inspect
import types

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
