"""The package re-exports exactly the public names of its library modules."""

import types

import talbotlau
from talbotlau import config, elements, interferometer, kinematics, propagation, sensing


def test_package_exports_the_union_of_module_all():
    expected = set()
    for module in (config, elements, interferometer, kinematics, propagation, sensing):
        expected.update(module.__all__)
    exported = {
        name
        for name, value in vars(talbotlau).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == expected
