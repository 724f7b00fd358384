"""The package namespace: one export list per module."""

import importlib

import sisrd

MODULES = (
    "asymptotics",
    "coefficients",
    "dynamics",
    "equilibrium",
    "grid",
    "harness",
    "scenario",
    "solvers",
    "spectral",
)


def test_package_exports_every_module_list():
    names = {"__version__"}
    for module in MODULES:
        names.update(importlib.import_module(f"sisrd.{module}").__all__)
    assert set(sisrd.__all__) == names
    assert len(sisrd.__all__) == len(names)
    for name in sisrd.__all__:
        assert getattr(sisrd, name) is not None
