"""Every exported name resolves, and the names the traced benchmark indexes stay."""

import importlib

import pytest

import zqdist

MODULES = ("arith", "gauss", "fourier", "sphere", "distset")


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"zqdist.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_package_exports_resolve():
    assert [name for name in zqdist.__all__ if not hasattr(zqdist, name)] == []


def test_traced_spectrum_names_exported():
    # perfbench/tracer.py looks these up by name to report the spectrum routes
    sphere = importlib.import_module("zqdist.sphere")
    for name in ("sphere_spectrum", "sphere_fourier_direct", "sphere_spectrum_formula"):
        assert name in sphere.__all__ and callable(getattr(sphere, name))
