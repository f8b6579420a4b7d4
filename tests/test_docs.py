"""The examples in the docstrings of every ssmkit module run as written."""

import doctest
import importlib
import pkgutil

import pytest

import ssmkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ssmkit.__path__,
                                                      "ssmkit."))


@pytest.mark.parametrize("name", ["ssmkit"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
