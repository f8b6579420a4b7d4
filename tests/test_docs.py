"""The examples in the docstrings of every ssmkit module run as written,
and the README names only config keys that exist."""

import doctest
import importlib
import os
import pkgutil
import re

import pytest

import ssmkit
from ssmkit.cli import DEFAULTS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")

MODULES = sorted(m.name for m in pkgutil.iter_modules(ssmkit.__path__,
                                                      "ssmkit."))


@pytest.mark.parametrize("name", ["ssmkit"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_config_keys_exist():
    # a dotted key after "--" or a backquote, as in --ssm.order or
    # `verify.radii`, whose first part is a config section
    with open(README) as fh:
        text = fh.read()
    pattern = r"(?:--|`)((?:%s)(?:\.\w+)+)" % "|".join(DEFAULTS)
    keys = set(re.findall(pattern, text))
    assert "verify.radii" in keys
    for key in sorted(keys):
        node = DEFAULTS
        for part in key.split("."):
            assert isinstance(node, dict) and part in node, \
                "README names the unknown config key %r" % key
            node = node[part]
