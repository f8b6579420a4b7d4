"""The benchmark's per-layer tracer hooks resolve against the package."""

import importlib.util
import os

import numpy as np

import ssmkit

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "ssmbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("ssmbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked(tracer):
    """Each hook's current attribute, as the tracer finds it."""
    out = {}
    for layer, home, path, _ in tracer.HOOKS:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(ssmkit, home)
        if owner_name:
            owner = getattr(owner, owner_name)
            out[path] = vars(owner)[attr]
        else:
            out[path] = getattr(owner, attr)
    return out


def test_the_tracer_installs_and_removes_every_hook():
    # a renamed function fails here, as it fails the benchmark run
    tracer = _load_tracer()
    before = _hooked(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        during = _hooked(tracer)
        for path, raw in before.items():
            wrapped = during[path]
            assert wrapped is not raw, path
            if isinstance(wrapped, classmethod):
                wrapped, raw = wrapped.__func__, raw.__func__
            assert wrapped.__wrapped__ is raw, path
        # a call made while active is counted under its stage
        t.active, t.stage = True, "manifold"
        ssmkit.multiindex.kron_sum_lambdas(np.array([1j, -1j]), 2)
        t.active = False
        stats = t.take()
        assert stats[("manifold", "multiindex.kron_sum_lambdas")][0] == 1
    finally:
        t.uninstall()
    after = _hooked(tracer)
    assert all(after[path] is raw for path, raw in before.items())
