"""
Per-layer tracing from outside the program.

The tracer wraps public functions and methods of ssmkit's modules at
the module attributes where their callers look them up, so a call from
``analysis.frc_sweep`` to ``leading_order`` goes through the wrapper
bound in ``ssmkit.analysis``. Each wrapped call is timed; the time its
traced children took is subtracted to give its self time. Statistics
are kept per pipeline stage (``Tracer.stage``), so a metric can be
taken from the stage it belongs to. Calls of the
hooks marked to keep spans are also kept as spans (id, parent id, name,
start, end) in memory and written out at the end of the run; the small
hot methods (index arithmetic, polynomial evaluation) are only counted
and timed, so that tracing them does not fill memory.

A hook whose name no longer exists raises ``LookupError``: the run
fails instead of reporting a zero.
"""

import itertools
import json
import sys
import time

# (layer, home module, attribute path, keep spans)
HOOKS = [
    ("fileio", "fileio", "load_system", True),
    ("model", "model", "build_first_order", True),
    ("model", "model", "MechanicalSystem.__init__", True),
    ("model", "model", "FirstOrderSystem.__init__", True),
    ("model", "model", "FirstOrderSystem.F_eval", False),
    ("spectrum", "spectrum", "master_spectrum", True),
    ("multiindex", "multiindex", "MultiIndexSet.__init__", False),
    ("multiindex", "multiindex", "MultiIndexSet.position", False),
    ("multiindex", "multiindex", "MultiIndexSet.index_tuple", False),
    ("multiindex", "multiindex", "MultiIndexSet.tuples", False),
    ("multiindex", "multiindex", "decode_positions", False),
    ("multiindex", "multiindex", "encode_positions", False),
    ("multiindex", "multiindex", "kron_sum_lambdas", False),
    ("multiindex", "multiindex", "conjugate_permutation", True),
    ("polytensor", "polytensor", "compose", True),
    ("polytensor", "polytensor", "apply_kron_sum", True),
    ("polytensor", "polytensor", "PolyCoeffs.evaluate", False),
    ("polytensor", "polytensor", "PolyCoeffs.__init__", True),
    ("cohomology", "cohomology", "classify_resonances", True),
    ("cohomology", "cohomology", "solve_order", True),
    ("cohomology", "cohomology", "compute_manifold", True),
    ("cohomology", "cohomology", "ManifoldExpansion.evaluate", False),
    ("cohomology", "cohomology", "ManifoldExpansion.tangent", False),
    ("cohomology", "cohomology", "ManifoldExpansion.reduced_rhs", False),
    ("cohomology", "cohomology", "ManifoldExpansion.to_dict", True),
    ("cohomology", "cohomology", "ManifoldExpansion.save", True),
    ("cohomology", "cohomology", "ManifoldExpansion.from_dict", True),
    ("cohomology", "cohomology", "ManifoldExpansion.load", True),
    ("forcing", "forcing", "leading_order", True),
    ("forcing", "forcing", "NonAutonomousLeading.correction", False),
    ("analysis", "analysis", "extract_polar_rom", True),
    ("analysis", "analysis", "frc_sweep", True),
    ("analysis", "analysis", "physical_amplitude", False),
    ("analysis", "analysis", "stability_jacobian", False),
    ("verify", "verify", "invariance_residual", True),
    ("verify", "verify", "integrate_full", True),
    ("verify", "verify", "steady_state_amplitude", True),
]

PACKAGE = "ssmkit"

LAYERS = ("fileio", "model", "spectrum", "multiindex", "polytensor",
          "cohomology", "forcing", "analysis", "verify")


def _block_bytes(blocks):
    return sum(int(blocks[i].nbytes) for i in blocks)


# amounts computed from the arguments of a call
AMOUNTS = {
    # bytes: an embedding reads every W block once
    "ManifoldExpansion.evaluate": lambda args, kw: _block_bytes(args[0].W),
    # Kronecker columns: compose(f_coeffs, w_blocks, order, nvars, ...)
    "compose": lambda args, kw: args[3] ** args[2],
}


class _Stat:
    __slots__ = ("calls", "total", "self", "amount")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.amount = 0


class Tracer:
    """
    Install with ``install()``; only calls made while ``active`` is
    true are recorded, under the current ``stage``. ``take()`` returns
    and clears the statistics of the calls recorded since the last
    ``take()``.
    """

    def __init__(self):
        self.active = False
        self.stage = None
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)
        self._stats = {}
        self._patches = []

    # -- installation --------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for layer, home, path, keep in HOOKS:
            key = "%s.%s" % (layer, path)
            owner_name, _, attr = path.rpartition(".")
            home_mod = modules.get("%s.%s" % (PACKAGE, home))
            if home_mod is None:
                raise LookupError("module %s.%s is gone" % (PACKAGE, home))
            if owner_name:
                owner = getattr(home_mod, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise LookupError("hook %s: %s.%s is gone"
                                      % (key, home, path))
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(key, path, keep, raw.__func__))
                else:
                    wrapped = self._wrap(key, path, keep, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            fn = getattr(home_mod, attr, None)
            if fn is None:
                raise LookupError("hook %s: %s.%s is gone" % (key, home, attr))
            wrapped = self._wrap(key, path, keep, fn)
            # rebind every module attribute that refers to this function
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def _wrap(self, key, path, keep, fn):
        stack = self._stack
        ids = self._ids
        spans = self.spans
        stats = self._stats
        clock = time.perf_counter
        amount = AMOUNTS.get(path)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat = stats.get((tracer.stage, key))
                if stat is None:
                    stat = stats[(tracer.stage, key)] = _Stat()
                stat.calls += 1
                stat.total += dur
                stat.self += dur - frame[0]
                if amount is not None:
                    stat.amount += amount(args, kwargs)
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((frame[1], parent, key, t0, t1))

        wrapper.__name__ = getattr(fn, "__name__", path)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------

    def take(self):
        """
        Statistics since the last call, keyed by (stage, 'layer.path'):
        (calls, total time, self time, computed amount).
        """
        out = {key: (s.calls, s.total, s.self, s.amount)
               for key, s in self._stats.items()}
        self._stats.clear()
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def self_by_stage(stats):
    """Self time of each layer within each stage: {stage: {layer: s}}."""
    out = {}
    for (stage, key), v in stats.items():
        layer = key.split(".")[0]
        by_layer = out.setdefault(stage, {})
        by_layer[layer] = by_layer.get(layer, 0.0) + v[2]
    return out


# the stage each stage-scoped metric is taken from (see README.md)
SETUP, MANIFOLD, FRC, VERIFY, CROSSCHECK, IO = (
    ("setup",), ("manifold",), ("frc",), ("verify",), ("crosscheck",),
    ("io",))


def layer_metrics(stats, stage_total):
    """
    Per-layer metrics of one traced repetition.

    ``stats`` is a ``Tracer.take()`` result and ``stage_total`` the
    summed wall time of the repetition's stages, traced. ``<layer>.self_s``
    covers the whole repetition; every other time or count is taken
    from the stages its end-to-end metric measures.
    """
    def field(index, path, stages):
        return sum(v[index] for (stage, key), v in stats.items()
                   if key == path and stage in stages)

    def calls(path, stages):
        return field(0, path, stages)

    def total(path, stages):
        return field(1, path, stages)

    def self_time(path, stages):
        return field(2, path, stages)

    def amount(path, stages):
        return field(3, path, stages)

    out = {}
    for layer in LAYERS:
        out["%s.self_s" % layer] = sum(
            v[2] for (_, key), v in stats.items()
            if key.split(".")[0] == layer)
    covered = sum(out.values())
    evaluate = "cohomology.ManifoldExpansion.evaluate"
    out.update({
        "fileio.load_system_s": total("fileio.load_system", SETUP),
        "model.build_first_order_s": total("model.build_first_order", SETUP),
        "model.F_eval_calls": calls("model.FirstOrderSystem.F_eval",
                                    CROSSCHECK),
        "spectrum.master_spectrum_s": total("spectrum.master_spectrum",
                                            MANIFOLD),
        "multiindex.calls": sum(v[0] for (stage, key), v in stats.items()
                                if key.startswith("multiindex.")
                                and stage in MANIFOLD),
        "polytensor.compose_s": total("polytensor.compose", MANIFOLD),
        "polytensor.compose_columns": amount("polytensor.compose", MANIFOLD),
        "polytensor.apply_kron_sum_s": total("polytensor.apply_kron_sum",
                                             MANIFOLD),
        "polytensor.evaluate_s": total("polytensor.PolyCoeffs.evaluate",
                                       VERIFY + CROSSCHECK),
        "cohomology.classify_resonances_s":
            total("cohomology.classify_resonances", MANIFOLD),
        "cohomology.solve_order_self_s":
            self_time("cohomology.solve_order", MANIFOLD),
        "cohomology.evaluate_s": total(evaluate, FRC),
        "cohomology.evaluate_calls": calls(evaluate, FRC),
        "cohomology.evaluate_bytes": amount(evaluate, FRC),
        "cohomology.tangent_s":
            total("cohomology.ManifoldExpansion.tangent", VERIFY),
        "cohomology.reduced_rhs_s":
            total("cohomology.ManifoldExpansion.reduced_rhs", VERIFY),
        "cohomology.save_s": total("cohomology.ManifoldExpansion.save", IO),
        "cohomology.load_s": total("cohomology.ManifoldExpansion.load", IO),
        "forcing.leading_order_s": total("forcing.leading_order", FRC),
        "forcing.calls": calls("forcing.leading_order", FRC),
        "analysis.physical_amplitude_self_s":
            self_time("analysis.physical_amplitude", FRC),
        "analysis.frc_sweep_self_s": self_time("analysis.frc_sweep", FRC),
        "verify.invariance_residual_self_s":
            self_time("verify.invariance_residual", VERIFY),
        "verify.integrate_full_s": total("verify.integrate_full", CROSSCHECK),
        "verify.steady_state_amplitude_self_s":
            self_time("verify.steady_state_amplitude", CROSSCHECK),
        "trace.total_s": stage_total,
        # share of the stages' time spent outside every traced call
        "trace.untraced_frac": (stage_total - covered) / stage_total,
    })
    return out
