"""
Workload specs and the pipeline every workload runs.

One repetition goes from model files to checked results in six timed
stages:

    setup       load_system + build_first_order (the lift)
    manifold    master_spectrum + compute_manifold, per master subspace
    frc         frc_sweep over the frequency grid
    verify      invariance_residual
    crosscheck  full-model checks at chosen FRC points
    io          ManifoldExpansion.save, then ManifoldExpansion.load

Output checks run between the stages, off the clock.
"""

import os
import resource
import time

import numpy as np

import ssmkit as S
from ssmkit.errors import SsmError

from models import README_F0

CLI_RADII = [0.1, 0.0631, 0.0398, 0.0251, 0.0158, 0.01]

# Each master entry: selection, n_outer, style, order. "verify" and
# "io" use master "main"; "frc" and "crosscheck" use master "frc" when
# the spec has one, else "main".
SPECS = {
    "frc_chain": {
        "model": {"kind": "chain", "n": 10, "load": README_F0, "eps": 0.1},
        "masters": {"main": ({"mode": "pair", "pair": 2}, 8,
                             "normal-form", 7)},
        "frc": {"omega": np.linspace(0.54, 0.70, 33), "dof": 4},
        "verify": {"radii": CLI_RADII, "n_dirs": 16},
        # the three-root frequency of acceptance 3, upper stable branch
        "crosscheck": {"kind": "steady", "omega": [0.6158], "dof": 4},
    },
    # meant for the manifold stage; every run reports every end-to-end
    # metric, so a small FRC and orbit check on pair 2 give it frc_s and
    # crosscheck_s
    "ssm_multipair": {
        "model": {"kind": "chain", "n": 10, "load": README_F0, "eps": 0.1},
        "masters": {"main": ({"mode": "smallest", "count": 4}, 8,
                             "graph", 5),
                    "frc": ({"mode": "pair", "pair": 2}, 8,
                            "normal-form", 5)},
        "frc": {"omega": np.linspace(0.54, 0.70, 9), "dof": 4},
        "verify": {"radii": CLI_RADII, "n_dirs": 16},
        "crosscheck": {"kind": "orbit", "omega": [0.70], "dof": 4},
    },
    "fe_sparse": {
        "model": {"kind": "fe_bar", "n": 1500},
        # order 4: the model is odd, so W_4 = 0 and this is the order-3
        # expansion; its residual decays like rho**5 = rho**(G + 1), the
        # slope invariance_residual tests for (at G = 3 it sees G + 2)
        "masters": {"main": ({"mode": "pair", "pair": 1}, 8,
                             "normal-form", 4)},
        # grids relative to omega_1 of the computed master pair
        "frc": {"omega_rel": np.linspace(0.99, 1.05, 17), "dof": "mid"},
        "verify": {"radii": CLI_RADII, "n_dirs": 4},
        "crosscheck": {"kind": "orbit", "omega_rel": [1.0, 1.04],
                       "dof": "mid"},
    },
}

# the same code path at toy size, for the smoke test
TOY = {
    "frc_chain": {"frc": {"omega": np.linspace(0.54, 0.70, 5), "dof": 4},
                  "verify": {"radii": CLI_RADII, "n_dirs": 2},
                  "masters": {"main": ({"mode": "pair", "pair": 2}, 8,
                                       "normal-form", 5)},
                  "crosscheck": {"kind": "steady", "omega": [0.70],
                                 "dof": 4}},
    "ssm_multipair": {"masters": {"main": ({"mode": "smallest", "count": 4},
                                           8, "graph", 4),
                                  "frc": ({"mode": "pair", "pair": 2}, 8,
                                          "normal-form", 3)},
                      "verify": {"radii": CLI_RADII, "n_dirs": 2}},
    # N = 640 keeps the shift-invert eigensolver of the full size
    "fe_sparse": {"model": {"kind": "fe_bar", "n": 320},
                  "frc": {"omega_rel": np.linspace(0.99, 1.05, 5),
                          "dof": "mid"},
                  "verify": {"radii": CLI_RADII, "n_dirs": 2}},
}

STAGES = ("setup", "manifold", "frc", "verify", "crosscheck", "io")

FRC_TOL = 0.02        # acceptance 3: FRC amplitude against the oracle
NORM_TOL = 1e-10      # U^H B V = I
REAL_TOL = 1e-10      # W(p) real at a conjugate-symmetric p
STAGE_BUDGET_S = 0.2  # repeat a short stage within one repetition
STAGE_SAMPLES = 200   # ... but at most this often


def spec_for(name, toy=False):
    spec = dict(SPECS[name])
    if toy:
        spec.update(TOY[name])
    return spec


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Output checks, counted; a raised SsmError is a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append("%s %s" % (name, detail))
        return ok

    def error(self, name, exc):
        self.check(name, False, "raised %s: %s" % (type(exc).__name__, exc))


def _dof(spec_dof, system):
    return system.N // 4 if spec_dof == "mid" else int(spec_dof)


def _omega1(master):
    return float(np.abs(master.lambdas.imag).max())


def _orbit_point(manifold, rom, pt, nonaut, eps, eta, omega, t):
    """State of the ROM's periodic orbit at time t (the FRC's own map)."""
    theta = pt["psi"] + eta * omega * t
    p = np.zeros(2, dtype=complex)
    p[rom.row] = pt["rho"] * np.exp(1j * theta)
    p[rom.partner] = pt["rho"] * np.exp(-1j * theta)
    return manifold.evaluate(p).real + eps * nonaut.correction([omega * t])


def _crosscheck(spec, system, manifold):
    """
    Full-model checks at chosen FRC points; returns (name, relative
    error or None when the FRC has no stable point) per point.

    "steady": steady_state_amplitude seeded from the ROM point, as
    acceptance 3 does; the FRC amplitude is compared with it.
    "orbit": one forcing period of the full model (implicit trapezoidal
    rule) from a point of the ROM's periodic orbit; the full trajectory
    of the dof is compared with the ROM's, relative to its amplitude.
    Used where a settled steady state is out of reach in a run: the FE
    bar is stiff, so only the implicit rule integrates it, and its 0.5 %
    damping needs hundreds of periods to settle.
    """
    cc = spec["crosscheck"]
    master = manifold.master
    dof = _dof(cc["dof"], system)
    omegas = cc.get("omega") or [r * _omega1(master) for r in cc["omega_rel"]]
    rom = S.extract_polar_rom(manifold)
    override = {(1,): [rom.row], (-1,): [rom.partner]}
    out = []
    for omega in omegas:
        name = "crosscheck@%.4f" % omega
        res = S.frc_sweep(manifold, [omega], dofs=(dof,))
        stable = [q for q in res.points if q["stable"]]
        if not stable:
            out.append((name, None))
            continue
        pt = max(stable, key=lambda q: q["rho"])
        nonaut = S.leading_order(system, master, [omega],
                                 style=manifold.style,
                                 resonant_modes=override)
        z0 = _orbit_point(manifold, rom, pt, nonaut, system.eps, res.eta,
                          omega, 0.0)
        if cc["kind"] == "steady":
            oracle = S.steady_state_amplitude(system, omega, dof,
                                              n_transient=50, n_window=10,
                                              tol=0.002, z0=z0)
            out.append((name, abs(pt["amp"][dof] - oracle) / oracle))
            continue
        period = 2.0 * np.pi / omega
        steps = 128
        times = np.arange(steps + 1) * (period / steps)
        rom_z = np.array([
            _orbit_point(manifold, rom, pt, nonaut, system.eps, res.eta,
                         omega, t)[dof] for t in times])
        # with the default Newton tolerance (1e-12 relative) the
        # iteration stalls at the first step on the FE bar
        full = S.integrate_full(system, z0, (0.0, period), Omega=omega,
                                method="trapezoid", dt=period / steps,
                                newton_tol=1e-9)
        out.append((name, float(np.abs(full["z"][dof] - rom_z).max()
                                / np.abs(rom_z).max())))
    return out


def _check_manifold(name, system, manifold, checks):
    master = manifold.master
    err = S.check_normalization(master, system)
    checks.check(name + ".normalization", err <= NORM_TOL, "%.3e" % err)
    # conjugate-symmetric point: p[pairing] = conj(p)
    rng = np.random.default_rng(0)
    p = np.zeros(master.dim, dtype=complex)
    for j in range(master.dim):
        if master.pairing[j] >= j:
            v = 0.05 * (rng.standard_normal()
                        + (1j * rng.standard_normal()
                           if master.pairing[j] != j else 0.0))
            p[j] = v
            p[master.pairing[j]] = np.conj(v)
    z = manifold.evaluate(p)
    imag = float(np.abs(z.imag).max())
    checks.check(name + ".real", imag <= REAL_TOL * max(1.0, np.abs(z).max()),
                 "max imag %.3e" % imag)


def _check_frc(result, checks):
    by_omega = {}
    for pt in result.points:
        by_omega.setdefault(pt["Omega"], []).append(pt)
    bad = [om for om, pts in by_omega.items()
           if len(pts) == 3 and sum(not q["stable"] for q in pts) != 1]
    checks.check("frc.fold", not bad, "Omega %s" % bad)


def _check_io(manifold, loaded, checks):
    same = (sorted(manifold.W) == sorted(loaded.W)
            and sorted(manifold.R) == sorted(loaded.R)
            and all(np.array_equal(manifold.W[i], loaded.W[i])
                    for i in manifold.W)
            and all(np.array_equal(manifold.R[i], loaded.R[i])
                    for i in manifold.R))
    checks.check("io.roundtrip", same)


class Repetition:
    """
    One pass of the pipeline. ``samples`` maps each stage to its wall
    times; a stage shorter than STAGE_BUDGET_S is repeated within the
    pass (once when traced, so that its layer times add up), and its
    time in ``times`` is the best sample. ``spans`` holds each sample's
    perf_counter() start and end, for reference.Meter. ``info`` holds
    the counts that come from result objects.
    """

    def __init__(self, spec, manifest, workdir, seed, checks, tracer=None):
        self.spec = spec
        self.manifest = manifest
        self.workdir = workdir
        self.seed = seed
        self.checks = checks
        self.tracer = tracer
        self.samples = {}
        self.spans = {}
        self.times = {}
        self.info = {}
        self.lift_rss_mb = None

    def _timed(self, stage, fn):
        self._stage = stage
        samples = self.samples[stage] = []
        spans = self.spans[stage] = []
        while True:
            result = None  # free the last result before the next sample
            if self.tracer is not None:
                self.tracer.stage = stage
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                result = fn()
            finally:
                t1 = time.perf_counter()
                samples.append(t1 - t0)
                spans.append((t0, t1))
                if self.tracer is not None:
                    self.tracer.active = False
            if (self.tracer is not None or sum(samples) >= STAGE_BUDGET_S
                    or len(samples) >= STAGE_SAMPLES):
                break
        self.times[stage] = min(samples)
        return result

    def _setup(self):
        mech = S.load_system(self.manifest)
        rss0 = peak_rss_mb()
        system = S.build_first_order(mech)
        if self.lift_rss_mb is None:
            self.lift_rss_mb = peak_rss_mb() - rss0
        return system

    def run(self):
        """Run every stage; returns False when one raised SsmError."""
        try:
            self._run()
        except SsmError as exc:
            self.checks.error("stage %s" % self._stage, exc)
            return False
        return True

    def _run(self):
        spec, checks = self.spec, self.checks

        system = self._timed("setup", self._setup)

        def build():
            manifolds = {}
            for key, (select, n_outer, style, order) in spec["masters"].items():
                master = S.master_spectrum(system, select=select,
                                           n_outer=n_outer)
                manifolds[key] = S.compute_manifold(system, master, order,
                                                    style=style)
            return manifolds
        manifolds = self._timed("manifold", build)
        orders = [(m, d) for m in manifolds.values()
                  for d in m.diagnostics["orders"]]
        self.info["columns"] = sum(m.dim ** d["order"] for m, d in orders)
        self.info["groups"] = sum(d["groups"] for _, d in orders)
        self.info["lstsq_columns"] = sum(d["lstsq_columns"] for _, d in orders)
        self.info["manifold_bytes"] = sum(
            int(b.nbytes) for m in manifolds.values()
            for blocks in (m.W, m.R) for b in blocks.values())
        for key, man in manifolds.items():
            _check_manifold("manifold." + key, system, man, checks)

        main = manifolds["main"]
        pair = manifolds.get("frc", main)

        fc = spec["frc"]
        omegas = (fc["omega"] if "omega" in fc
                  else fc["omega_rel"] * _omega1(pair.master))
        dof = _dof(fc["dof"], system)
        result = self._timed("frc", lambda: S.frc_sweep(pair, omegas,
                                                        dofs=(dof,)))
        self.info["frc_points"] = len(result.points)
        self.info["unstable_points"] = sum(not q["stable"]
                                           for q in result.points)
        _check_frc(result, checks)

        vc = spec["verify"]
        report = self._timed("verify", lambda: S.invariance_residual(
            main, vc["radii"], n_dirs=vc["n_dirs"], seed=self.seed))
        checks.check("verify.passed", report.passed,
                     "slope %s" % report.slope)

        errors = self._timed("crosscheck",
                             lambda: _crosscheck(spec, system, pair))
        for name, rel in errors:
            checks.check(name, rel is not None and rel <= FRC_TOL,
                         "no stable FRC point" if rel is None
                         else "off by %.2f%%" % (100 * rel))

        path = os.path.join(self.workdir, "manifold.json")

        def roundtrip():
            main.save(path)
            return S.ManifoldExpansion.load(path)
        loaded = self._timed("io", roundtrip)
        os.remove(path)
        _check_io(main, loaded, checks)
