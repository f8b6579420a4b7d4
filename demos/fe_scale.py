"""Forced response of a finite-element bar with 2 * 10**5 states.

The model is the benchmark's seeded sparse bar (``fe_bar`` in
``ssmbench/models.py``) at n = 10**5 nodes, so its first-order system
has N = 2 * 10**5 states and its lifted cubic has (2n)**3 = 8e15 index
positions. Only sparse operators, the master modes and the sparse cubic
are ever formed. The script lifts the model, finds the first mode pair,
computes the order-3 manifold, sweeps the forced response around the
first frequency and checks the invariance residual. It prints each
stage's wall time and the peak resident set size, which must stay
under 2 GB.

Every shifted solve takes the second-order route: one sparse LU of the
N/2 matrix lambda^2 M + lambda C + K per block (lambda = i Omega for a
forcing block) instead of one of the 2N pencil lambda B - A. The
bar's damping is Rayleigh, C = 0.002 K, so the spectrum takes the modal
route: one real symmetric shift-invert Lanczos run on K phi = omega^2 M
phi at N/2 unknowns, each mode giving its pair of eigenvalues in closed
form. The script prints the route and the fitted (alpha, beta) and
asserts "modal", so a fallback to the complex Arnoldi run fails it.
The forcing blocks at the sweep's two end frequencies are solved once
more through ``leading_order``, whose route and normwise backward
residual are printed; the residual must be at most 1e-12.

The lift's B = diag(I, M) is as well conditioned as M. Since M, C and
K are symmetric, the spectrum takes its left eigenvectors in closed form
from the right ones; the script prints where the left vectors came from
and asserts "closed-form".

The residual check must pass. At this size every residual sits at the
rounding level of N-dimensional sums, under the floor the check works
out per radius from the model and the master modes.
"""

import importlib.util
import os
import resource
import time

import numpy as np

from ssmkit import (build_first_order, compute_manifold, frc_sweep,
                    invariance_residual, leading_order, master_spectrum)
from ssmkit.cli import DEFAULTS

NODES = 10**5
SEED = 4
RSS_BUDGET_MB = 2048.0


def load_fe_bar():
    """``fe_bar`` from the benchmark's model generator, by its path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "ssmbench", "models.py")
    spec = importlib.util.spec_from_file_location("fe_models", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fe_bar


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    fe_bar = load_fe_bar()
    times = {}

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times[stage] = time.perf_counter() - t0
        print("%-9s %7.2f s   peak RSS %6.0f MB"
              % (stage, times[stage], peak_rss_mb()))
        return out

    mech = timed("model", fe_bar, NODES, SEED)
    system = timed("lift", build_first_order, mech)
    ms = timed("spectrum", master_spectrum, system,
               select={"mode": "pair", "pair": 1}, n_outer=8)
    man = timed("manifold", compute_manifold, system, ms, order=3)
    omega1 = float(np.abs(ms.lambdas.imag).max())
    dof = system.N // 4
    omegas = omega1 * np.linspace(0.99, 1.05, 17)
    result = timed("frc", frc_sweep, man, omegas, dofs=(dof,))
    # the sweep's end blocks, again through leading_order, for their
    # solve route and backward residuals
    ends = timed("forcing", lambda: [
        leading_order(system, ms, [omega]).diagnostics
        for omega in omegas[[0, -1]]])
    report = timed("verify", invariance_residual, man,
                   DEFAULTS["verify"]["radii"], n_dirs=4)
    peak = peak_rss_mb()

    print()
    print("N = %d states, omega_1 = %.6f, spectrum on the %s route "
          "(alpha, beta = %r), left vectors %s, %d FRC points"
          % (system.N, omega1, ms.diagnostics["route"],
             ms.diagnostics["rayleigh"], ms.diagnostics["left_vectors"],
             len(result.points)))
    print("%10s %10s %8s %12s" % ("Omega/w1", "rho", "stable",
                                  "amp dof %d" % dof))
    for pt in result.points:
        print("%10.4f %10.6f %8s %12.6e"
              % (pt["Omega"] / omega1, pt["rho"],
                 "yes" if pt["stable"] else "no", pt["amp"][dof]))
    print()
    backward = []
    for omega, diag in zip(omegas[[0, -1]], ends):
        backward.append(max(diag["backward_residuals"].values()))
        print("forcing block at %.2f omega_1: %s route, backward residual "
              "%.1e" % (omega / omega1, diag["route"], backward[-1]))
    print()
    for line in report.describe():
        print(line)
    print()
    print("total %.2f s, peak RSS %.0f MB" % (sum(times.values()), peak))

    assert ms.diagnostics["left_vectors"] == "closed-form", \
        "left vectors from %s" % ms.diagnostics["left_vectors"]
    assert ms.diagnostics["route"] == "modal", \
        "spectrum on the %s route: %s" % (ms.diagnostics["route"],
                                          ms.diagnostics["modal"])
    assert result.points, "the sweep found no forced response"
    assert max(backward) <= 1e-12, "forcing block backward residual %.1e" \
        % max(backward)
    assert report.passed, "residual check failed"
    assert peak < RSS_BUDGET_MB, "peak RSS %.0f MB over budget" % peak


if __name__ == "__main__":
    main()
