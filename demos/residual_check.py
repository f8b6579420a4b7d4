"""Invariance residual checks for three manifold computations.

The residual measures how far B W'(p) R(p) - A W(p) - F(W(p)) is from
zero along random conjugate-symmetric directions. For a correct order-G
expansion it should shrink like ||p||^(G+1) until it hits the rounding
floor. The script prints the report for a generic system (the extended
Lorenz center manifold), then for the cubic oscillator chain, whose odd
symmetry pushes the decay one order faster (the check's band follows
that parity) and the residual below the floor on small radii.
"""

import numpy as np

from ssmkit import (compute_manifold, invariance_residual, lorenz_extended,
                    master_spectrum, oscillator_chain)


def show(title, man, radii):
    print(title)
    report = invariance_residual(man, radii)
    for line in report.describe():
        print("  " + line)
    print()


def main():
    sys = lorenz_extended()
    ms = master_spectrum(sys, select=[0, 1], n_outer=2)
    man = compute_manifold(sys, ms, order=3)
    show("Lorenz center manifold, order 3, radii 1e-4 .. 1e-2:",
         man, np.logspace(-4, -2, 7))

    chain = oscillator_chain(10, m=1.0, k=1.0, c=0.1, kappa=0.3)
    ms = master_spectrum(chain, select={"mode": "pair", "pair": 2}, n_outer=8)
    man3 = compute_manifold(chain, ms, order=3)
    show("chain mode-2 manifold, order 3, radii 1e-4 .. 1e-2"
         " (at the rounding floor, no slope to fit):",
         man3, np.logspace(-4, -2, 7))
    show("chain mode-2 manifold, order 3, radii 1e-2 .. 1e-1"
         " (odd nonlinearity, so the decay is order 5, not 4):",
         man3, np.logspace(-2, -1, 7))

    man5 = compute_manifold(chain, ms, order=5)
    show("chain mode-2 manifold, order 5, radii 1e-2 .. 1e-1:",
         man5, np.logspace(-2, -1, 7))


if __name__ == "__main__":
    main()
