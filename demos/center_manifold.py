"""Center manifold of the extended Lorenz system at the pitchfork point.

The system has a double zero eigenvalue once the bifurcation parameter
is appended as a state. The script computes the order-3 normal form on
the two-dimensional center manifold, prints the reduced dynamics, and
checks the invariance defect directly.
"""

import numpy as np

from ssmkit import (compute_manifold, invariance_residual, lorenz_extended,
                    master_spectrum)


def main():
    sys = lorenz_extended()
    ms = master_spectrum(sys, select=[0, 1], n_outer=2)
    print("master eigenvalues:", np.round(ms.lambdas, 12))
    print("outer eigenvalues: ", np.round(ms.outer_lambdas, 12))

    man = compute_manifold(sys, ms, order=3)
    print()
    for line in man.resonances.describe():
        print(line)

    print("reduced dynamics on the center manifold (p1 = amplitude,")
    print("p2 = bifurcation parameter):")
    terms = [
        ("p1 p2  ", 2, (0, 1)),
        ("p1^3   ", 3, (0, 0, 0)),
        ("p1 p2^2", 3, (0, 1, 1)),
    ]
    line = "  p1' ="
    for label, degree, factors in terms:
        c = man.reduced_coefficient(degree, 0, factors).real
        line += " %+.6f %s" % (c, label.strip())
    print(line)
    worst = max(np.abs(man.R[d][1]).max() for d in (2, 3))
    print("  p2' = 0  (largest magnitude in that row: %.2e)" % worst)
    print()
    print("so the amplitude equation is a pitchfork: for p2 > 0 the origin")
    print("is unstable and two stable branches sit at p1 = +-sqrt(2 p2).")

    report = invariance_residual(man, np.logspace(-4, -2, 7))
    print()
    for line in report.describe():
        print(line)


if __name__ == "__main__":
    main()
