"""
Leading-order forced response on the manifold.

Small periodic or quasi-periodic forcing ``eps * sum_kappa f_kappa
exp(i <kappa, Omega> t)`` deforms the autonomous manifold. To first
order in eps the deformation is time periodic with the same harmonics,

    z = W(p) + eps * sum_kappa x_kappa exp(i <kappa, Omega> t),

and the reduced dynamics gains the forcing term ``eps * sum_kappa
s_kappa exp(i <kappa, Omega> t)``. Each harmonic solves its own linear
block

    (i <kappa, Omega> B - A) x_kappa = f_kappa - B V s_kappa

where s_kappa plays the same role as the reduced-dynamics entries in
the autonomous expansion: under "normal-form" only modes whose
eigenvalue is near-resonant with ``i <kappa, Omega>`` receive the
projection ``u_j^H f_kappa``; under "graph" all master modes do.

Near-resonance is decided by the classifier's predicate
(``cohomology.is_resonant``), at its fixed tolerances, with the harmonic
as the order-1 sum ``i <kappa, Omega>``: the screen agrees with the
reduced dynamics of any manifold over the same master set, a loaded one
too. Harmonics resonant with eigenvalues outside the master set cannot
be absorbed either way; they are reported as a warning because they
shrink the validity region in eps.

Each block goes through ``cohomology.solve_shifted`` at the shift
``i <kappa, Omega>``, on the same route as an autonomous block of the
same system: the N/2 matrix ``-nu^2 M + i nu C + K`` for a lifted
mechanical model, else the 2N pencil, then the same LU, residual check
and kernel projection, dense or sparse. The diagnostics
record the route and, per harmonic, the residual and the normwise
backward residual

    |(i nu B - A) x - rhs| / ((|nu| |B| + |A|) |x| + |rhs|)

in the infinity norm, with ``nu = <kappa, Omega>`` and ``rhs = f_kappa
- B V s_kappa``.

Corrections of order eps times powers of the reduced coordinate are not
computed; the diagnostics record this truncation.
"""

import warnings

import numpy as np

from .cohomology import (check_style, is_resonant, resonance_tolerance,
                         solve_shifted)
from .errors import NumericalError, ValidationError
from .model import as_first_order, shifted_route

__all__ = ["NonAutonomousLeading", "leading_order"]


class NonAutonomousLeading:
    """
    First order in eps response data for one base frequency vector,
    held in memory only: a sweep solves it afresh at each frequency.

    Attributes
    ----------
    Omega : (K,) float ndarray
        Base frequencies; harmonics are integer combinations.
    harmonics : dict
        kappa tuple -> {"x0": (N,) complex, "s0": (M,) complex}.
    style : str
    eps : float
        Copied from the system for convenience in amplitude maps.
    diagnostics : dict
    """

    def __init__(self, Omega, harmonics, style, eps=0.0, diagnostics=None):
        self.Omega = np.atleast_1d(np.asarray(Omega, dtype=float))
        self.harmonics = dict(harmonics)
        self.style = style
        self.eps = float(eps)
        self.diagnostics = dict(diagnostics or {})

    def x0(self, kappa):
        return self.harmonics[tuple(kappa)]["x0"]

    def s0(self, kappa):
        return self.harmonics[tuple(kappa)]["s0"]

    def correction(self, phase, rows=None):
        """Physical deformation shape (real) at a phase vector (K,), or
        (N, n) at the columns of a (K, n) batch; ``rows`` picks states."""
        phase = np.atleast_1d(np.asarray(phase, dtype=float))
        out = 0.0
        for kt in sorted(self.harmonics):
            vec = self.harmonics[kt]["x0"]
            vec = vec if rows is None else vec[rows]
            vec = vec if phase.ndim == 1 else vec[:, None]
            out = out + vec * np.exp(1j * np.dot(kt, phase))
        return np.real(out)

    def __repr__(self):
        return ("NonAutonomousLeading(Omega=%s, harmonics=%d, style=%r)"
                % (self.Omega, len(self.harmonics), self.style))


def _canonical_kappa(kt):
    """True for the representative of a +/- harmonic pair (and zero)."""
    for k in kt:
        if k > 0:
            return True
        if k < 0:
            return False
    return True


def leading_order(system, master, Omega, style="normal-form",
                  graph_modes=(), resonant_modes=None):
    """
    Solve the order-eps response for every forcing harmonic.

    Parameters
    ----------
    system : FirstOrderSystem
        Must carry a forcing table.
    master : MasterSubspace
    Omega : float or sequence of float
        Base frequency for each harmonic index slot.
    style : {"normal-form", "graph", "per-mode"}, optional
    graph_modes : sequence of int, optional
        Per-mode style: master modes always projected, each in
        0 .. M - 1.
    resonant_modes : dict, optional
        kappa tuple -> list of master mode indices, replacing the
        classifier decision for those harmonics. Useful to keep a
        branch of solutions consistent across a frequency sweep.

    Returns
    -------
    NonAutonomousLeading
    """
    system = as_first_order(system)
    if not system.forcing:
        raise ValidationError("system declares no forcing harmonics")
    check_style(style, graph_modes, master.dim)
    Omega = np.atleast_1d(np.asarray(Omega, dtype=float))
    lam = master.lambdas
    M = master.dim
    V, U = master.V, master.U
    outer = master.outer_lambdas
    A, B = system.A, system.B
    norm_A, norm_B = system.inf_norms
    tol = resonance_tolerance(master)

    overrides = {tuple(k): [int(j) for j in v]
                 for k, v in (resonant_modes or {}).items()}
    table = dict(system.forcing)
    for kt in table:
        if len(kt) != Omega.size:
            raise ValidationError(
                "harmonic %r has %d indices but Omega has %d frequencies"
                % (kt, len(kt), Omega.size))

    harmonics = {}
    residuals = {}
    backward = {}
    outer_hits = []
    pairing = master.pairing
    for kt in sorted(table):
        if not _canonical_kappa(kt):
            continue
        f0 = table[kt]
        nu = float(np.dot(kt, Omega))
        if kt in overrides:
            modes = overrides[kt]
        elif style == "graph":
            modes = list(range(M))
        else:
            modes = np.flatnonzero(is_resonant(1j * nu, lam, 1, tol)).tolist()
            if style == "per-mode":
                modes = sorted(set(modes) | {int(g) for g in graph_modes})
        outer_hits += [(kt, complex(mu))
                       for mu in outer[is_resonant(1j * nu, outer, 1, tol)]]

        s0 = np.zeros(M, dtype=complex)
        for j in modes:
            s0[j] = np.vdot(U[:, j], f0)
        rhs = f0 - B @ (V @ s0)
        x0 = solve_shifted(system, master, 1j * nu, rhs,
                           "harmonic %r" % (kt,),
                           rhs_scale=np.abs(f0).max())[0]
        harmonics[kt] = {"x0": x0, "s0": s0}
        res = float(np.abs((1j * nu * (B @ x0) - A @ x0) - rhs).max())
        residuals[str(kt)] = res
        size = ((abs(nu) * norm_B + norm_A) * np.abs(x0).max()
                + np.abs(rhs).max())
        backward[str(kt)] = res / size if size > 0 else 0.0

        neg = tuple(-k for k in kt)
        if neg != kt:
            harmonics[neg] = {"x0": x0.conjugate(),
                              "s0": s0[pairing].conjugate()}
        else:
            imag = float(np.abs(x0.imag).max(initial=0.0))
            if imag > 1e-9 * max(np.abs(x0).max(initial=0.0), 1.0):
                raise NumericalError(
                    "zero-harmonic response came out complex (max imag %.3e)"
                    % imag)
            harmonics[kt] = {"x0": x0.real.astype(complex), "s0": s0}

    if outer_hits:
        msg = ", ".join("harmonic %r vs %s" % (kt, mu) for kt, mu in outer_hits)
        warnings.warn(
            "forcing resonates with eigenvalues outside the master set "
            "(%s); the order-eps response stands but with a reduced domain "
            "of convergence in eps" % msg)

    diag = {
        "route": shifted_route(system),
        "residuals": residuals,
        "backward_residuals": backward,
        "outer_resonances": [[list(kt), mu.real, mu.imag]
                             for kt, mu in outer_hits],
        "truncation": "response truncated at order eps; terms of order "
                      "eps times reduced amplitude are not included",
    }
    return NonAutonomousLeading(Omega, harmonics, style, eps=system.eps,
                                diagnostics=diag)
