"""
Model files for the benchmark workloads.

Every workload starts from model files on disk, as a user of the
``ssmkit`` command line would. The files are written here, before any
clock starts, with ``save_system``.
"""

import numpy as np
import scipy.sparse as sp

import ssmkit as S
from ssmkit.polytensor import PolyCoeffs

# load shape of the README's forced chain (mode pair 2 shows a fold)
README_F0 = np.array([-0.386, -0.587, -0.521, -0.243, 0.095,
                      0.335, 0.402, 0.323, 0.188, 0.075])


def chain(n, load, eps):
    """The builtin cubic chain with a cosine load, as in the README."""
    return S.oscillator_chain(n, m=1.0, k=1.0, c=0.1, kappa=0.3,
                              forcing_amplitude=np.asarray(load, float),
                              eps=eps)


def fe_bar(n, seed):
    """
    A sparse finite-element-like bar of ``n`` nodes between two walls,
    built as CSR from ``seed``.

    Each choice is there for a reason:

    - FE scaling (lumped mass h per node, springs k_s / h, with
      h = 1 / (n + 1)) keeps the low spectrum fixed as n grows, as a
      mesh refinement would.
    - Spring stiffnesses carry seeded disorder of +-25 %, so that no
      eigenvalue sum lines up exactly and each seed is its own model.
    - Grounding springs 20 h bend the low-frequency dispersion away from
      the linear one of a uniform chain (omega_k ~ k pi), whose near
      integer ratios make the normal form fail with an outer resonance
      at orders 2 to 5 for n >= 2000.
    - Damping is proportional, C = 0.002 K: light enough
      (about 0.5 % of critical on the first mode) that the forced
      response folds at a reduced amplitude the expansion still
      describes. With ten times that damping the fold only appears
      where the fifth-order term is as large as the third-order one.
    - Cubic springs, kappa = 30 scaled by 1 / h**3, give the hardening
      that makes the fold.
    - A uniform load h (the consistent nodal load of a unit distributed
      load) at eps = 0.0067 puts the fold a little above omega_1.

    The matrices are built directly as sparse arrays: ``oscillator_chain``
    builds dense ones and runs a dense condition estimate on M.
    """
    rng = np.random.default_rng(seed)
    h = 1.0 / (n + 1)
    # spring s joins node s - 1 and node s; nodes -1 and n are the walls
    ks = (1.0 + 0.25 * rng.uniform(-1.0, 1.0, n + 1)) / h
    K = sp.diags([ks[:-1] + ks[1:] + 20.0 * h, -ks[1:-1], -ks[1:-1]],
                 [0, 1, -1], format="csr")
    M = sp.identity(n, format="csr") * h
    C = 0.002 * K

    # f_r = kappa_h * (e_r**3 - e_{r+1}**3) with e_s = x_s - x_{s-1}
    kappa_h = 30.0 / h**3
    rows, positions, values = [], [], []
    for s in range(n + 1):
        terms = [(node, sign) for node, sign in ((s, 1.0), (s - 1, -1.0))
                 if 0 <= node < n]
        for node, force_sign in terms:
            for a, ca in terms:
                for b, cb in terms:
                    for d, cd in terms:
                        rows.append(node)
                        positions.append((a * n + b) * n + d)
                        values.append(kappa_h * force_sign * ca * cb * cd)
    f3 = PolyCoeffs(3, n, n, rows, positions, values)
    return S.MechanicalSystem(M, C, K, [f3], S.cosine_forcing(h * np.ones(n)),
                              eps=0.0067)


def write(spec, seed, directory):
    """Write the model of a workload spec; returns the manifest path."""
    kind = spec["kind"]
    if kind == "chain":
        mech = chain(spec["n"], spec["load"], spec["eps"])
    elif kind == "fe_bar":
        mech = fe_bar(spec["n"], seed)
    else:
        raise ValueError("unknown model kind %r" % kind)
    return S.save_system(mech, directory)
