"""
Command line front end.

One JSON config file drives every subcommand, and any config field can
be overridden on the command line with its dotted name::

    ssmkit ssm --config chain.json --ssm.order 7 --ssm.style graph
    ssmkit frc --system.builtin chain --system.n 10 \\
        --system.forcing_amplitude "[1,0,0,0,0,0,0,0,0,0]" \\
        --system.eps 0.05 --frc.omega_min 0.5 --frc.omega_max 0.7

Override values are parsed as JSON when possible (so lists, numbers,
null and booleans work) and fall back to plain strings. Counts and
indices (``ssm.order``, ``backbone.dof``, ...) must be JSON integers.
Precedence is flag over file over default. Outputs are plain text with
full float precision and are byte-identical for identical configs and
seeds.

Exit codes: 0 success, 2 invalid input, config or model manifest, 3
numerical failure, 4 outer resonance obstruction.
"""

import argparse
import copy
import json
import sys

import numpy as np

from . import __version__
from .analysis import (_fmt, backbone, frc_sweep, write_backbone_csv,
                       write_frc_csv, write_frc_json, write_frc_svg)
from .cohomology import compute_manifold
from .errors import (NumericalError, OuterResonanceError, ValidationError,
                     as_index)
from .fileio import load_system, save_system
from .model import as_first_order, lorenz_extended, oscillator_chain
from .spectrum import check_normalization, master_spectrum
from .verify import invariance_residual

DEFAULTS = {
    "system": {
        "manifest": None,
        "builtin": None,
        "n": 10, "m": 1.0, "k": 1.0, "c": 0.1, "kappa": 0.3,
        "sigma": 1.0, "beta": 1.0,
        "forcing_amplitude": None,
        "eps": None,
    },
    "model": {"output_dir": None, "name": "system"},
    "ssm": {
        "select": {"mode": "smallest", "count": 2, "indices": None,
                   "pair": None},
        "order": 3,
        "style": "normal-form",
        "graph_modes": [],
        "n_outer": 10,
        "method": "auto",
        "shift": 0.0,
        "tol": {"rel": 1e-3, "slack": 1.0, "abs": None},
        "on_outer": None,
        "output": "manifold.bin",
    },
    "frc": {
        "omega": None,
        "omega_min": None, "omega_max": None, "n_omega": 41,
        "eta": None, "dofs": [],
        "output_csv": "frc.csv", "output_json": None, "output_svg": None,
    },
    "backbone": {
        "rho_max": 0.3, "n": 40, "dof": 0,
        "output_csv": "backbone.csv",
    },
    "verify": {
        "radii": [0.1, 0.0631, 0.0398, 0.0251, 0.0158, 0.01],
        "n_dirs": 16, "seed": 0, "output": None,
    },
}


def _merge(base, override, path=""):
    for key, value in override.items():
        where = "%s.%s" % (path, key) if path else key
        if key not in base:
            raise ValidationError("unknown config key %r" % where)
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge(base[key], value, where)
        else:
            base[key] = value


def _apply_override(cfg, dotted, raw):
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ValidationError("unknown config key %r" % dotted)
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ValidationError("unknown config key %r" % dotted)
    if isinstance(node[leaf], dict) and not isinstance(value, dict):
        raise ValidationError(
            "config key %r is a section; set one of its fields" % dotted)
    node[leaf] = value


def _parse_overrides(cfg, extra):
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ValidationError("unexpected argument %r" % tok)
        body = tok[2:]
        if "=" in body:
            key, raw = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(extra):
                raise ValidationError("flag --%s needs a value" % key)
            raw = extra[i + 1]
            i += 2
        _apply_override(cfg, key, raw)


def _load_config(argv):
    parser = argparse.ArgumentParser(
        prog="ssmkit",
        description="Invariant-manifold reduced models for mechanical "
                    "and first-order systems.")
    parser.add_argument("--version", action="version",
                        version="ssmkit %s" % __version__)
    parser.add_argument("command",
                        choices=["model", "ssm", "frc", "backbone", "verify"])
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its fields")
    args, extra = parser.parse_known_args(argv)
    cfg = copy.deepcopy(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
                raise ValidationError("config %s is not valid JSON: %s"
                                      % (args.config, exc)) from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError("config root must be a JSON object")
        _merge(cfg, file_cfg)
    _parse_overrides(cfg, extra)
    return args.command, cfg


def _integer(cfg, dotted):
    """The count or index at ``dotted`` (``"ssm.order"``); ValidationError
    unless the config holds a JSON integer there, so that 2.7 is not
    read as 2."""
    section, key = dotted.split(".")
    return as_index(cfg[section][key], dotted)


def _build_system(cfg):
    scfg = cfg["system"]
    if scfg["manifest"]:
        system = as_first_order(load_system(scfg["manifest"]))
    elif scfg["builtin"] == "chain":
        system = as_first_order(oscillator_chain(
            _integer(cfg, "system.n"), m=float(scfg["m"]), k=float(scfg["k"]),
            c=float(scfg["c"]), kappa=float(scfg["kappa"]),
            forcing_amplitude=scfg["forcing_amplitude"],
            eps=float(scfg["eps"] or 0.0)))
    elif scfg["builtin"] == "lorenz":
        system = lorenz_extended(sigma=float(scfg["sigma"]),
                                 beta=float(scfg["beta"]))
    elif scfg["builtin"]:
        raise ValidationError("unknown builtin %r (chain or lorenz)"
                              % scfg["builtin"])
    else:
        raise ValidationError(
            "no system given; set system.manifest or system.builtin")
    if scfg["eps"] is not None:
        system.eps = float(scfg["eps"])
    return system


def _resolve_select(sel):
    if sel.get("indices") is not None:
        return {"mode": "indices", "indices": sel["indices"]}
    if sel.get("pair") is not None:
        return {"mode": "pair", "pair": sel["pair"]}
    return {"mode": sel.get("mode", "smallest"),
            "count": sel.get("count", 2)}


def _build_manifold(cfg, system):
    ssm = cfg["ssm"]
    master = master_spectrum(system, select=_resolve_select(ssm["select"]),
                             n_outer=_integer(cfg, "ssm.n_outer"),
                             method=ssm["method"],
                             shift=complex(ssm["shift"]))
    manifold = compute_manifold(system, master, _integer(cfg, "ssm.order"),
                                style=ssm["style"],
                                graph_modes=ssm["graph_modes"],
                                tol=ssm["tol"], on_outer=ssm["on_outer"])
    return master, manifold


def _fmt_complex(z):
    z = complex(z)
    return "%s %s %si" % (_fmt(z.real), "-" if z.imag < 0 else "+",
                          _fmt(abs(z.imag)))


def _cmd_model(cfg):
    system = _build_system(cfg)
    info = {
        "state_dim": system.N,
        # the M, C, K symmetry that gives closed-form left eigenvectors
        "symmetric": system.mech is not None and system.mech.symmetric,
        "degrees": sorted(fc.degree for fc in system.F_coeffs),
        "harmonics": [list(kt) for kt, _ in system.forcing],
        "eps": system.eps,
    }
    print(json.dumps(info, indent=1, sort_keys=True))
    out = cfg["model"]["output_dir"]
    if out:
        target = system.mech if system.mech is not None else system
        path = save_system(target, out, name=cfg["model"]["name"])
        print("wrote %s" % path)
    return 0


def _cmd_ssm(cfg):
    system = _build_system(cfg)
    master, manifold = _build_manifold(cfg, system)
    print("master eigenvalues:")
    for lam in master.lambdas:
        print("  %s" % _fmt_complex(lam))
    print("normalization error: %.3e" % check_normalization(master, system))
    lines = manifold.resonances.describe()
    print("resonances flagged: %d" % len(lines))
    for ln in lines:
        print("  " + ln)
    out = cfg["ssm"]["output"]
    if out:
        manifold.save(out)
        print("wrote %s" % out)
    return 0


def _frc_grid(cfg):
    fcfg = cfg["frc"]
    omega = fcfg["omega"]
    if omega is not None and np.ndim(omega) == 0:
        omega = [omega]  # a bare number, as --frc.omega 0.6158 gives
    if omega:
        try:
            return [float(w) for w in omega]
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "frc.omega must be a number or a list of numbers, got %r"
                % (fcfg["omega"],)) from exc
    if fcfg["omega_min"] is None or fcfg["omega_max"] is None:
        raise ValidationError(
            "set frc.omega or both frc.omega_min and frc.omega_max")
    lo, hi = float(fcfg["omega_min"]), float(fcfg["omega_max"])
    n = _integer(cfg, "frc.n_omega")
    if not (hi > lo and n >= 2):
        raise ValidationError("need omega_max > omega_min and n_omega >= 2")
    return np.linspace(lo, hi, n).tolist()


def _cmd_frc(cfg):
    system = _build_system(cfg)
    _, manifold = _build_manifold(cfg, system)
    fcfg = cfg["frc"]
    result = frc_sweep(manifold, _frc_grid(cfg),
                       dofs=fcfg["dofs"], eta=fcfg["eta"])
    print("frc points: %d (eta=%d, eps=%s)"
          % (len(result.points), result.eta, _fmt(result.eps)))
    if fcfg["output_csv"]:
        write_frc_csv(result, fcfg["output_csv"])
        print("wrote %s" % fcfg["output_csv"])
    if fcfg["output_json"]:
        write_frc_json(result, fcfg["output_json"])
        print("wrote %s" % fcfg["output_json"])
    if fcfg["output_svg"]:
        write_frc_svg(result, fcfg["output_svg"])
        print("wrote %s" % fcfg["output_svg"])
    return 0


def _cmd_backbone(cfg):
    system = _build_system(cfg)
    _, manifold = _build_manifold(cfg, system)
    bcfg = cfg["backbone"]
    curve = backbone(manifold, float(bcfg["rho_max"]),
                     n=_integer(cfg, "backbone.n"),
                     dof=_integer(cfg, "backbone.dof"))
    print("backbone points: %d" % curve.rho.size)
    print("omega(0) = %s" % _fmt(curve.omega[0]))
    if bcfg["output_csv"]:
        write_backbone_csv(curve, bcfg["output_csv"])
        print("wrote %s" % bcfg["output_csv"])
    return 0


def _cmd_verify(cfg):
    system = _build_system(cfg)
    _, manifold = _build_manifold(cfg, system)
    vcfg = cfg["verify"]
    report = invariance_residual(manifold, vcfg["radii"],
                                 n_dirs=_integer(cfg, "verify.n_dirs"),
                                 seed=_integer(cfg, "verify.seed"))
    for line in report.describe():
        print(line)
    if vcfg["output"]:
        with open(vcfg["output"], "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % vcfg["output"])
    if not report.passed:
        raise NumericalError(
            "invariance residual decays like %s, outside [%g, %g]"
            % ("%.3f" % report.slope if report.slope is not None else "n/a",
               report.band[0], report.band[1]))
    return 0


COMMANDS = {
    "model": _cmd_model,
    "ssm": _cmd_ssm,
    "frc": _cmd_frc,
    "backbone": _cmd_backbone,
    "verify": _cmd_verify,
}


def main(argv=None):
    try:
        command, cfg = _load_config(argv)
        return COMMANDS[command](cfg)
    except OuterResonanceError as exc:
        print("outer resonance: %s" % exc, file=sys.stderr)
        return 4
    except ValidationError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
