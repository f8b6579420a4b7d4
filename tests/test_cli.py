"""End-to-end runs of the command line front end."""

import json

import numpy as np
import pytest

from ssmkit import ManifoldExpansion, save_system
from ssmkit.cli import main
from test_cohomology import twin_rotor
from test_spectrum import csr_chain

FORCING = "[1,0,0,0,0,0,0,0,0,0]"


def test_model_reports_the_built_system(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["model", "--system.builtin", "chain"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["state_dim"] == 20
    assert info["harmonics"] == []
    assert info["degrees"] == [3]
    # the symmetry of M, C and K, which gives closed-form left vectors
    assert info["symmetric"] is True and "variant" not in info
    assert main(["model", "--system.builtin", "lorenz"]) == 0
    assert json.loads(capsys.readouterr().out)["symmetric"] is False

    assert main(["model", "--system.builtin", "chain",
                 "--system.forcing_amplitude", FORCING,
                 "--system.eps", "0.1"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert sorted(info["harmonics"]) == [[-1], [1]]
    assert info["eps"] == 0.1


def test_model_save_feeds_the_manifest_path(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "saved"
    assert main(["model", "--system.builtin", "chain",
                 "--model.output_dir", str(out_dir),
                 "--model.name", "chain6", "--system.n", "6"]) == 0
    capsys.readouterr()
    manifest = out_dir / "chain6.json"
    assert manifest.exists()
    code = main(["ssm", "--system.manifest", str(manifest),
                 "--ssm.select.pair", "1", "--ssm.order", "2",
                 "--ssm.n_outer", "4",
                 "--ssm.output", str(tmp_path / "man.json")])
    assert code == 0
    back = ManifoldExpansion.load(tmp_path / "man.json")
    assert back.N == 12


def test_ssm_prints_spectrum_and_writes_manifold(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "man.json"
    code = main(["ssm", "--system.builtin", "chain",
                 "--ssm.select.pair", "2", "--ssm.order", "3",
                 "--ssm.n_outer", "8", "--ssm.output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "master eigenvalues:" in text
    assert "resonances flagged:" in text
    assert "normalization error:" in text
    back = ManifoldExpansion.load(out)
    assert back.order == 3
    assert back.dim == 2


def test_frc_writes_every_requested_format(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["frc", "--system.builtin", "chain",
            "--system.forcing_amplitude", FORCING,
            "--system.eps", "0.05",
            "--ssm.select.pair", "2", "--ssm.order", "3",
            "--ssm.n_outer", "8",
            "--frc.omega_min", "0.54", "--frc.omega_max", "0.60",
            "--frc.n_omega", "3",
            "--frc.output_csv", str(tmp_path / "frc.csv"),
            "--frc.output_json", str(tmp_path / "frc.json"),
            "--frc.output_svg", str(tmp_path / "frc.svg")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "frc points:" in out
    data = json.loads((tmp_path / "frc.json").read_text())
    rows = (tmp_path / "frc.csv").read_text().splitlines()
    assert len(rows) == 1 + len(data["points"])
    assert (tmp_path / "frc.svg").read_text().startswith("<svg")


def test_identical_configs_give_identical_bytes(capsys, monkeypatch,
                                                tmp_path):
    monkeypatch.chdir(tmp_path)
    outs = []
    for name in ("one.csv", "two.csv"):
        argv = ["frc", "--system.builtin", "chain",
                "--system.forcing_amplitude", FORCING,
                "--system.eps", "0.05",
                "--ssm.select.pair", "2", "--ssm.order", "3",
                "--ssm.n_outer", "8",
                "--frc.omega", "[0.58, 0.6158]",
                "--frc.output_csv", str(tmp_path / name)]
        assert main(argv) == 0
        capsys.readouterr()
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_sparse_manifest_gives_identical_bytes(capsys, monkeypatch,
                                               tmp_path):
    monkeypatch.chdir(tmp_path)
    # a long uniform chain has near-integer frequency ratios, so no
    # outer modes are screened here (they would flag a resonance)
    manifest = save_system(csr_chain(310), tmp_path / "model", name="bar")
    outs = []
    for name in ("one.json", "two.json"):
        assert main(["ssm", "--system.manifest", str(manifest),
                     "--ssm.select.pair", "1", "--ssm.order", "3",
                     "--ssm.n_outer", "0",
                     "--ssm.output", str(tmp_path / name)]) == 0
        capsys.readouterr()
        outs.append((tmp_path / name).read_bytes())
    assert ManifoldExpansion.load(tmp_path / "one.json").N == 620
    assert outs[0] == outs[1]


def test_backbone_cli_on_the_conservative_spring(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bb.csv"
    argv = ["backbone", "--system.builtin", "chain", "--system.n", "1",
            "--system.c", "0.0", "--ssm.select.pair", "1",
            "--ssm.order", "5", "--ssm.n_outer", "0",
            "--backbone.rho_max", "0.1", "--backbone.n", "5",
            "--backbone.output_csv", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "omega(0) = 1.41421" in text
    assert len(out.read_text().splitlines()) == 6


def test_verify_cli_passes_in_the_asymptotic_window(capsys, monkeypatch,
                                                    tmp_path):
    monkeypatch.chdir(tmp_path)
    report_path = tmp_path / "report.json"
    argv = ["verify", "--system.builtin", "lorenz",
            "--ssm.select.indices", "[0,1]", "--ssm.order", "3",
            "--ssm.n_outer", "2",
            "--verify.radii", "[0.0001,0.000631,0.00398,0.01]",
            "--verify.output", str(report_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert 3.5 <= report["slope"] <= 4.5
    # one rounding floor per radius, each under its residual here
    assert len(report["floor"]) == len(report["radii"]) == 4
    assert all(0.0 < f < v for f, v in zip(report["floor"],
                                           report["residuals"]))


def test_verify_cli_flags_an_off_band_slope(capsys, monkeypatch, tmp_path):
    # with the cubic springs 10^5 times stiffer, the default radii lie
    # outside the asymptotic window of the order-5 expansion: the terms
    # it omits dominate, and the residual decays like rho**12.6, far off
    # the band around degree 7, which the verify command treats as a
    # failure
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--system.builtin", "chain", "--system.kappa", "3e4",
            "--ssm.select.pair", "2", "--ssm.order", "5",
            "--ssm.n_outer", "8"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "expected band [6.5, 7.5]" in captured.out
    assert "numerical failure" in captured.err


def test_outer_resonance_exit_code(capsys, tmp_path):
    manifest = save_system(twin_rotor(0), tmp_path / "rotor",
                           name="rotor")
    argv = ["ssm", "--system.manifest", str(manifest),
            "--ssm.select.indices", "[0,1]", "--ssm.order", "3",
            "--ssm.n_outer", "2"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "outer resonance" in err


def test_config_file_with_flag_precedence(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "system": {"builtin": "chain", "n": 6},
        "ssm": {"select": {"pair": 1}, "order": 2, "n_outer": 4,
                "output": str(tmp_path / "man.json")},
    }))
    assert main(["ssm", "--config", str(cfg), "--ssm.order=3"]) == 0
    capsys.readouterr()
    back = ManifoldExpansion.load(tmp_path / "man.json")
    assert back.order == 3
    assert back.N == 12


def test_bad_inputs_exit_with_code_2(capsys, tmp_path):
    assert main(["ssm", "--system.builtin", "chain",
                 "--ssm.oder", "3"]) == 2
    assert "unknown config key" in capsys.readouterr().err

    # the lift has no layout to choose
    assert main(["ssm", "--system.builtin", "chain",
                 "--first_order.variant", "L1"]) == 2
    assert "unknown config key" in capsys.readouterr().err

    assert main(["ssm", "--system.builtin", "mars"]) == 2
    assert "unknown builtin" in capsys.readouterr().err

    assert main(["ssm"]) == 2
    assert "no system given" in capsys.readouterr().err

    assert main(["ssm", "--system.builtin", "chain",
                 "--ssm.select", "2"]) == 2
    assert "is a section" in capsys.readouterr().err

    # an empty or zero selection is refused, not read as the default
    for flag, value, message in (("pair", "0", "numbered 1..10"),
                                 ("indices", "[]", "lists no indices"),
                                 ("count", "0", "count must be >= 1")):
        assert main(["ssm", "--system.builtin", "chain",
                     "--ssm.select.%s" % flag, value]) == 2
        assert message in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ssm", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_frc_amplitude_has_one_key(capsys):
    # --system.eps sets the forcing amplitude of every command
    assert main(["frc", "--system.builtin", "chain", "--frc.eps",
                 "0.05"]) == 2
    assert "unknown config key 'frc.eps'" in capsys.readouterr().err


def test_empty_samples_exit_with_code_2(capsys, tmp_path):
    # each count sizes a sample whose largest value the command reports
    chain = ["--system.builtin", "chain", "--ssm.select.pair", "2",
             "--ssm.order", "3", "--ssm.n_outer", "8"]
    assert main(["verify"] + chain + ["--verify.n_dirs", "0"]) == 2
    assert "n_dirs must be an integer >= 1" in capsys.readouterr().err
    assert main(["frc"] + chain + [
        "--system.forcing_amplitude", FORCING, "--system.eps", "0.05",
        "--frc.omega", "[0.6158]", "--frc.n_phases", "0",
        "--frc.output_csv", str(tmp_path / "frc.csv")]) == 2
    assert "n_phases must be an integer >= 1" in capsys.readouterr().err
    assert main(["backbone", "--system.builtin", "chain", "--system.n", "1",
                 "--system.c", "0.0", "--ssm.select.pair", "1",
                 "--ssm.n_outer", "0", "--backbone.n_phases", "0",
                 "--backbone.output_csv", str(tmp_path / "bb.csv")]) == 2
    assert "n_phases must be an integer >= 1" in capsys.readouterr().err
    # the check works out its rounding floor and takes none
    assert main(["verify"] + chain + ["--verify.floor", "1e-11"]) == 2
    assert "unknown config key 'verify.floor'" in capsys.readouterr().err


def test_argparse_level_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ssmkit" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code == 2
