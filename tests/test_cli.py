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
                 "--ssm.output", str(tmp_path / "man.bin")])
    assert code == 0
    back = ManifoldExpansion.load(tmp_path / "man.bin")
    assert back.N == 12


def test_ssm_prints_spectrum_and_writes_manifold(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "man.bin"
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


@pytest.mark.parametrize("key,bare", [("frc.omega", "0.6158"),
                                      ("frc.dofs", "4")])
def test_frc_reads_a_bare_number_as_a_one_element_list(key, bare, capsys,
                                                       monkeypatch, tmp_path):
    # the dotted overrides parse a bare number as JSON; both keys took
    # lists only and died with a TypeError, exit code 1
    monkeypatch.chdir(tmp_path)
    outs = []
    for name, value in (("bare.csv", bare), ("list.csv", "[%s]" % bare)):
        flags = {"--frc.omega": "[0.58, 0.6158]", "--frc.dofs": "[4, 7]",
                 "--" + key: value}
        argv = ["frc", "--system.builtin", "chain",
                "--system.forcing_amplitude", FORCING,
                "--system.eps", "0.05",
                "--ssm.select.pair", "2", "--ssm.order", "3",
                "--ssm.n_outer", "8",
                "--frc.output_csv", str(tmp_path / name)]
        for flag, value in flags.items():
            argv += [flag, value]
        assert main(argv) == 0
        capsys.readouterr()
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    # one frequency, or one amplitude column
    header, *rows = outs[0].decode().splitlines()
    if key == "frc.omega":
        assert {row.split(",")[0] for row in rows} == {"0.61580000000000001"}
    else:
        assert header.endswith(",stable,amp_dof_4")
    # what is neither a number nor a list of them exits 2
    argv[argv.index("--" + key) + 1] = "[[%s]]" % bare
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


def test_sparse_manifest_gives_identical_bytes(capsys, monkeypatch,
                                               tmp_path):
    monkeypatch.chdir(tmp_path)
    # a long uniform chain has near-integer frequency ratios, so no
    # outer modes are screened here (they would flag a resonance)
    manifest = save_system(csr_chain(310), tmp_path / "model", name="bar")
    outs = []
    for name in ("one.bin", "two.bin"):
        assert main(["ssm", "--system.manifest", str(manifest),
                     "--ssm.select.pair", "1", "--ssm.order", "3",
                     "--ssm.n_outer", "0",
                     "--ssm.output", str(tmp_path / name)]) == 0
        capsys.readouterr()
        outs.append((tmp_path / name).read_bytes())
    assert ManifoldExpansion.load(tmp_path / "one.bin").N == 620
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
                "output": str(tmp_path / "man.bin")},
    }))
    assert main(["ssm", "--config", str(cfg), "--ssm.order=3"]) == 0
    capsys.readouterr()
    back = ManifoldExpansion.load(tmp_path / "man.bin")
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

    # every count and index must be a JSON integer: 0.5 is not read as
    # dof 0, nor 2.7 as order 2 (nor true as 1)
    chain = ["--system.builtin", "chain", "--ssm.select.pair", "2",
             "--ssm.n_outer", "8"]
    for command, key, value in (
            ("ssm", "system.n", "10.0"), ("ssm", "ssm.order", "2.7"),
            ("ssm", "ssm.n_outer", "8.5"), ("frc", "frc.n_omega", "3.5"),
            ("backbone", "backbone.n", "4.5"),
            ("backbone", "backbone.dof", "0.5"),
            ("verify", "verify.n_dirs", "2.5"),
            ("verify", "verify.seed", "true")):
        argv = [command] + chain + ["--" + key, value,
                                    "--frc.omega_min", "0.54",
                                    "--frc.omega_max", "0.6",
                                    "--frc.output_csv",
                                    str(tmp_path / "frc.csv"),
                                    "--backbone.output_csv",
                                    str(tmp_path / "bb.csv"),
                                    "--ssm.output", str(tmp_path / "m.bin")]
        assert main(argv) == 2, key
        assert ("%s must be an integer, not %r"
                % (key, json.loads(value)) in capsys.readouterr().err)

    # and so must every entry of a selection: 1.5 is not read as pair 1
    for flags, message in (
            (["--ssm.select.pair", "1.5"], "the pair must be an integer, "
                                           "not 1.5"),
            (["--ssm.select.count", "2.5"], "the selection count must be an "
                                            "integer, not 2.5"),
            (["--ssm.select.indices", "[0.5,1]"], "a selection index must be "
                                                  "an integer, not 0.5"),
            (["--ssm.style", "per-mode", "--ssm.graph_modes", "[0.5]"],
             "a graph mode must be an integer, not 0.5")):
        argv = ["ssm", "--system.builtin", "chain", "--ssm.output",
                str(tmp_path / "m.bin")] + flags
        assert main(argv) == 2, flags
        assert message in capsys.readouterr().err

    # the amplitude lift samples a fixed 128 phases a cycle
    for command, key in (("frc", "frc.n_phases"),
                         ("backbone", "backbone.n_phases")):
        assert main([command] + chain + ["--" + key, "64"]) == 2
        assert ("unknown config key %r" % key) in capsys.readouterr().err

    # a swept frequency must be positive and finite, and a dof an
    # integer: NaN exited 3 from the forcing solve, and true was read
    # as state 1
    frc = ["frc"] + chain + ["--system.forcing_amplitude", FORCING,
                             "--system.eps", "0.05", "--ssm.order", "3",
                             "--frc.output_csv", str(tmp_path / "frc.csv")]
    for flags, message in (
            (["--frc.omega", "[NaN]"], "must be positive and finite"),
            (["--frc.omega", "[0.6, 0]"], "must be positive and finite"),
            (["--frc.omega", "[0.6158]", "--frc.dofs", "[true]"],
             "integer state index")):
        assert main(frc + flags) == 2, flags
        assert message in capsys.readouterr().err


def test_frc_amplitude_has_one_key(capsys):
    # --system.eps sets the forcing amplitude of every command
    assert main(["frc", "--system.builtin", "chain", "--frc.eps",
                 "0.05"]) == 2
    assert "unknown config key 'frc.eps'" in capsys.readouterr().err


def _set(key, value):
    """An edit of a manifest that sets ``key`` to ``value``."""
    return lambda manifest: json.dumps(dict(manifest, **{key: value}))


def _first_forcing(**fields):
    """An edit of a manifest's first forcing entry."""
    def edit(manifest):
        forcing = [dict(manifest["forcing"][0], **fields)]
        return json.dumps(dict(manifest, forcing=forcing))
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda manifest: json.dumps(manifest)[:-1], "is not valid JSON"),
    (lambda manifest: json.dumps([manifest]), "root must be a JSON object"),
    (_set("epsilon", "abc"), "field 'epsilon' must be a number, not 'abc'"),
    (_set("epsilon", None), "field 'epsilon' must be a number, not None"),
    (_set("tensors", {"x": "system_f3.txt"}), "has key 'x'"),
    (_first_forcing(real=["a", 0, 0]), "must be lists of numbers"),
    # a conjugate pair at 1.5 used to be stored as the pair at 1
    (lambda manifest: json.dumps(dict(manifest, forcing=[
        dict(entry, kappa=[1.5 * entry["kappa"][0]])
        for entry in manifest["forcing"]])), "label entry must be an integer"),
], ids=["json", "list-root", "epsilon-abc", "epsilon-null", "tensor-key",
        "forcing-real", "kappa-1.5"])
def test_malformed_manifests_exit_with_code_2(edit, message, capsys,
                                              tmp_path):
    assert main(["model", "--system.builtin", "chain", "--system.n", "3",
                 "--system.forcing_amplitude", "[1,0,0]", "--system.eps",
                 "0.1", "--model.output_dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "system.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(edit(manifest))
    capsys.readouterr()
    assert main(["model", "--system.manifest", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_empty_samples_exit_with_code_2(capsys, tmp_path):
    # each count sizes a sample whose largest value the command reports
    chain = ["--system.builtin", "chain", "--ssm.select.pair", "2",
             "--ssm.order", "3", "--ssm.n_outer", "8"]
    assert main(["verify"] + chain + ["--verify.n_dirs", "0"]) == 2
    assert "n_dirs must be an integer >= 1" in capsys.readouterr().err
    # an empty backbone used to die on its first point with an IndexError
    assert main(["backbone", "--system.builtin", "chain", "--system.n", "1",
                 "--system.c", "0.0", "--ssm.select.pair", "1",
                 "--ssm.n_outer", "0", "--backbone.n", "0",
                 "--backbone.output_csv", str(tmp_path / "bb.csv")]) == 2
    assert "n must be an integer >= 1" in capsys.readouterr().err
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
