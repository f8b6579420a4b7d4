"""Manifest round-trips and the 1-based triplet tensor format."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from ssmkit import (MechanicalSystem, FirstOrderSystem, as_first_order,
                    build_first_order, compute_manifold, master_spectrum,
                    oscillator_chain, load_system, save_system)
from ssmkit.errors import ValidationError
from ssmkit.fileio import read_tensor_text, write_tensor_text
from ssmkit.multiindex import encode_positions
from ssmkit.polytensor import PolyCoeffs
from test_spectrum import csr_chain


def reference_read(path, nrows, nvars):
    """
    The per-line reader that the one-pass parse replaced, kept as the
    reference: Python's int and float on each field, and
    the Kronecker position of each index tuple.
    """
    rows, positions, values = [], [], []
    degree = None
    with open(path) as fh:
        for line in fh:
            body = line.strip()
            if not body or body[0] in "#%":
                continue
            parts = body.split()
            if degree is None:
                degree = len(parts) - 2
            assert len(parts) == degree + 2
            rows.append(int(parts[0]) - 1)
            idx = [[int(p) - 1] for p in parts[1:-1]]
            positions.append(int(encode_positions(idx, nvars)[0]))
            values.append(float(parts[-1]))
    return PolyCoeffs(degree, nrows, nvars, rows, positions, values)


def reference_write(path, coeffs):
    """The per-entry writer that the one-template writer replaced."""
    with open(path, "w") as fh:
        fh.write("# columns: row  %s  value\n"
                 % "  ".join("i%d" % (k + 1) for k in range(coeffs.degree)))
        for row, idx, value in coeffs.entries():
            fh.write("%d  %s  %.17g\n"
                     % (row + 1, " ".join("%d" % (i + 1) for i in idx), value))


def assert_bitwise_equal(a, b):
    assert (a.degree, a.nrows, a.nvars) == (b.degree, b.nrows, b.nvars)
    for name in ("rows", "values", "factors"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def random_lines(rng, count, n, degree=3):
    """Data lines of a random block in assorted number spellings."""
    spell = ["%r", "%.17g", "%.6e", "%g", "%.3f", "%+.10E"]
    lines = []
    for _ in range(count):
        idx = " ".join(str(i) for i in rng.integers(1, n + 1, degree))
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
        fmt = spell[rng.integers(len(spell))]
        lines.append("%d %s %s" % (rng.integers(1, n + 1), idx,
                                   fmt % value))
    return lines


def test_tensor_text_roundtrip(tmp_path):
    fc = PolyCoeffs.from_entries(3, 4, 4, [(0, (1, 1, 2), -0.25),
                                           (3, (2, 2, 2), 1.0)])
    path = tmp_path / "f3.txt"
    write_tensor_text(path, fc)
    back = read_tensor_text(path, 4, 4)
    assert np.allclose(back.to_dense(), fc.to_dense())


def test_tensor_text_is_one_based(tmp_path):
    path = tmp_path / "f2.txt"
    path.write_text("# a comment\n% another comment style\n\n1 1 1 2.0\n")
    fc = read_tensor_text(path, 2, 2)
    (row, idx, val), = fc.entries()
    assert (row, idx, val) == (0, (0, 0), 2.0)


def test_tensor_text_sums_duplicates(tmp_path):
    path = tmp_path / "f2.txt"
    path.write_text("2 1 2 1.5\n2 1 2 -0.5\n")
    fc = read_tensor_text(path, 2, 2)
    (row, idx, val), = fc.entries()
    assert (row, idx, val) == (1, (0, 1), 1.0)


def test_tensor_text_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 1 1.0\n1 0 1 2.0\n")
    with pytest.raises(ValidationError, match=r"bad.txt:2.*1-based"):
        read_tensor_text(path, 2, 2)
    path.write_text("1 1 1 1.0\n1 1 2.0\n")
    with pytest.raises(ValidationError, match=r"bad.txt:2.*columns"):
        read_tensor_text(path, 2, 2)
    path.write_text("1 3 1 1.0\n")
    with pytest.raises(ValidationError, match=r"bad.txt:1"):
        read_tensor_text(path, 2, 2)
    path.write_text("1 1 1 abc\n")
    with pytest.raises(ValidationError, match=r"bad.txt:1"):
        read_tensor_text(path, 2, 2)
    path.write_text("# only comments\n")
    with pytest.raises(ValidationError, match="no entries"):
        read_tensor_text(path, 2, 2)


def test_one_pass_read_is_bitwise_the_per_line_read(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "f3.txt"
    # 10^4 entries over 12 variables: many duplicates to sum
    path.write_text("# random block\n"
                    + "\n".join(random_lines(rng, 10_000, 12)) + "\n")
    assert_bitwise_equal(read_tensor_text(path, 12, 12),
                         reference_read(path, 12, 12))


def test_one_pass_read_takes_the_per_line_syntax(tmp_path):
    path = tmp_path / "f3.txt"
    path.write_bytes(
        b"# header\r\n"
        b"   # indented hash comment\r\n"
        b"\t% indented percent comment\r\n"
        b"\r\n"
        b"  \t \r\n"
        b"+1\t01 2 3\t.5\r\n"
        b"  2 1 +3 1 -1.25e-3  \r\n"
        b"3\t\t3 3 3 1E+2\n"
        b"1 2 1 1 -.75\n"
        b"4 001 1 1 1.\n"
        b"2 2 2 2 6.02214076e23\n"
        b"\n"
        b"% trailing comment\n"
        b"3 1 2 3 -0e0\n"
        b"1 1 1 1 +7E-310\r"
        b"2 3 3 1 0.25\n"
        b"4 3 2 1 12")
    fc = read_tensor_text(path, 4, 3)
    assert_bitwise_equal(fc, reference_read(path, 4, 3))
    assert fc.nnz == 10


@pytest.mark.parametrize("line, reason", [
    ("1 1 1 0.5", "expected 5 columns, found 4"),
    ("1 1 1 1 0.5 0.5", "expected 5 columns, found 6"),
    ("1 1 1.5 1 0.5", "1.5"),
    ("1 1 1 1 0.5x", "0.5x"),
    ("5 1 1 1 0.5", "row 5 outside 1..4"),
    ("0 1 1 1 0.5", "row 0 outside 1..4"),
    ("1 1 4 1 0.5", "index 4 outside 1..3"),
    ("1 1 1 1 nan", "not finite"),
    ("1 1 1 1 -inf", "not finite"),
    ("1 1 1 1 1e400", "not finite"),
])
def test_each_fault_names_its_line_after_good_lines(tmp_path, line, reason):
    rng = np.random.default_rng(3)
    good = random_lines(rng, 5000, 3)
    good = [" ".join(["%d" % (1 + int(g.split()[0]) % 4)] + g.split()[1:])
            for g in good]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(good + [line] + good[:10]) + "\n")
    with pytest.raises(ValidationError, match=r"bad\.txt:5001: .*" + reason):
        read_tensor_text(path, 4, 3)


def test_the_first_fault_in_the_file_is_named(tmp_path):
    path = tmp_path / "bad.txt"
    # a range fault on line 2 comes before a parse fault on line 3
    path.write_text("1 1 1 1.0\n9 1 1 1.0\n1 1 1 abc\n")
    with pytest.raises(ValidationError, match=r"bad\.txt:2: row 9"):
        read_tensor_text(path, 2, 2)
    # CRLF endings and comments count as lines
    path.write_bytes(b"# c\r\n1 1 1 1.0\r\n\r\n% c\r\n1 1 3 1.0\r\n")
    with pytest.raises(ValidationError, match=r"bad\.txt:5: index 3"):
        read_tensor_text(path, 2, 2)


def test_python_only_number_syntax_is_refused(tmp_path):
    # Python's int and float take digit separators and non-ASCII
    # digits; numpy's parser does not
    path = tmp_path / "bad.txt"
    for line in ("1 1 1 1_000", "1_0 1 1 1.0", "1 1 1 1.5_0",
                 "\u0661 1 1 1.0", "1 1 1 \uff12"):
        path.write_text("1 1 1 1.0\n%s\n" % line, encoding="utf-8")
        reference_read(path, 20, 2)
        with pytest.raises(ValidationError, match=r"bad\.txt:2: "):
            read_tensor_text(path, 20, 2)


def test_one_template_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    for degree in (1, 2, 3):
        src = tmp_path / "src.txt"
        src.write_text("\n".join(random_lines(rng, 2000, 6, degree)) + "\n")
        fc = read_tensor_text(src, 6, 6)
        write_tensor_text(tmp_path / "new.txt", fc)
        reference_write(tmp_path / "old.txt", fc)
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())
        assert_bitwise_equal(read_tensor_text(tmp_path / "new.txt", 6, 6), fc)


def test_complex_values_write_only_when_real(tmp_path):
    real = PolyCoeffs.from_entries(2, 2, 2, [(0, (0, 1), 1.5),
                                             (1, (1, 1), -2.0)])
    path = tmp_path / "f2.txt"
    write_tensor_text(path, real)
    expected = path.read_bytes()
    zero_imag = PolyCoeffs.from_factors(2, 2, 2, real.rows, real.factors,
                                        real.values + 0j)
    write_tensor_text(path, zero_imag)
    assert path.read_bytes() == expected
    lossy = PolyCoeffs.from_factors(2, 2, 2, real.rows, real.factors,
                                    real.values + [0j, 2j])
    with pytest.raises(ValidationError, match="imaginary"):
        write_tensor_text(path, lossy)


def test_non_finite_values_are_not_written(tmp_path):
    F2 = PolyCoeffs.from_entries(2, 3, 3, [(0, (0, 1), 1.0),
                                           (1, (0, 2), np.nan)])
    sys = FirstOrderSystem(-np.eye(3), np.eye(3), [F2])
    with pytest.raises(ValidationError,
                       match=r"fo_f2\.txt: the degree-2 block .*non-finite"):
        save_system(sys, tmp_path, name="fo")
    assert not (tmp_path / "fo_f2.txt").exists()
    for bad in (np.inf, -np.inf, complex(np.nan, 0.0)):
        F3 = PolyCoeffs.from_entries(3, 3, 3, [(2, (0, 1, 2), bad)])
        with pytest.raises(ValidationError, match="degree-3 .*non-finite"):
            write_tensor_text(tmp_path / "f3.txt", F3)


def test_empty_blocks_are_not_written(tmp_path):
    F2 = PolyCoeffs.from_entries(2, 3, 3, [(1, (0, 2), -2.0)])
    F3 = PolyCoeffs(3, 3, 3, [], [], [])
    sys = FirstOrderSystem(-np.eye(3), np.eye(3), [F2, F3])
    manifest = save_system(sys, tmp_path, name="fo")
    with open(manifest) as fh:
        assert json.load(fh)["tensors"] == {"2": "fo_f2.txt"}
    assert not (tmp_path / "fo_f3.txt").exists()
    back = load_system(manifest)
    assert [b.degree for b in back.F_coeffs] == [2]
    z = np.array([0.3, -1.0, 2.0])
    assert np.array_equal(back.F_eval(z), sys.F_eval(z))


def test_mech_roundtrip(tmp_path):
    mech = oscillator_chain(5, c=0.2, kappa=0.4,
                            forcing_amplitude=[1, 0, 0, 0, 2.0], eps=0.1)
    manifest = save_system(mech, tmp_path, name="chain")
    back = load_system(manifest)
    assert isinstance(back, MechanicalSystem)
    assert np.allclose(back.M, mech.M)
    assert np.allclose(back.C, mech.C)
    assert np.allclose(back.K, mech.K)
    assert back.eps == mech.eps
    assert len(back.forcing) == len(mech.forcing)
    for (kt_a, vec_a), (kt_b, vec_b) in zip(back.forcing, mech.forcing):
        assert kt_a == kt_b
        assert np.allclose(vec_a, vec_b)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    assert np.allclose(back.f_eval(x), mech.f_eval(x))


def test_forcing_round_trips_bit_for_bit(tmp_path):
    # the real and imaginary parts are read apart: an imaginary -0.0
    # keeps its sign
    vec = np.array([complex(1.0, -0.0), complex(-0.0, 1e-300), 0.5j])
    mech = MechanicalSystem(np.eye(3), np.zeros((3, 3)), np.eye(3), eps=0.1,
                            forcing=[((1,), vec), ((-1,), vec.conj())])
    back = load_system(save_system(mech, tmp_path))
    assert [kt for kt, _ in back.forcing] == [kt for kt, _ in mech.forcing]
    for (_, got), (_, want) in zip(back.forcing, mech.forcing):
        assert got.tobytes() == want.tobytes()


def test_non_finite_forcing_in_a_manifest_is_refused(tmp_path):
    manifest = save_system(MechanicalSystem(np.eye(2), np.zeros((2, 2)),
                                            np.eye(2)), tmp_path)
    with open(manifest) as fh:
        data = json.load(fh)
    data.update(epsilon=0.1, forcing=[
        {"kappa": [1], "real": [float("nan"), 0.0], "imag": [0.0, 0.0]},
        {"kappa": [-1], "real": [float("nan"), 0.0], "imag": [0.0, 0.0]}])
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ValidationError, match=r"harmonic \(1,\) has "
                       "non-finite entries"):
        load_system(manifest)


def test_first_order_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    F = PolyCoeffs.from_entries(2, 3, 3, [(1, (0, 2), -2.0)])
    sys = FirstOrderSystem(A, np.eye(3), [F])
    manifest = save_system(sys, tmp_path, name="fo")
    back = load_system(manifest)
    assert isinstance(back, FirstOrderSystem)
    assert np.allclose(back.A, A)
    z = rng.standard_normal(3)
    assert np.allclose(back.F_eval(z), sys.F_eval(z))


def test_sparse_matrices_stay_sparse_when_large(tmp_path):
    n = 500
    mech = MechanicalSystem(sp.identity(n, format="csr"),
                            sp.csr_matrix((n, n)),
                            sp.diags([2.0] * n, format="csr"))
    manifest = save_system(mech, tmp_path)
    back = load_system(manifest)
    assert sp.issparse(back.K)


def test_a_small_csr_model_loads_as_csr(tmp_path):
    # the file's format decides the storage, whatever the size
    mech = csr_chain(50)
    back = load_system(save_system(mech, tmp_path))
    assert all(sp.isspmatrix_csr(mat) for mat in (back.M, back.C, back.K))
    want, got = (master_spectrum(m, select={"mode": "pair", "pair": 2})
                 for m in (mech, back))
    assert np.abs(got.lambdas - want.lambdas).max() <= 1e-12
    W_want, W_got = (compute_manifold(build_first_order(m), ms, order=3).W
                     for m, ms in ((mech, want), (back, got)))
    for i in W_want:
        assert (np.abs(W_got[i] - W_want[i]).max()
                <= 1e-12 * np.abs(W_want[i]).max())


def test_manifest_validation(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "mech", "matrices": {"M": "x.mtx"}}))
    with pytest.raises(ValidationError, match="stiffness matrix K is required"):
        load_system(path)
    path.write_text(json.dumps({"format": "first_order",
                                "matrices": {"A": "x.mtx"}}))
    with pytest.raises(ValidationError, match="pencil matrix B is required"):
        load_system(path)
    path.write_text(json.dumps({"format": "banana"}))
    with pytest.raises(ValidationError, match="unknown manifest format"):
        load_system(path)


def test_manifest_degree_mismatch(tmp_path):
    (tmp_path / "f2.txt").write_text("1 1 1 1.0\n")
    np_eye = np.eye(2)
    import scipy.io
    for nm in ("M", "K"):
        scipy.io.mmwrite(str(tmp_path / ("%s.mtx" % nm)), np_eye)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "format": "mech",
        "matrices": {"M": "M.mtx", "K": "K.mtx"},
        "tensors": {"3": "f2.txt"},
    }))
    with pytest.raises(ValidationError, match="degree"):
        load_system(manifest)


def test_old_conversion_hints_are_ignored(tmp_path):
    # manifests once named a first-order layout; the reader ignores the
    # keys as it does any unknown one, and the model lifts as any other
    mech = oscillator_chain(2)
    manifest = save_system(mech, tmp_path)
    raw = json.loads(open(manifest).read())
    raw["variant"] = "L2"
    raw["n_choice"] = "mass"
    with open(manifest, "w") as fh:
        json.dump(raw, fh)
    back = load_system(manifest)
    assert not hasattr(back, "variant_hint")
    lifted = as_first_order(back)
    assert np.array_equal(lifted.B, build_first_order(mech).B)


def test_missing_c_defaults_to_zero(tmp_path):
    mech = MechanicalSystem(np.eye(2), np.zeros((2, 2)),
                            2.0 * np.eye(2))
    manifest = save_system(mech, tmp_path)
    raw = json.loads(open(manifest).read())
    del raw["matrices"]["C"]
    with open(manifest, "w") as fh:
        json.dump(raw, fh)
    back = load_system(manifest)
    assert np.allclose(back.C, 0.0)
