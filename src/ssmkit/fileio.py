"""
On-disk model format.

A model is a JSON manifest next to its data files. Matrices use the
Matrix Market exchange format, and its format decides the storage: a
coordinate file loads as CSR and an array file as a dense array, at any
size. Polynomial nonlinearity blocks use a plain text triplet format,
one monomial per line::

    # degree-3 block, columns: row  i1 i2 i3  value
    1  1 1 2   -0.25
    4  2 2 2    1.0

Indices are 1-based in files and converted on load (the in-memory
convention is 0-based). Duplicate monomial entries are summed. Blank
lines and lines whose first non-blank character is '#' or '%' are
skipped; a comment after an entry is not allowed. A file is read in
one ``np.loadtxt`` pass, so numbers follow numpy's syntax: Python's
digit separators (``1_000``) and non-ASCII digits are refused, and the
row and index columns take integers only. NaN and infinite values are
refused. Only when that pass fails are the lines parsed one at a time,
to name the first bad one. The writer formats every entry through one
line template. It refuses complex values with nonzero imaginary parts,
and ``save_system`` writes no file for a block without entries. The
manifest looks like::

    {
      "format": "mech",                     // or "first_order"
      "matrices": {"M": "M.mtx", "C": "C.mtx", "K": "K.mtx"},
      "tensors": {"3": "f3.txt"},           // degree -> path
      "epsilon": 0.1,
      "forcing": [{"kappa": 1, "real": [...], "imag": [...]}]
    }

"first_order" manifests name "A" and "B" instead of "M", "C", "K".
Paths are resolved relative to the manifest. Other keys are ignored.

Manifold files (``ManifoldExpansion.save``) are not JSON documents: a
line of JSON header is followed by raw little-endian complex128 arrays,
whose shapes follow from the header (see ``ManifoldExpansion.save``).
"""

import itertools
import json
import os
import warnings

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import ValidationError
from .model import FirstOrderSystem, MechanicalSystem
from .polytensor import PolyCoeffs

__all__ = [
    "load_system", "save_system", "read_tensor_text", "write_tensor_text",
]


def read_tensor_text(path, nrows, nvars):
    """
    Read one homogeneous polynomial block from a triplet text file.

    The degree is inferred from the column count of the first data line
    (columns minus two). Lines whose first non-blank character is '#'
    or '%' and blank lines are skipped. All data lines are parsed in one
    ``np.loadtxt`` pass, so numbers follow numpy's syntax (see the
    module notes). Indices are 1-based; unparsable lines, zero or
    out-of-range indices and non-finite values raise ValidationError
    naming the first offending line.
    """
    with open(path) as fh:
        # split as file iteration does, so line numbers match an editor's
        lines = fh.read().split("\n")
    # "" (a blank line) is in "#%"; the digit test only saves the strip
    keep = [line[:1].isdigit() or line.lstrip()[:1] not in "#%"
            for line in lines]
    data = list(itertools.compress(lines, keep))
    if not data:
        raise ValidationError("%s: no entries found" % path)

    def lineno(k):
        """File line number of data line k."""
        return next(itertools.islice(
            itertools.compress(itertools.count(1), keep), k, None))

    degree = len(data[0].split()) - 2
    if degree < 1:
        raise ValidationError(
            "%s:%d: expected 'row i1 .. ik value'" % (path, lineno(0)))
    dtype = np.dtype([("row", np.int64), ("idx", np.int64, (degree,)),
                      ("val", np.float64)])
    try:
        table, fault = _parse_lines(data, dtype), None
    except ValueError:
        table, fault = _parse_prefix(data, dtype)
    rows, factors, values = table["row"], table["idx"].T, table["val"]
    # a fault in the parsed prefix comes first in the file
    fault = _first_bad_entry(rows, factors, values, nrows, nvars) or fault
    if fault is not None:
        k, reason = fault
        raise ValidationError("%s:%d: %s" % (path, lineno(k), reason))
    return PolyCoeffs.from_factors(degree, nrows, nvars, rows - 1,
                                   factors - 1, values)


def _parse_lines(lines, dtype):
    """One ``np.loadtxt`` pass over data lines; ValueError if any is bad."""
    with warnings.catch_warnings():
        # a numpy that still reads "1.5" into an integer column through
        # float warns with DeprecationWarning; make that a refusal too
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from exc


def _parse_prefix(data, dtype):
    """
    Parse data lines one at a time up to the first that numpy refuses.
    Returns the table of the lines before it and ``(index, reason)``.
    """
    ncols = dtype["idx"].shape[0] + 2
    parsed = [np.empty(0, dtype)]
    for k, line in enumerate(data):
        found = len(line.split())
        if found != ncols:
            return (np.concatenate(parsed),
                    (k, "expected %d columns, found %d" % (ncols, found)))
        try:
            parsed.append(_parse_lines([line], dtype))
        except ValueError as exc:
            # numpy counts rows of its own input; only the reason is kept
            return np.concatenate(parsed), (k, str(exc).split(" at row ")[0])
    return np.concatenate(parsed), None


def _first_bad_entry(rows, factors, values, nrows, nvars):
    """``(index, reason)`` of the first entry out of range or non-finite."""
    bad = ((rows < 1) | (rows > nrows)
           | ((factors < 1) | (factors > nvars)).any(axis=0)
           | ~np.isfinite(values))
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if not 1 <= rows[k] <= nrows:
        return k, ("row %d outside 1..%d (indices are 1-based)"
                   % (rows[k], nrows))
    for i in factors[:, k]:
        if not 1 <= i <= nvars:
            return k, ("index %d outside 1..%d (indices are 1-based)"
                       % (i, nvars))
    return k, "value %r is not finite" % float(values[k])


def write_tensor_text(path, coeffs):
    """
    Write one block in the triplet text format (1-based indices), all
    entries through one line template. Values must be finite, and
    complex values must have zero imaginary parts; otherwise
    ValidationError is raised and the file is not written.
    """
    values = coeffs.values
    if np.iscomplexobj(values):
        if np.any(values.imag != 0):
            raise ValidationError(
                "%s: the text format holds real values, but the degree-%d "
                "block has nonzero imaginary parts" % (path, coeffs.degree))
        values = values.real
    if not np.all(np.isfinite(values)):
        raise ValidationError(
            "%s: the degree-%d block has non-finite values, which "
            "load_system would refuse" % (path, coeffs.degree))
    header = ("# columns: row  %s  value\n"
              % "  ".join("i%d" % (k + 1) for k in range(coeffs.degree)))
    template = "%d  " + " ".join(["%d"] * coeffs.degree) + "  %.17g\n"
    columns = [(coeffs.rows + 1).tolist(), *(coeffs.factors + 1).tolist(),
               values.tolist()]
    with open(path, "w") as fh:
        fh.write(header + "".join(map(template.__mod__, zip(*columns))))


def _read_matrix(path):
    mat = scipy.io.mmread(path)
    if sp.issparse(mat):
        return mat.tocsr()
    return np.asarray(mat)


def _write_matrix(path, mat):
    if sp.issparse(mat):
        scipy.io.mmwrite(path, mat.tocoo())
    else:
        scipy.io.mmwrite(path, np.asarray(mat))


def _field(manifest, key, kind, default):
    """``manifest[key]`` (``default`` when absent) if it is of ``kind``:
    dict, list or (int, float), a bool being no number."""
    value = manifest.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        what = {dict: "a JSON object", list: "a JSON list"}.get(kind,
                                                               "a number")
        raise ValidationError("manifest field %r must be %s, not %r"
                              % (key, what, value))
    return value


def _load_forcing(spec_list):
    if not spec_list:
        return None
    forcing = []
    for item in spec_list:
        if not isinstance(item, dict) or "kappa" not in item:
            raise ValidationError("forcing entry %r is not an object with "
                                  "a 'kappa'" % (item,))
        kappa = item["kappa"]
        try:
            real = np.asarray(item.get("real", []), dtype=float)
            imag = np.asarray(item.get("imag", np.zeros_like(real)),
                              dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "forcing harmonic %r: 'real' and 'imag' must be lists of "
                "numbers (%s)" % (kappa, exc)) from exc
        if imag.shape != real.shape:
            raise ValidationError(
                "forcing harmonic %r: real and imag parts differ in length"
                % (kappa,))
        vec = real.astype(complex)
        vec.imag = imag  # set apart, so that an imaginary -0.0 keeps its sign
        forcing.append((kappa, vec))
    return forcing


def load_system(path):
    """
    Load a model from a JSON manifest.

    Returns
    -------
    MechanicalSystem or FirstOrderSystem
        According to the manifest's "format". A manifest that is not
        valid JSON, not an object or holds a field of the wrong type
        raises ValidationError naming it.
    """
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValidationError("manifest %s is not valid JSON: %s"
                                  % (path, exc)) from exc
    if not isinstance(manifest, dict):
        raise ValidationError("manifest %s: the root must be a JSON object"
                              % path)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(name):
        return os.path.join(base, name)

    fmt = manifest.get("format", "mech")
    matrices = _field(manifest, "matrices", dict, {})
    eps = float(_field(manifest, "epsilon", (int, float), 0.0))
    forcing = _load_forcing(_field(manifest, "forcing", list, []))

    if fmt == "mech":
        if "K" not in matrices:
            raise ValidationError("stiffness matrix K is required")
        if "M" not in matrices:
            raise ValidationError("mass matrix M is required")
        K = _read_matrix(resolve(matrices["K"]))
        M = _read_matrix(resolve(matrices["M"]))
        n = K.shape[0]
        if "C" in matrices:
            C = _read_matrix(resolve(matrices["C"]))
        else:
            C = sp.csr_matrix((n, n)) if sp.issparse(K) else np.zeros((n, n))
        blocks = _load_tensors(manifest, resolve, n, n)
        return MechanicalSystem(M, C, K, blocks, forcing, eps=eps)

    if fmt == "first_order":
        for name in ("A", "B"):
            if name not in matrices:
                raise ValidationError("pencil matrix %s is required" % name)
        A = _read_matrix(resolve(matrices["A"]))
        B = _read_matrix(resolve(matrices["B"]))
        N = A.shape[0]
        blocks = _load_tensors(manifest, resolve, N, N)
        return FirstOrderSystem(A, B, blocks, forcing, eps=eps)

    raise ValidationError(
        "unknown manifest format %r (expected 'mech' or 'first_order')" % fmt)


def _load_tensors(manifest, resolve, nrows, nvars):
    files = []
    for key, name in _field(manifest, "tensors", dict, {}).items():
        try:
            files.append((int(key), name))
        except ValueError:
            raise ValidationError("manifest field 'tensors' has key %r, "
                                  "which is not a degree" % key) from None
    blocks = []
    for degree, name in sorted(files, key=lambda item: item[0]):
        block = read_tensor_text(resolve(name), nrows, nvars)
        if block.degree != degree:
            raise ValidationError(
                "tensor file %s has degree %d but manifest says %d"
                % (name, block.degree, degree))
        blocks.append(block)
    return blocks


def save_system(system, directory, name="system"):
    """
    Write a model as a manifest plus data files under ``directory``.

    Returns the manifest path. Round-trips through ``load_system``.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {}
    if isinstance(system, MechanicalSystem):
        manifest["format"] = "mech"
        mats = {"M": system.M, "C": system.C, "K": system.K}
        blocks = system.f_coeffs
    elif isinstance(system, FirstOrderSystem):
        manifest["format"] = "first_order"
        mats = {"A": system.A, "B": system.B}
        blocks = system.F_coeffs
    else:
        raise ValidationError("cannot save %r" % (system,))

    manifest["matrices"] = {}
    for label, mat in mats.items():
        fname = "%s_%s.mtx" % (name, label)
        _write_matrix(os.path.join(directory, fname), mat)
        manifest["matrices"][label] = fname
    manifest["tensors"] = {}
    for block in blocks:
        if block.nnz == 0:
            # a file must hold at least one entry; an empty block adds nothing
            continue
        fname = "%s_f%d.txt" % (name, block.degree)
        write_tensor_text(os.path.join(directory, fname), block)
        manifest["tensors"][str(block.degree)] = fname
    if system.eps:
        manifest["epsilon"] = system.eps
    if system.forcing:
        manifest["forcing"] = [
            {"kappa": list(kt), "real": vec.real.tolist(),
             "imag": vec.imag.tolist()}
            for kt, vec in system.forcing
        ]
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
