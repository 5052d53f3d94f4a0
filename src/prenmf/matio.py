"""Matrix file I/O: dense CSV and MatrixMarket (array and coordinate).

CSV layout is one matrix row per line, comma separated, '.' decimal point.
Values are written with 17 significant digits so that read(write(M)) == M
up to the last ulp.  scipy.io is imported only when a MatrixMarket file is
read or written.
"""

import io as _stdio
import numpy as np

from .matcore import as_matrix

__all__ = ["read_csv", "write_csv", "write_rows", "read_matrix_market",
           "write_matrix_market", "read_matrix", "write_matrix"]


def write_csv(path, M):
    write_rows(path, as_matrix(M, "M"), "%.17g")


def write_rows(path, M, fmt, header=None):
    """Write the 2-d array M as comma-separated lines, each value formatted
    by ``fmt``, after an optional header line: the bytes of ``np.savetxt``
    with ``delimiter=","`` and ``comments=""``, formatted by one ``%``
    operation for the whole array instead of one per row."""
    m, n = M.shape
    line = ",".join([fmt] * n) + "\n"
    text = (header + "\n" if header is not None else "") + (line * m) % tuple(
        M.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(text)


def read_csv(path):
    M = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_matrix(M, path if isinstance(path, str) else "csv input")


def write_matrix_market(path, M, comment=""):
    import scipy.io

    M = as_matrix(M, "M")
    scipy.io.mmwrite(path, M, comment=comment, precision=17)


def read_matrix_market(path):
    import scipy.io
    import scipy.sparse

    M = scipy.io.mmread(path)
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return as_matrix(M, path if isinstance(path, str) else "mm input")


def read_matrix(path, fmt="csv"):
    """Read a matrix from ``path`` in the given format ('csv' | 'matrixmarket')."""
    if fmt == "csv":
        return read_csv(path)
    if fmt in ("matrixmarket", "mtx", "mm"):
        return read_matrix_market(path)
    raise ValueError(f"unknown matrix format: {fmt!r}")


def write_matrix(path, M, fmt="csv"):
    if fmt == "csv":
        write_csv(path, M)
    elif fmt in ("matrixmarket", "mtx", "mm"):
        write_matrix_market(path, M)
    else:
        raise ValueError(f"unknown matrix format: {fmt!r}")


def loads_csv(text):
    """Parse a CSV matrix from a string (test/CLI convenience)."""
    return read_csv(_stdio.StringIO(text))
