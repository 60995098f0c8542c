"""Dense float64 solve and determinant for the per-tick hot path.

`numpy.linalg.solve` and `det` spend most of a call on a 6x6 matrix
in argument checks and type dispatch before they reach LAPACK.  These call
the same LAPACK gufuncs with the same signatures under the same
floating-point error state, so their results are bitwise identical and a
singular matrix still raises `LinAlgError`.  The solve's error state is
built once and set through numpy's context variable (numpy >= 2), as an
`np.errstate` would set it.  Callers pass float64 arrays: a square 2-D
matrix and, for `solve`, a 1-D right-hand side.
"""

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


_SINGULAR_RAISES = _make_extobj(
    call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, as `numpy.linalg.solve(a, b)` for a 1-D b."""
    token = _extobj_contextvar.set(_SINGULAR_RAISES)
    try:
        return _umath_linalg.solve1(a, b, signature="dd->d")
    finally:
        _extobj_contextvar.reset(token)


def det(a: np.ndarray) -> float:
    """Determinant of a, as `numpy.linalg.det(a)`."""
    return _umath_linalg.det(a, signature="d->d")
