"""Oriented boxes, the domains of realized maps and of their pieces.

An ``OBox`` is center + frame @ z with |z_i| <= half_i.  Its point queries
take one row per point and map rows through ``_apply``, whose rows equal
``M @ x`` bit for bit under this process's BLAS.

``M @ x`` is one BLAS gemv per row, and its rounding depends on the BLAS
kernel: a fused multiply-add on one product or the other, or none.  So at
import the module probes three one-call forms against the per-row product,
once for a C-contiguous and once for an F-contiguous 2x2 M, and keeps for
each layout the first form that matches it bit for bit:

- gemm on the reversed columns, ``X[:, ::-1] @ M[:, ::-1].T``;
- plain gemm, ``X @ M.T``;
- elementwise, ``X[:, :1] * M[:, 0] + X[:, 1:] * M[:, 1]``.

Each adds 0.0 to its result: gemm may return -0.0 where gemv returns +0.0,
and adding 0.0 changes no other value.  The probe's 8 rows tell the three
roundings apart in each output column, and give -0.0 where a sum is fused
or where signed zeros are added.  The chosen form matched the per-row
product on random rows at every count tried, from 2 to 1.5 million, under
OpenBLAS's SkylakeX, Haswell and Sandybridge kernels.  ``_apply`` runs the
per-row product itself for fewer than 2 rows (numpy sends a one-row product
to gemv), for operands that are not float64 or not 2x2 and (k, 2), for an X
that is not C-contiguous (the probe's layout), for an M that is neither C-
nor F-contiguous, and for a layout no form matched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

__all__ = ["OBox", "box"]


def _per_row(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows M @ x: a stacked matmul runs one gemv per row."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


# Each form returns the rows of M @ x in one call.  The reversed columns are
# taken as contiguous copies: a reversed view sends numpy through a slower copy.
def _gemm_reversed(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = X[:, [1, 0]] @ M[:, [1, 0]].T
    out += 0.0
    return out


def _gemm(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = X @ M.T
    out += 0.0
    return out


def _elementwise(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = X[:, :1] * M[:, 0] + X[:, 1:] * M[:, 1]
    out += 0.0
    return out


def _probe():
    """(M, X).  With t = 2^-30 the row (1+t, 1+2t) gives t^2, 0 and 0 in
    column 0, and 2t, 2t + 2t^2 and 2t in column 1, for the product fused
    on the first column, on the second, and the plain sum; (1+2t, 1+t)
    mirrors it.  Negated at 2^-1074 they give -0.0 where a sum is fused,
    and so do the signed zeros in a plain sum."""
    t = 2.0 ** -30
    M = np.array([[1.0 + t, -1.0], [-1.0, 1.0 + t]])
    X = np.array([[1.0 + t, 1.0 + 2 * t], [1.0 + 2 * t, 1.0 + t],
                  [-1.0 - t, -1.0 - 2 * t], [-1.0 - 2 * t, -1.0 - t],
                  [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]])
    X[2:4] *= 2.0 ** -1074
    return M, X


def _choose(order: str):
    """The first form whose rows equal _per_row's bit for bit on the probe,
    for an M of the given memory order ("C" or "F"), or None."""
    M, X = _probe()
    M = np.array(M, order=order)
    with np.errstate(all="ignore"):
        for form in (_gemm_reversed, _gemm, _elementwise):
            if np.array_equal(form(M, X).view(np.uint64), _per_row(M, X).view(np.uint64)):
                return form
    return None


_FORM_C, _FORM_F = _choose("C"), _choose("F")


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows M @ x for the rows x of X, equal to M @ x bit for bit under this
    process's BLAS: one call of the form the import probe chose for M's
    layout, or the per-row product where no form applies (module docstring)."""
    if (len(X) > 1 and M.dtype == X.dtype == np.float64 and M.shape == (2, 2)
            and X.ndim == 2 and X.shape[1] == 2 and X.flags.c_contiguous):
        form = (_FORM_C if M.flags.c_contiguous else
                _FORM_F if M.flags.f_contiguous else None)
        if form is not None:
            return form(M, X)
    return _per_row(M, X)


class OBox:
    """Oriented box: center + frame @ z with |z_i| <= half_i, frame orthogonal."""

    def __init__(self, center, half, frame=None):
        self.center = np.array(center, dtype=float).reshape(2)
        self.half = np.array(half, dtype=float).reshape(2)
        self.frame = np.eye(2) if frame is None else np.array(frame, dtype=float)
        # in Python floats an overflow is inf and a NaN fails each comparison,
        # with no warning
        (c0, c1), (h0, h1) = self.center.tolist(), self.half.tolist()
        if not (h0 > 0.0 and h1 > 0.0):
            raise PreconditionError("box half-widths must be positive")
        if not (abs(c0) < math.inf and abs(c1) < math.inf and 4.0 * h0 * h1 < math.inf):
            raise PreconditionError(f"box center and volume must be finite: center "
                                    f"{[c0, c1]}, half-widths {[h0, h1]}")
        # |F^T F - I|^2 <= 1e-18
        (a, b), (c, d) = self.frame.tolist()
        e, f, g = a * a + c * c - 1.0, a * b + c * d, b * b + d * d - 1.0
        if not e * e + 2.0 * f * f + g * g <= 1e-18:
            raise PreconditionError("box frame must be finite and orthogonal")
        for arr in (self.center, self.half, self.frame):
            arr.flags.writeable = False

    @property
    def volume(self) -> float:
        return 4.0 * self.half[0] * self.half[1]

    def to_world(self, z) -> np.ndarray:
        return self.center + self.frame @ np.asarray(z, dtype=float)

    def corners(self) -> list[np.ndarray]:
        h0, h1 = self.half
        return [self.to_world((s0 * h0, s1 * h1))
                for s0, s1 in ((-1, -1), (1, -1), (1, 1), (-1, 1))]

    # point queries, one row per point of X (shape (k, 2))
    def to_local_many(self, X) -> np.ndarray:
        return _apply(self.frame.T, X - self.center)

    def to_world_many(self, Z) -> np.ndarray:
        return self.center + _apply(self.frame, Z)

    def contains_many(self, X, tol: float = 1e-12) -> np.ndarray:
        s = tol * (1.0 + float(np.max(self.half)))
        return np.all(np.abs(self.to_local_many(X)) <= self.half + s, axis=1)

    def boundary_points(self, ts) -> np.ndarray:
        cs = self.corners()
        lens = [2.0 * self.half[0], 2.0 * self.half[1]] * 2
        s = (np.asarray(ts, dtype=float) % 1.0) * sum(lens)
        out = np.empty((len(s), 2))
        todo = np.ones(len(s), dtype=bool)
        for k in range(4):
            take = todo & (s <= lens[k]) if k < 3 else todo
            a, bpt = cs[k], cs[(k + 1) % 4]
            out[take] = a + np.multiply.outer(np.minimum(s[take] / lens[k], 1.0),
                                              bpt - a)
            todo &= ~take
            s = s - lens[k]
        return out

    def interior_points(self, uv, margin: float = 1e-6) -> np.ndarray:
        z = (2.0 * np.asarray(uv, dtype=float) - 1.0) * self.half * (1.0 - margin)
        return self.to_world_many(z)

    def __repr__(self):
        return f"OBox(center={self.center.tolist()}, half={self.half.tolist()})"


def box(lo, hi) -> OBox:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all(hi > lo):
        raise PreconditionError("box needs hi > lo componentwise")
    with np.errstate(over="ignore"):   # an infinite half-width is OBox's error
        return OBox((lo + hi) / 2.0, (hi - lo) / 2.0)
