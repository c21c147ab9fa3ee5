"""Oriented boxes, the domains of realized maps and of their pieces.

An ``OBox`` is center + frame @ z with |z_i| <= half_i.  Its point queries
take one row per point and map rows through ``_apply``, a stacked matmul
whose rows equal ``M @ x`` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

__all__ = ["OBox", "box"]


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows M @ x for the rows x of X.  A stacked matmul runs the kernel of
    the 1-D product once per row, so the rows equal M @ x bit for bit;
    X @ M.T rounds differently."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


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
