"""Dense matrix helpers and membership predicates for the structured matrix sets.

Matrices are plain float64 numpy arrays throughout; |X| always means the
Frobenius norm.  Each set predicate is written once, over a (k, m, n) stack
of finite matrices: `_member_rows`, `_distance_rows` and `_rank_rows` (one
SVD call) give a verdict, distance or rank per row; `member`, `set_distance`
and `rank` are their one-row case.  Block norms are squared as numpy float64
scalars, C pow(x, 2), which warns on overflow and rounds unlike x * x or an
array's ** 2 (at x = 97948.26320308917: 9593862264.50163, not ...1633).

Rank one is decided by `_rank_one_rows` alone, mostly without LAPACK:
every split check, `rank_one_connected` and `pushforward`'s rank check go
through it.  Set membership is tested against string identifiers:

    "full"      any matrix
    "L1"        block-diagonal 2n x 2n (diagonal blocks only)
    "L2"        block-anti-diagonal 2n x 2n
    "L"         L1 union L2
    "Sigma"     det = 1 (absolute tolerance)
    "rank<=m"   rank at most m (an integer m >= 0)
    "D"         square diagonal
    "D>=2"      diagonal with every diagonal entry of modulus >= 2
    "E:rho"     {diag(l, rho*l) R : l >= 0, R in SO(2)}, rho finite > 0
    "Kp:p"      {diag(l, l^(p-1)) R : l >= 0, R in SO(2)}, p finite > 1
    "A&B"       intersection (any number of '&'-joined ids)
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import PreconditionError

DEFAULT_RANK_TOL = 1e-9
DEFAULT_EQ_TOL = 1e-9


def asmatrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise PreconditionError(f"expected a 2-d matrix, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise PreconditionError("matrix has non-finite entries")
    return A


def frob(M) -> float:
    # the path np.linalg.norm takes for a real array, without its dispatch;
    # the same bits
    x = np.asarray(M, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.dot of the last axes, one per leading index.  A stacked matmul of a
    row by a column runs the 1-D dot kernel on the same strides, so each
    entry equals np.dot(x[i], y[i]) bit for bit, and sqrt(dots(x, x)) of
    the flattened matrices equals `frob` of each; einsum and cumsum do not."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


_SCREEN_DELTA = 1e-2      # relative margin of the screen's two bounds
_SCREEN_TOL_MIN = 1e-10   # below it eps / tol eats the margin: SVD only
_SCREEN_DIM_MAX = 4       # larger matrices go to the SVD (none was timed)
_SCREEN_ROWS_MIN = 8      # smaller stacks take less time in one SVD call
_SCREEN_F2 = (2.0 ** -400, 2.0 ** 400)   # |D|^2 range where no bound over- or underflows


@functools.cache
def _minor_index(m: int, n: int) -> np.ndarray:
    """Flat indices (a, b, c, d) of the 2x2 minors x_a x_b - x_c x_d of a
    row-major m x n matrix, one column per minor."""
    return np.array([(i * n + k, j * n + l, i * n + l, j * n + k)
                     for i, j in itertools.combinations(range(m), 2)
                     for k, l in itertools.combinations(range(n), 2)],
                    dtype=np.intp).reshape(-1, 4).T


def _rank_one_rows(flat: np.ndarray, shape: tuple[int, int],
                   tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Per row of a (k, m*n) stack of finite m x n matrices D, whether the
    SVD rule `count(s > tol * s_1) == 1` holds, for 0 < tol < 1: the one
    rank-one test.  It holds exactly when s_1 > 0 and s_2 <= tol * s_1.

    Most rows are decided without LAPACK.  With F^2 = |D|^2 and e_2 the sum
    of the squared 2x2 minors (det^2 for 2x2), Cauchy-Binet gives
    e_2 = sum_{i<j} s_i^2 s_j^2, so s_1^2 s_2^2 <= e_2 <= C(r,2) s_1^2 s_2^2
    and F^2 / r <= s_1^2 <= F^2, r = min(m, n).  A row is
      - rank one if e_2 <= (tol F^2 / r)^2 (1 - delta): then
        s_2 <= tol s_1 sqrt(1 - delta);
      - not rank one if e_2 >= C(r,2) (tol F^2)^2 (1 + delta): then
        s_2 >= tol s_1 sqrt(1 + delta).
    Every other row goes to one stacked `np.linalg.svd` (bit-equal to a
    call per matrix) and the rule above: rows with F^2 outside `_SCREEN_F2`
    (zero rows among them), where F^4 could over- or underflow, and all rows
    when the stack has fewer than `_SCREEN_ROWS_MIN` rows, tol <
    `_SCREEN_TOL_MIN`, max(m, n) > `_SCREEN_DIM_MAX` or the shape is empty.

    delta = 1e-2 makes a decided row's verdict the SVD's.  The minors carry
    an absolute error of about eps F^2 from cancellation, and LAPACK's
    singular values one of a small multiple of eps s_1 (backward
    stability), so both move s_2 / s_1 by about eps / tol relative: 2e-7 at
    tol = 1e-9, 2e-6 at the floor 1e-10.  The margin, delta / 2 in s_2 / s_1,
    is 2,500 times the larger one."""
    k = len(flat)
    m, n = shape
    r = min(m, n)
    if not (k >= _SCREEN_ROWS_MIN and tol >= _SCREEN_TOL_MIN and 0 < r
            and max(m, n) <= _SCREEN_DIM_MAX):
        return _rank_rows(flat.reshape(k, *shape), tol) == 1
    x = flat[:, _minor_index(m, n)]
    with np.errstate(all="ignore"):   # rows out of range may overflow
        minors = x[:, 0] * x[:, 1] - x[:, 2] * x[:, 3]
        e2 = _dots(minors, minors)
        f2 = _dots(flat, flat)
        f4 = f2 * f2
        one = e2 <= f4 * (tol * tol * (1.0 - _SCREEN_DELTA) / (r * r))
        sure = ((one | (e2 >= f4 * (tol * tol * math.comb(r, 2) * (1.0 + _SCREEN_DELTA))))
                & (f2 >= _SCREEN_F2[0]) & (f2 <= _SCREEN_F2[1]))
    if not sure.all():
        rest = np.flatnonzero(~sure)
        one[rest] = _rank_rows(flat[rest].reshape(-1, *shape), tol) == 1
    return one


def _check_rank_tol(tol: float) -> None:
    if not (0.0 < tol < 1.0):
        raise PreconditionError(f"rank tolerance must lie in (0,1), got {tol}")


def _rank_rows(S: np.ndarray, tol: float) -> np.ndarray:
    """Per row of a (k, m, n) stack, its singular values above tol * the largest."""
    sv = np.linalg.svd(S, compute_uv=False)
    return np.count_nonzero(sv > tol * sv[:, :1], axis=1)


def rank(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: `_rank_rows` on one row."""
    A = asmatrix(M)
    _check_rank_tol(tol)
    return int(_rank_rows(A[None], tol)[0])


def rank_one_connected(B, Bp, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether `rank(B - Bp, tol) == 1`, raising `rank`'s errors in its
    order, from a one-row `_rank_one_rows` call."""
    B = asmatrix(B)
    Bp = asmatrix(Bp)
    if B.shape != Bp.shape:
        raise PreconditionError(f"shape mismatch {B.shape} vs {Bp.shape}")
    D = asmatrix(B - Bp)
    _check_rank_tol(tol)
    return bool(_rank_one_rows(D.reshape(1, -1), D.shape, tol)[0])


def _halves(shape: tuple) -> int:
    if shape[0] != shape[1] or shape[0] % 2 != 0 or shape[0] == 0:
        raise PreconditionError(f"split sets need an even square shape, got {shape}")
    return shape[0] // 2


def _norm_rows(S: np.ndarray) -> np.ndarray:
    """`frob` of each matrix of a (k, m, n) stack, its rows in C or Fortran
    order read in memory order, as `frob` reads a matrix."""
    if S.strides[1] < S.strides[2]:
        S = S.swapaxes(1, 2)
    flat = S.reshape(len(S), math.prod(S.shape[1:]))
    return np.sqrt(_dots(flat, flat))


def _block_norms(S: np.ndarray, diagonal: bool) -> np.ndarray:
    """Per row of a (k, 2n, 2n) stack, the distance to L2 (diagonal) or L1:
    sqrt(|X_11|^2 + |X_22|^2) or sqrt(|X_12|^2 + |X_21|^2), each block norm
    squared as a numpy float64 scalar (see the module docstring)."""
    n = _halves(S.shape[1:])
    a, b = (S[:, :n, :n], S[:, n:, n:]) if diagonal else (S[:, :n, n:], S[:, n:, :n])
    return np.sqrt(np.array([x ** 2 + y ** 2 for x, y in zip(_norm_rows(a), _norm_rows(b))],
                            dtype=float))


def signed_block_svd(A, tol: float = DEFAULT_EQ_TOL):
    """Factor a block-diagonal A as R D Q^T with R, Q special orthogonal and
    block-diagonal, and D diagonal with possibly signed entries.

    Per block the usual SVD is sign-corrected: a reflection in either factor is
    absorbed by flipping the first column/row together with the first diagonal
    entry, keeping both factors in SO(n).
    """
    A = asmatrix(A)
    n = _halves(A.shape)
    if _block_norms(A[None], diagonal=False)[0] > tol * (1.0 + frob(A)):
        raise PreconditionError("matrix is not block-diagonal within tolerance")
    U, s, Vt = np.linalg.svd(np.stack([A[:n, :n], A[n:, n:]]))
    for F, flip in ((U[:, :, 0], np.linalg.det(U) < 0), (Vt[:, 0, :], np.linalg.det(Vt) < 0)):
        F[flip] *= -1.0
        s[flip, 0] *= -1.0
    R, D, Q = (np.zeros_like(A) for _ in range(3))
    for i, blk in enumerate((slice(None, n), slice(n, None))):
        R[blk, blk], Q[blk, blk], D[blk, blk] = U[i], Vt[i].T, np.diag(s[i])
    return R, D, Q


def conformal_split(A):
    """Orthogonal decomposition of a 2x2 matrix into conformal + anti-conformal parts."""
    A = asmatrix(A)
    if A.shape != (2, 2):
        raise PreconditionError(f"conformal split needs 2x2, got {A.shape}")
    a, b = A[0, 0], A[0, 1]
    c, d = A[1, 0], A[1, 1]
    plus = 0.5 * np.array([[a + d, b - c], [c - b, a + d]])
    minus = 0.5 * np.array([[a - d, b + c], [b + c, d - a]])
    return plus, minus


def _rotation_fit_rows(S: np.ndarray, tol: float, second_row_scale) -> np.ndarray:
    """Per row of a (k, 2, 2) stack, whether |X| <= tol or X is within tol of
    diag(l, mu) R, R in SO(2): l = |first row|, mu = second_row_scale(l) on
    float64 scalars (C pow for **); a mu past the float range never fits."""
    ok = _norm_rows(S) <= tol
    rows = np.flatnonzero(~ok)
    lam = np.hypot(S[rows, 0, 0], S[rows, 0, 1])
    with np.errstate(over="ignore"):
        mu = np.array([second_row_scale(v) for v in lam], dtype=float)
    fit = (lam != 0.0) & (mu != math.inf)   # at l = 0 the residual is |X| > tol
    X, lam, mu = S[rows[fit]], lam[fit], mu[fit]
    c, s = X[:, 0, 0] / lam, X[:, 0, 1] / lam
    ok[rows[fit]] = np.hypot(X[:, 1, 0] - mu * (-s), X[:, 1, 1] - mu * c) <= tol
    return ok


def _split_set_rows(S: np.ndarray, sid: str, tol: float) -> np.ndarray:
    """L1, L2 or L per row; L reads the diagonal blocks only off L1."""
    ok = _block_norms(S, diagonal=sid == "L2") <= tol
    if sid == "L" and not ok.all():
        rest = np.flatnonzero(~ok)
        ok[rest] = _block_norms(S[rest], diagonal=True) <= tol
    return ok


def _part_test(part: str, shape: tuple, tol: float):
    """The row test of one set id on (k, *shape) stacks, after the id's
    checks in order: its parameter, the shape, the rank tolerance."""
    sid = part.strip()
    if sid in ("full", "FULL"):
        return lambda S: np.ones(len(S), dtype=bool)
    if sid in ("L1", "L2", "L"):
        _halves(shape)
        return lambda S: _split_set_rows(S, sid, tol)
    if sid in ("Sigma", "D", "D>=2"):
        if shape[0] != shape[1]:
            raise PreconditionError(f"{sid} needs a square matrix")
        if sid == "Sigma":
            return lambda S: np.abs(np.linalg.det(S) - 1.0) <= tol
        off, floor = 1.0 - np.eye(shape[0]), (2.0 - tol if sid == "D>=2" else -math.inf)
        return lambda S: ((_norm_rows(S * off) <= tol)   # |X - diag(X)| = |X * off|
                          & (np.abs(np.diagonal(S, 0, 1, 2)) >= floor).all(axis=1))
    if sid.startswith("rank<="):
        try:
            m = int(sid[len("rank<="):])
        except ValueError:
            m = -1
        if m < 0:
            raise PreconditionError(f"matrix set id {part!r}: m must be an integer >= 0")
        rtol = max(tol, 1e-15)
        _check_rank_tol(rtol)
        return lambda S: _rank_rows(S, rtol) <= m
    if sid.startswith(("E:", "Kp:")):
        kind, text = sid.split(":", 1)
        name = "rho" if kind == "E" else "p"
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise PreconditionError(f"matrix set id {part!r}: {name} must be a finite number")
        if not (v > 0 if kind == "E" else v > 1.0):
            raise PreconditionError(f"{kind}:{name} needs {name} > {0 if kind == 'E' else 1}")
        if shape != (2, 2):
            raise PreconditionError(f"{kind}:{name} needs a 2x2 matrix")
        scale = (lambda lam: v * lam) if kind == "E" else (lambda lam: lam ** (v - 1.0))
        return lambda S: _rotation_fit_rows(S, tol, scale)
    raise PreconditionError(f"unknown matrix set id {part!r}")


def _member_rows(S: np.ndarray, set_id: str, tol: float) -> np.ndarray:
    """Per row of a (k, m, n) stack of finite matrices, membership in the
    named set: each part of an '&' id in order, on the rows the parts before
    it kept.  If a part's checks fail, the rows go one at a time, so it
    raises where a loop of `member` would (warnings raised as errors too)."""
    parts = [p for p in set_id.split("&") if p.strip()]
    if not parts:
        raise PreconditionError("empty set id")
    if len(S) > 1:
        try:
            for part in parts:
                _part_test(part, S.shape[1:], tol)
        except PreconditionError:
            return np.array([_member_rows(X[None], set_id, tol)[0] for X in S], dtype=bool)
    ok = np.ones(len(S), dtype=bool)
    for part in parts:
        rows = np.flatnonzero(ok)
        if not rows.size:
            break
        ok[rows] = _part_test(part, S.shape[1:], tol)(S[rows] if rows.size < len(S) else S)
    return ok


def member(M, set_id: str, tol: float = DEFAULT_EQ_TOL) -> bool:
    """Membership of M in the named set ('&' intersects): `_member_rows` on one row."""
    return bool(_member_rows(asmatrix(M)[None], set_id, tol)[0])


def _distance_rows(S: np.ndarray, set_id: str) -> np.ndarray:
    """Per row of a (k, 2n, 2n) stack, the Frobenius distance to L1, L2 or L
    (exact: orthogonal projection kills the complementary blocks)."""
    sides = {"L1": (False,), "L2": (True,), "L": (False, True)}.get(set_id)
    if sides is None:
        raise PreconditionError(f"set_distance supports L/L1/L2 only, got {set_id!r}")
    return np.minimum.reduce([_block_norms(S, diagonal) for diagonal in sides])


def set_distance(M, set_id: str) -> float:
    """Frobenius distance to L1, L2 or L: `_distance_rows` on one row."""
    return float(_distance_rows(asmatrix(M)[None], set_id)[0])
