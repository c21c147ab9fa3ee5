"""Dense matrix helpers and membership predicates for the structured matrix sets.

Matrices are plain float64 numpy arrays throughout; |X| always means the
Frobenius norm.  `rank` counts singular values from one SVD.  Rank one is
decided by `_rank_one_rows` alone, on a stack of matrices: in a stack of
8 or more matrices up to 4x4, most rows from |X|^2 and the squared 2x2
minors, the SVD only for rows near its threshold or out of the float range
the bounds need; smaller stacks and larger matrices by the SVD.  Every
split check, `rank_one_connected` and `pushforward`'s rank check go
through it.  Set membership is tested against string identifiers:

    "full"      any matrix
    "L1"        block-diagonal 2n x 2n (diagonal blocks only)
    "L2"        block-anti-diagonal 2n x 2n
    "L"         L1 union L2
    "Sigma"     det = 1 (absolute tolerance)
    "rank<=m"   rank at most m
    "D"         square diagonal
    "D>=2"      diagonal with every diagonal entry of modulus >= 2
    "E:rho"     {diag(l, rho*l) R : l >= 0, R in SO(2)}
    "Kp:p"      {diag(l, l^(p-1)) R : l >= 0, R in SO(2)}
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
        return _svd_rank_one(flat, shape, tol)
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
        one[rest] = _svd_rank_one(flat[rest], shape, tol)
    return one


def _svd_rank_one(flat: np.ndarray, shape: tuple[int, int], tol: float) -> np.ndarray:
    """The SVD rule of `_rank_one_rows` on every row, from one stacked call."""
    sv = np.linalg.svd(flat.reshape(len(flat), *shape), compute_uv=False)
    return (sv > tol * sv[:, :1]).sum(axis=1) == 1


def _check_rank_tol(tol: float) -> None:
    if not (0.0 < tol < 1.0):
        raise PreconditionError(f"rank tolerance must lie in (0,1), got {tol}")


def _is_rank_one(D, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Whether `rank(D, tol) == 1`, raising `rank`'s errors in its order,
    from a one-row `_rank_one_rows` call."""
    A = asmatrix(D)
    _check_rank_tol(tol)
    return bool(_rank_one_rows(A.reshape(1, -1), A.shape, tol)[0])


def rank(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: singular values above tol * (largest singular value)."""
    A = asmatrix(M)
    _check_rank_tol(tol)
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def rank_one_connected(B, Bp, tol: float = DEFAULT_RANK_TOL) -> bool:
    B = asmatrix(B)
    Bp = asmatrix(Bp)
    if B.shape != Bp.shape:
        raise PreconditionError(f"shape mismatch {B.shape} vs {Bp.shape}")
    return _is_rank_one(B - Bp, tol)


def _halves(A: np.ndarray) -> int:
    d = A.shape[0]
    if A.shape[0] != A.shape[1] or d % 2 != 0 or d == 0:
        raise PreconditionError(f"split sets need an even square shape, got {A.shape}")
    return d // 2


def _offdiag_block_norm(A: np.ndarray) -> float:
    n = _halves(A)
    return float(np.sqrt(np.linalg.norm(A[:n, n:]) ** 2 + np.linalg.norm(A[n:, :n]) ** 2))


def _diag_block_norm(A: np.ndarray) -> float:
    n = _halves(A)
    return float(np.sqrt(np.linalg.norm(A[:n, :n]) ** 2 + np.linalg.norm(A[n:, n:]) ** 2))


def signed_block_svd(A, tol: float = DEFAULT_EQ_TOL):
    """Factor a block-diagonal A as R D Q^T with R, Q special orthogonal and
    block-diagonal, and D diagonal with possibly signed entries.

    Per block the usual SVD is sign-corrected: a reflection in either factor is
    absorbed by flipping the first column/row together with the first diagonal
    entry, keeping both factors in SO(n).
    """
    A = asmatrix(A)
    n = _halves(A)
    if _offdiag_block_norm(A) > tol * (1.0 + frob(A)):
        raise PreconditionError("matrix is not block-diagonal within tolerance")
    R = np.zeros_like(A)
    Q = np.zeros_like(A)
    D = np.zeros_like(A)
    for (r0, r1) in ((0, n), (n, 2 * n)):
        blk = A[r0:r1, r0:r1]
        U, s, Vt = np.linalg.svd(blk)
        s = s.copy()
        if np.linalg.det(U) < 0:
            U = U.copy()
            U[:, 0] *= -1.0
            s[0] *= -1.0
        if np.linalg.det(Vt) < 0:
            Vt = Vt.copy()
            Vt[0, :] *= -1.0
            s[0] *= -1.0
        R[r0:r1, r0:r1] = U
        Q[r0:r1, r0:r1] = Vt.T
        D[r0:r1, r0:r1] = np.diag(s)
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


def _rotation_fit(A: np.ndarray, second_row_scale) -> float:
    """Residual of fitting A = diag(l, second_row_scale(l)) R with R in SO(2).

    Returns the Frobenius distance to the fitted parametrization point, inf
    where second_row_scale(l) leaves the float range.
    """
    lam = float(np.hypot(A[0, 0], A[0, 1]))
    if lam == 0.0:
        return frob(A)
    c, s = A[0, 0] / lam, A[0, 1] / lam
    try:
        mu = second_row_scale(lam)
    except OverflowError:
        return math.inf
    if mu == math.inf:
        return math.inf
    resid = np.hypot(A[1, 0] - mu * (-s), A[1, 1] - mu * c)
    return float(resid)


def _member_single(M: np.ndarray, set_id: str, tol: float) -> bool:
    sid = set_id.strip()
    if sid in ("full", "FULL"):
        return True
    if sid == "L1":
        _halves(M)
        return _offdiag_block_norm(M) <= tol
    if sid == "L2":
        _halves(M)
        return _diag_block_norm(M) <= tol
    if sid == "L":
        _halves(M)
        return _offdiag_block_norm(M) <= tol or _diag_block_norm(M) <= tol
    if sid == "Sigma":
        if M.shape[0] != M.shape[1]:
            raise PreconditionError("Sigma needs a square matrix")
        return abs(np.linalg.det(M) - 1.0) <= tol
    if sid.startswith("rank<="):
        m = int(sid[len("rank<="):])
        return rank(M, max(tol, 1e-15)) <= m
    if sid == "D":
        if M.shape[0] != M.shape[1]:
            raise PreconditionError("D needs a square matrix")
        return frob(M - np.diag(np.diag(M))) <= tol
    if sid == "D>=2":
        if M.shape[0] != M.shape[1]:
            raise PreconditionError("D>=2 needs a square matrix")
        if frob(M - np.diag(np.diag(M))) > tol:
            return False
        return bool(np.all(np.abs(np.diag(M)) >= 2.0 - tol))
    if sid.startswith("E:"):
        rho = float(sid[2:])
        if rho <= 0:
            raise PreconditionError("E:rho needs rho > 0")
        if M.shape != (2, 2):
            raise PreconditionError("E:rho needs a 2x2 matrix")
        if frob(M) <= tol:
            return True
        return _rotation_fit(M, lambda lam: rho * lam) <= tol
    if sid.startswith("Kp:"):
        p = float(sid[3:])
        if not p > 1.0:
            raise PreconditionError("Kp:p needs p > 1")
        if M.shape != (2, 2):
            raise PreconditionError("Kp:p needs a 2x2 matrix")
        if frob(M) <= tol:
            return True
        return _rotation_fit(M, lambda lam: lam ** (p - 1.0)) <= tol
    raise PreconditionError(f"unknown matrix set id {set_id!r}")


def member(M, set_id: str, tol: float = DEFAULT_EQ_TOL) -> bool:
    """Membership of M in the named matrix set, '&' for intersections."""
    M = asmatrix(M)
    parts = [p for p in set_id.split("&") if p.strip()]
    if not parts:
        raise PreconditionError("empty set id")
    return all(_member_single(M, p, tol) for p in parts)


def set_distance(M, set_id: str) -> float:
    """Frobenius distance to L1 / L2 (exact: orthogonal projection kills the
    complementary blocks).  Only the split sets are supported."""
    M = asmatrix(M)
    if set_id == "L1":
        return _offdiag_block_norm(M)
    if set_id == "L2":
        return _diag_block_norm(M)
    if set_id == "L":
        return min(_offdiag_block_norm(M), _diag_block_norm(M))
    raise PreconditionError(f"set_distance supports L/L1/L2 only, got {set_id!r}")
