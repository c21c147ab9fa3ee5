"""Dense matrix helpers and membership predicates for the structured matrix sets.

Matrices are plain float64 numpy arrays throughout; |X| always means the
Frobenius norm.  Set membership is tested against string identifiers:

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


def rank(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: singular values above tol * (largest singular value)."""
    A = asmatrix(M)
    if not (0.0 < tol < 1.0):
        raise PreconditionError(f"rank tolerance must lie in (0,1), got {tol}")
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def rank_one_connected(B, Bp, tol: float = DEFAULT_RANK_TOL) -> bool:
    B = asmatrix(B)
    Bp = asmatrix(Bp)
    if B.shape != Bp.shape:
        raise PreconditionError(f"shape mismatch {B.shape} vs {Bp.shape}")
    return rank(B - Bp, tol) == 1


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

    Returns the Frobenius distance to the fitted parametrization point.
    """
    lam = float(np.hypot(A[0, 0], A[0, 1]))
    if lam == 0.0:
        return frob(A)
    c, s = A[0, 0] / lam, A[0, 1] / lam
    mu = second_row_scale(lam)
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
