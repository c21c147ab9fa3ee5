import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lamstair import matrices as mx
from lamstair.errors import PreconditionError


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestRank:
    def test_diag_rank_one(self):
        assert mx.rank(np.diag([1.0, 0, 0, 0])) == 1

    def test_rank_one_product(self):
        A = np.outer([1.0, 1.0], [1.0, 0.0])
        assert mx.rank(A) == 1

    def test_first_splitting_difference(self):
        # difference of the two atoms produced by the first det-1 split at diag(2,2)
        assert mx.rank(np.diag([0.5, 2.0]) - np.diag([4.0, 2.0])) == 1

    def test_zero(self):
        assert mx.rank(np.zeros((3, 3))) == 0

    def test_invariance_under_orthogonal_factors(self):
        rng = np.random.default_rng(7)
        for d in range(1, 7):
            for m in range(1, 7):
                for _ in range(6):
                    A = rng.standard_normal((d, m))
                    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
                    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
                    r = mx.rank(A)
                    assert mx.rank(A.T) == r
                    assert mx.rank(U @ A @ V) == r

    def test_nonfinite_rejected(self):
        with pytest.raises(PreconditionError):
            mx.rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRankOneConnected:
    def test_equal_matrices(self):
        A = np.diag([1.0, 2.0])
        assert not mx.rank_one_connected(A, A)

    def test_unit_rank_one_pair(self):
        e1e1 = np.outer([1.0, 0.0], [1.0, 0.0])
        e2e1 = np.outer([0.0, 1.0], [1.0, 0.0])
        assert mx.rank_one_connected(e1e1, e2e1)

    def test_rank_two_difference(self):
        assert not mx.rank_one_connected(np.diag([1.0, 1.0]), np.diag([2.0, 2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            mx.rank_one_connected(np.eye(2), np.eye(3))


class TestSignedBlockSvd:
    def check(self, A, n):
        R, D, Q = mx.signed_block_svd(A)
        assert mx.frob(A - R @ D @ Q.T) <= 1e-10 * (1 + mx.frob(A))
        assert abs(np.linalg.det(R) - 1) < 1e-9
        assert abs(np.linalg.det(Q) - 1) < 1e-9
        # both factors block-diagonal and orthogonal
        assert mx.member(R, "L1", 1e-9)
        assert mx.member(Q, "L1", 1e-9)
        assert mx.frob(R @ R.T - np.eye(2 * n)) < 1e-9
        assert mx.frob(D - np.diag(np.diag(D))) < 1e-12

    def test_identity(self):
        self.check(np.eye(2), 1)

    def test_signed_diagonal(self):
        self.check(np.diag([2.0, -3.0]), 1)

    def test_rotation_block(self):
        A = np.zeros((4, 4))
        A[:2, :2] = rot(0.3)
        A[2:, 2:] = np.eye(2)
        self.check(A, 2)

    def test_random_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            A = np.zeros((4, 4))
            A[:2, :2] = rng.standard_normal((2, 2))
            A[2:, 2:] = rng.standard_normal((2, 2))
            self.check(A, 2)

    def test_off_diagonal_rejected(self):
        A = np.ones((2, 2))
        with pytest.raises(PreconditionError):
            mx.signed_block_svd(A)


class TestMember:
    def test_sigma(self):
        assert mx.member(np.diag([1.0, 1.0]), "Sigma")
        assert not mx.member(np.diag([2.0, 2.0]), "Sigma")

    def test_split_sets(self):
        A = np.outer([1.0, 1.0], [1.0, 0.0])
        assert not mx.member(A, "L")
        assert mx.member(np.diag([3.0, 0.5]), "L1")
        assert mx.member(np.array([[0.0, 2.0], [5.0, 0.0]]), "L2")
        assert mx.member(np.diag([3.0, 0.5]), "L")

    def test_elliptic_set(self):
        K = 3.0
        for x in (0.0, 0.5, 2.0):
            assert mx.member(np.diag([x, K * x]), f"E:{K}")
        assert mx.member(np.diag([1.0, K]) @ rot(1.1), f"E:{K}")
        assert not mx.member(np.diag([1.0, 2.0]), f"E:{K}")
        # negative determinant excluded
        assert not mx.member(np.diag([-1.0, K]), f"E:{K}")

    def test_plaplace_set(self):
        p = 1.5
        lam = 2.7
        assert mx.member(np.diag([lam, lam ** (p - 1)]) @ rot(0.4), f"Kp:{p}")
        assert mx.member(-np.diag([lam, lam ** (p - 1)]), f"Kp:{p}")
        assert not mx.member(np.diag([lam, lam]), f"Kp:{p}")

    @pytest.mark.parametrize("M, set_id", [(np.diag([2.0, 1.0]), "E:1e308"),
                                           (np.diag([3.0, 1.0]), "Kp:1e300")])
    def test_second_row_scale_past_the_float_range(self, M, set_id):
        # K lam is inf, and lam ** (p - 1) leaves the float range
        assert not mx.member(M, set_id)

    def test_diag_sets(self):
        assert mx.member(np.diag([2.0, -2.5]), "D>=2")
        assert not mx.member(np.diag([2.0, 1.5]), "D>=2")
        assert mx.member(np.diag([2.0, 1.5]), "D")

    def test_rank_set(self):
        assert mx.member(np.outer([1.0, 1.0], [1.0, 0.0]), "rank<=1")
        assert not mx.member(np.eye(2), "rank<=1")

    def test_intersection(self):
        A = np.diag([2.0, 0.5])
        assert mx.member(A, "L1&Sigma")
        assert mx.member(A, "L1") and mx.member(A, "Sigma")
        assert not mx.member(np.diag([2.0, 2.0]), "L1&Sigma")


class TestConformalSplit:
    def test_identity(self):
        P, M = mx.conformal_split(np.eye(2))
        assert mx.frob(P - np.eye(2)) == 0
        assert mx.frob(M) == 0

    def test_pure_anticonformal(self):
        A = np.diag([1.0, -1.0])
        P, M = mx.conformal_split(A)
        assert mx.frob(P) == 0
        assert mx.frob(M - A) == 0

    def test_generic(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        P, M = mx.conformal_split(A)
        assert np.allclose(P, 0.5 * np.array([[5.0, -1.0], [1.0, 5.0]]))
        assert np.allclose(M, 0.5 * np.array([[-3.0, 5.0], [5.0, 3.0]]))
        assert np.allclose(P + M, A)

    def test_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            A = rng.standard_normal((2, 2))
            P, M = mx.conformal_split(A)
            # conformal/anti-conformal forms
            assert abs(P[0, 0] - P[1, 1]) < 1e-14 and abs(P[0, 1] + P[1, 0]) < 1e-14
            assert abs(M[0, 0] + M[1, 1]) < 1e-14 and abs(M[0, 1] - M[1, 0]) < 1e-14
            assert abs(mx.frob(A) ** 2 - mx.frob(P) ** 2 - mx.frob(M) ** 2) < 1e-12


# entries of every scale frob meets or must survive: signed zeros,
# subnormals, ordinary values and squares near the top of the float range
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e3, 1e3),
    st.floats(1e149, 1e151),
    st.floats(-1e151, -1e149),
)


class TestFrob:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                      elements=_ENTRIES),
           st.sampled_from(["as_is", "transposed", "strided"]))
    def test_bitwise_equal_to_linalg_norm(self, A, layout):
        if layout == "transposed":
            A = A.T
        elif layout == "strided":
            A = A[::-2] if A.ndim == 1 else A[::2, ::-1]
        assert mx.frob(A).hex() == float(np.linalg.norm(A)).hex()

    def test_plain_sequences(self):
        for M in ([[3, 4], [0, 0]], [1.0, -2.0, 2.0], [[-0.0]]):
            assert mx.frob(M).hex() == float(np.linalg.norm(np.asarray(M, dtype=float))).hex()


# --- the rank-one screen against the SVD rule it replaced ----------------------


def ref_rank_one(flat, shape, tol):
    """The rule `measures._split_rows` applied to a full stacked SVD."""
    sv = np.linalg.svd(flat.reshape(len(flat), *shape), compute_uv=False)
    return (sv > tol * sv[:, :1]).sum(axis=1) == 1


def screen_rows(rng, shape, tol, k=60):
    """Rank-one, random and zero m x n rows, and rows U diag(s) V^T whose
    s_2 / s_1 lies within 1e-3 of tol or anywhere between tol / 30 and
    30 tol (where the screen's two bounds sit)."""
    m, n = shape
    r = min(m, n)
    rows = [np.zeros((m, n))]
    for _ in range(k):
        rows.append(np.outer(rng.normal(size=m), rng.normal(size=n)))
        rows.append(rng.normal(size=(m, n)))
        if r > 1:
            for ratio in (1.0 + rng.uniform(-1e-3, 1e-3), 30.0 ** rng.uniform(-1, 1)):
                s = np.zeros(r)
                s[0], s[1] = 1.0, tol * ratio
                s[2:] = s[1] * rng.uniform(0, 1, size=r - 2)
                U = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :r]
                V = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :r]
                rows.append((U * s) @ V.T)
    return np.array(rows).reshape(len(rows), m * n)


def counting_svd(monkeypatch):
    """Patch np.linalg.svd to record the number of matrices of each call."""
    svd, seen = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        seen.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return seen


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 3), (3, 2), (1, 3), (5, 5)])
@pytest.mark.parametrize("tol", [1e-9, 1e-3, 1e-12])
def test_rank_one_rows_matches_svd_rule(shape, tol, monkeypatch):
    rng = np.random.default_rng([*shape, round(-np.log10(tol))])
    base = screen_rows(rng, shape, tol)
    flat = np.concatenate([base * s for s in (1.0, 1e50, 1e-50, 1e300, 1e-300)])
    want = ref_rank_one(flat, shape, tol)
    seen = counting_svd(monkeypatch)
    got = mx._rank_one_rows(flat, shape, tol)
    assert got.dtype == bool and got.tolist() == want.tolist()
    assert want.any() and not want.all()
    if tol < mx._SCREEN_TOL_MIN or max(shape) > mx._SCREEN_DIM_MAX:
        assert seen == [len(flat)]
    else:   # the screen decides most rows; the SVD sees the rest
        assert len(seen) == 1 and 0 < seen[0] < len(flat)
    for i in range(0, len(flat), 37):
        D = flat[i].reshape(shape)
        assert mx.rank_one_connected(D, np.zeros(shape), tol) == want[i]


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 3)])
def test_rank_one_rows_small_stacks_go_to_the_svd(shape, monkeypatch):
    # below `_SCREEN_ROWS_MIN` rows one SVD call decides the whole stack;
    # from it on the screen decides rank-one rows without LAPACK
    rng = np.random.default_rng(list(shape))
    m, n = shape
    rows = screen_rows(rng, shape, 1e-9, k=10)
    ones = np.array([np.outer(rng.normal(size=m), rng.normal(size=n)).ravel()
                     for _ in range(mx._SCREEN_ROWS_MIN)])
    seen = counting_svd(monkeypatch)
    for k in range(1, mx._SCREEN_ROWS_MIN):
        flat = rows[rng.choice(len(rows), k, replace=False)]
        want = ref_rank_one(flat, shape, 1e-9)
        seen.clear()
        assert mx._rank_one_rows(flat, shape, 1e-9).tolist() == want.tolist()
        assert seen == [k]
        seen.clear()
        assert mx._rank_one_rows(ones[:k], shape, 1e-9).all() and seen == [k]
    seen.clear()
    assert mx._rank_one_rows(ones, shape, 1e-9).all() and seen == []


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (1, 3)])
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_split_rows_rank_verdicts_on_non_finite_rows(shape, tol):
    # `_split_rows` screens the non-finite rows as zeros; each fails as
    # `rank` fails it, on asmatrix's PreconditionError
    from lamstair import measures as ms
    from lamstair.errors import InvalidSplitError
    rng = np.random.default_rng(3)
    flat = screen_rows(rng, shape, tol, k=10)
    flat[rng.choice(len(flat), 12, replace=False), rng.integers(flat.shape[1], size=12)] = (
        rng.choice([np.nan, np.inf, -np.inf], size=12))
    left = flat.reshape(-1, *shape)
    mats = np.stack([0.5 * left, left, np.zeros_like(left)], axis=1)
    lam = np.full(len(left), 0.5)
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(flat).all(axis=1)
        one = ref_rank_one(np.where(finite[:, None], flat, 0.0), shape, tol)
    for i in range(len(left)):
        got = ms._split_rows(lam[i:i + 1], mats[i:i + 1], np.inf, tol)
        if not finite[i]:
            assert type(got[1]) is PreconditionError
            assert str(got[1]) == "matrix has non-finite entries"
        elif not one[i]:
            assert type(got[1]) is InvalidSplitError
            assert str(got[1]) == "left - right is not rank one"
        else:
            assert got is None
    first = np.flatnonzero(~finite | ~one)[0]
    assert ms._split_rows(lam, mats, np.inf, tol)[0] == first


# --- the row-wise set predicates against the per-matrix code they replaced -----
#
# `ref_member`, `ref_set_distance` and `ref_rank` are the scalar predicates as
# they were before `_member_rows`, `_distance_rows` and `_rank_rows`; the
# tests compare verdicts, distance bits, ranks and errors (type and message).


def ref_halves(A):
    d = A.shape[0]
    if A.shape[0] != A.shape[1] or d % 2 != 0 or d == 0:
        raise PreconditionError(f"split sets need an even square shape, got {A.shape}")
    return d // 2


def ref_offdiag_block_norm(A):
    n = ref_halves(A)
    return float(np.sqrt(np.linalg.norm(A[:n, n:]) ** 2 + np.linalg.norm(A[n:, :n]) ** 2))


def ref_diag_block_norm(A):
    n = ref_halves(A)
    return float(np.sqrt(np.linalg.norm(A[:n, :n]) ** 2 + np.linalg.norm(A[n:, n:]) ** 2))


def ref_rotation_fit(A, second_row_scale):
    lam = float(np.hypot(A[0, 0], A[0, 1]))
    if lam == 0.0:
        return mx.frob(A)
    c, s = A[0, 0] / lam, A[0, 1] / lam
    try:
        mu = second_row_scale(lam)
    except OverflowError:
        return np.inf
    if mu == np.inf:
        return np.inf
    return float(np.hypot(A[1, 0] - mu * (-s), A[1, 1] - mu * c))


def ref_rank(M, tol=mx.DEFAULT_RANK_TOL):
    A = mx.asmatrix(M)
    mx._check_rank_tol(tol)
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def ref_member_single(M, set_id, tol):
    sid = set_id.strip()
    if sid in ("full", "FULL"):
        return True
    if sid == "L1":
        ref_halves(M)
        return ref_offdiag_block_norm(M) <= tol
    if sid == "L2":
        ref_halves(M)
        return ref_diag_block_norm(M) <= tol
    if sid == "L":
        ref_halves(M)
        return ref_offdiag_block_norm(M) <= tol or ref_diag_block_norm(M) <= tol
    if sid == "Sigma":
        if M.shape[0] != M.shape[1]:
            raise PreconditionError("Sigma needs a square matrix")
        return abs(np.linalg.det(M) - 1.0) <= tol
    if sid.startswith("rank<="):
        m = int(sid[len("rank<="):])
        return ref_rank(M, max(tol, 1e-15)) <= m
    if sid == "D":
        if M.shape[0] != M.shape[1]:
            raise PreconditionError("D needs a square matrix")
        return mx.frob(M - np.diag(np.diag(M))) <= tol
    if sid == "D>=2":
        if M.shape[0] != M.shape[1]:
            raise PreconditionError("D>=2 needs a square matrix")
        if mx.frob(M - np.diag(np.diag(M))) > tol:
            return False
        return bool(np.all(np.abs(np.diag(M)) >= 2.0 - tol))
    if sid.startswith("E:"):
        rho = float(sid[2:])
        if rho <= 0:
            raise PreconditionError("E:rho needs rho > 0")
        if M.shape != (2, 2):
            raise PreconditionError("E:rho needs a 2x2 matrix")
        if mx.frob(M) <= tol:
            return True
        return ref_rotation_fit(M, lambda lam: rho * lam) <= tol
    if sid.startswith("Kp:"):
        p = float(sid[3:])
        if not p > 1.0:
            raise PreconditionError("Kp:p needs p > 1")
        if M.shape != (2, 2):
            raise PreconditionError("Kp:p needs a 2x2 matrix")
        if mx.frob(M) <= tol:
            return True
        return ref_rotation_fit(M, lambda lam: lam ** (p - 1.0)) <= tol
    raise PreconditionError(f"unknown matrix set id {set_id!r}")


def ref_member(M, set_id, tol=mx.DEFAULT_EQ_TOL):
    M = mx.asmatrix(M)
    parts = [p for p in set_id.split("&") if p.strip()]
    if not parts:
        raise PreconditionError("empty set id")
    return all(ref_member_single(M, p, tol) for p in parts)


def ref_set_distance(M, set_id):
    M = mx.asmatrix(M)
    if set_id == "L1":
        return ref_offdiag_block_norm(M)
    if set_id == "L2":
        return ref_diag_block_norm(M)
    if set_id == "L":
        return min(ref_offdiag_block_norm(M), ref_diag_block_norm(M))
    raise PreconditionError(f"set_distance supports L/L1/L2 only, got {set_id!r}")


def outcome(f):
    """f()'s value, or the type and message of what it raised."""
    try:
        return f()
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def predicate_stack(rng, d, tol):
    """A (k, d, d) stack for every set id: random rows, zeros and -0.0,
    rows in L1, L2, D, D>=2, Sigma, E:rho and Kp:p (d = 2) and of rank one,
    rows whose distance to a set sits at tol or within an ulp of it, and
    all of them again at scale 1e140."""
    h = d // 2
    rows = [np.zeros((d, d)), np.full((d, d), -0.0), -np.eye(d), np.eye(d)]
    for _ in range(12):
        X = rng.normal(size=(d, d))
        rows.append(X)
        rows.append(np.outer(rng.normal(size=d), rng.normal(size=d)))
        for blocks in ((slice(None, h), slice(h, None)), (slice(h, None), slice(None, h))):
            Y = X.copy()
            Y[blocks] = 0.0
            Y[blocks[::-1]] = 0.0
            rows.append(Y)
            for scale in (tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 0.5 * tol):
                Z = Y.copy()
                Z[blocks[0].start or 0, blocks[1].start or 0] = scale
                rows.append(Z)
        D = np.diag(rng.choice([-3.0, -2.0, 2.0 - tol, 2.0, 2.5], size=d))
        rows.append(D)
        rows.append(D + np.diag(np.full(d - 1, tol), 1))
        S1 = np.diag(rng.uniform(0.5, 2.0, size=d))
        S1[0, 0] = 1.0 / np.prod(np.diag(S1)[1:])
        rows.append(S1)
        S1 = S1.copy()
        S1[0, 0] += tol
        rows.append(S1)
        if d == 2:
            lam, t = rng.uniform(0.1, 5.0), rng.uniform(0, 2 * np.pi)
            for mu in (3.0 * lam, lam ** 0.5, lam ** 2.0, 0.5 * lam):
                rows.append(np.diag([lam, mu]) @ rot(t))
                rows.append(-np.diag([lam, mu]))
            rows.append(np.array([[0.0, 0.0], [1.0, 2.0]]))
            rows.append(np.array([[0.0, 0.0], [tol, 0.0]]))
    base = np.array(rows)
    return np.concatenate([base, 1e140 * base])


_SET_IDS = ["full", "FULL", "L1", "L2", "L", "Sigma", "rank<=0", "rank<=1", "rank<=2",
            "D", "D>=2", "E:3.0", "E:0.5", "Kp:1.5", "Kp:3.0", " L1 & Sigma ",
            "L&Sigma", "Sigma&L", "D&rank<=1", "L2&E:2.0", "L1&bogus", "E:2&L1",
            "Kp:1.5&Sigma&L", "rank<=1&D>=2", "&", "E:-1", "Kp:0.5", "Sigma&Kp:0.5",
            "Sigma&E:0"]


@pytest.mark.blas_kernels
@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("tol", [1e-9, 1e-8, 1e-2])
def test_member_rows_match_the_per_matrix_loop(d, tol):
    S = predicate_stack(np.random.default_rng([d, round(-np.log10(tol))]), d, tol)
    # the 1e140 rows overflow det at d >= 4: the warning, an error under
    # this suite's filter, is compared too, and the unscaled half alone
    mixed = ["L1", "L2", "L", "Sigma", "rank<=1", "D", "D>=2"] + (d == 2) * ["E:3.0", "Kp:1.5"]
    for set_id, T in itertools.product(_SET_IDS, (S, S[:len(S) // 2])):
        want = outcome(lambda: [ref_member(X, set_id, tol) for X in T])
        got = outcome(lambda: mx._member_rows(T, set_id, tol).tolist())
        assert got == want, set_id
        if set_id in mixed and T is not S:   # members and non-members
            assert 0 < sum(want) < len(want), set_id
    for set_id in _SET_IDS:
        for i in range(0, len(S), 17):
            assert outcome(lambda: mx.member(S[i], set_id, tol)) == \
                outcome(lambda: ref_member(S[i], set_id, tol)), (set_id, i)


@pytest.mark.blas_kernels
@pytest.mark.parametrize("d", [2, 4, 6])
def test_distance_and_rank_rows_match_the_per_matrix_calls(d):
    S = predicate_stack(np.random.default_rng(d), d, 1e-9)
    for set_id in ("L1", "L2", "L", "L1&L2", "Sigma"):
        want = outcome(lambda: [ref_set_distance(X, set_id).hex() for X in S])
        got = outcome(lambda: [x.hex() for x in mx._distance_rows(S, set_id).tolist()])
        assert got == want, set_id
        for i in range(0, len(S), 13):
            one = outcome(lambda: mx.set_distance(S[i], set_id))
            assert one == outcome(lambda: ref_set_distance(S[i], set_id))
            assert not isinstance(one, float) or type(one) is float
    for tol in (1e-9, 1e-3):
        want = [ref_rank(X, tol) for X in S]
        assert mx._rank_rows(S, tol).tolist() == want
        assert [mx.rank(X, tol) for X in S[::7]] == want[::7]
        assert all(type(mx.rank(X, tol)) is int for X in S[:3])


@pytest.mark.blas_kernels
@pytest.mark.parametrize("d", [2, 4, 6])
def test_one_row_predicates_read_a_matrix_in_memory_order(d):
    # a transposed or Fortran-ordered matrix is summed in memory order, as
    # `frob` and np.linalg.norm sum it; verdicts are compared at |M| = tol
    for X in predicate_stack(np.random.default_rng(d + 10), d, 1e-9)[::5]:
        for M in (X.T, np.asfortranarray(X)):
            for set_id in ("L1", "L2", "L"):
                assert mx.set_distance(M, set_id).hex() == ref_set_distance(M, set_id).hex()
            for set_id, tol in itertools.product(_SET_IDS[:15], (mx.frob(M), 1e-9)):
                assert outcome(lambda: mx.member(M, set_id, tol)) == \
                    outcome(lambda: ref_member(M, set_id, tol)), set_id


@pytest.mark.blas_kernels
@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (1, 1)])
def test_predicate_errors_on_other_shapes(shape):
    S = np.random.default_rng(list(shape)).normal(size=(5, *shape))
    for set_id in _SET_IDS:
        want = outcome(lambda: [ref_member(X, set_id, 1e-9) for X in S])
        assert outcome(lambda: mx._member_rows(S, set_id, 1e-9).tolist()) == want, set_id
    for set_id in ("L1", "L2", "L", "D"):
        assert outcome(lambda: mx._distance_rows(S, set_id).tolist()) == \
            outcome(lambda: [ref_set_distance(X, set_id) for X in S])
    assert mx._rank_rows(S, 1e-9).tolist() == [ref_rank(X) for X in S]


def test_block_norms_square_like_numpy_scalars():
    # C pow(x, 2) and x * x round apart at this norm
    y = 97948.26320308917
    assert y * y != np.float64(y) ** 2
    A = np.array([[0.0, y], [0.0, 0.0]])
    assert mx.set_distance(A, "L1").hex() == ref_set_distance(A, "L1").hex()
    with pytest.raises(RuntimeWarning, match="overflow"):   # as np.linalg.norm(X) ** 2 does
        mx.set_distance(np.array([[0.0, 1e160], [0.0, 0.0]]), "L1")


@pytest.mark.parametrize("set_id, message", [
    ("rank<=x", "m must be an integer >= 0"),
    ("rank<=-1", "m must be an integer >= 0"),
    ("E:abc", "rho must be a finite number"),
    ("E:nan", "rho must be a finite number"),
    ("E:inf", "rho must be a finite number"),
    ("Kp:1e400", "p must be a finite number"),
    ("Kp:nan", "p must be a finite number"),
    ("E:-inf", "rho must be a finite number"),
])
def test_malformed_set_id_names_the_id(set_id, message):
    for M in (np.eye(2), np.zeros((2, 2))):
        with pytest.raises(PreconditionError) as got:
            mx.member(M, f"L&{set_id}")
        assert str(got.value) == f"matrix set id {set_id!r}: {message}"


def ref_signed_block_svd(A, tol=mx.DEFAULT_EQ_TOL):
    """`signed_block_svd` with one SVD call per diagonal block."""
    A = mx.asmatrix(A)
    n = ref_halves(A)
    if ref_offdiag_block_norm(A) > tol * (1.0 + mx.frob(A)):
        raise PreconditionError("matrix is not block-diagonal within tolerance")
    R, Q, D = np.zeros_like(A), np.zeros_like(A), np.zeros_like(A)
    for (r0, r1) in ((0, n), (n, 2 * n)):
        U, s, Vt = np.linalg.svd(A[r0:r1, r0:r1])
        s = s.copy()
        if np.linalg.det(U) < 0:
            U = U.copy()
            U[:, 0] *= -1.0
            s[0] *= -1.0
        if np.linalg.det(Vt) < 0:
            Vt = Vt.copy()
            Vt[0, :] *= -1.0
            s[0] *= -1.0
        R[r0:r1, r0:r1], Q[r0:r1, r0:r1], D[r0:r1, r0:r1] = U, Vt.T, np.diag(s)
    return R, D, Q


@pytest.mark.blas_kernels
@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_block_svd_matches_one_call_per_block(n):
    # the two blocks go through one stacked SVD and det; signs flip per block
    rng = np.random.default_rng(n)
    for i in range(300):
        A = np.zeros((2 * n, 2 * n))
        A[:n, :n] = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
        A[n:, n:] = np.diag(rng.choice([-2.0, 0.5, 2.0], n)) if i % 3 else -np.eye(n)
        A[0, -1] = rng.choice([0.0, 1e-12, 1e-3])
        got, want = outcome(lambda: mx.signed_block_svd(A)), outcome(lambda: ref_signed_block_svd(A))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
        else:
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
