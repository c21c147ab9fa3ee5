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
