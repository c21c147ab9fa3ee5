import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from lamstair import measures as ms
from lamstair import staircase as sc
from lamstair.errors import InternalError, PreconditionError
from lamstair.matrices import frob, member, rank
from test_measures import ref_validate


class TestDet1:
    def test_first_level_atoms(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        nu = sc.build_truncation(spec, 1)
        expect = {
            (0.5, 2.0): Fraction(4, 7),
            (4.0, 0.25): Fraction(8, 35),
            (4.0, 4.0): Fraction(1, 5),
        }
        assert len(nu) == 3
        for a in nu.atoms:
            key = (a.point[0, 0], a.point[1, 1])
            assert a.weight == expect[key]

    def test_gamma_closed_form(self):
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        assert spec.step(1).gamma == Fraction(1, 5)
        assert spec.gamma(1) == pytest.approx(0.2)

    def test_beta_two_sided_bounds(self):
        for a in ([2, 2], [2, -3], [3, 2, 2], [-2, -2, -2, 2]):
            d = len(a)
            spec = sc.example_staircase("det1", {"a": a})
            for n, beta in enumerate(sc.betas(spec, 20), start=1):
                assert Fraction(1, 2 ** (n * d + 1)) <= beta
                assert beta <= Fraction(2 ** (-n * d + 1))

    def test_certificate_replays(self):
        spec = sc.example_staircase("det1", {"a": [2, 3]})
        nu = sc.build_truncation(spec, 3)
        assert ms.verify_laminate(nu).ok

    def test_mu_supported_on_target(self):
        spec = sc.example_staircase("det1", {"a": [2, -4, 2]})
        for n in (1, 2, 5):
            for a in spec.step(n).mu.atoms:
                assert spec.in_target(a.point, 1e-7)

    def test_small_entries_need_flag(self):
        with pytest.raises(PreconditionError):
            sc.example_staircase("det1", {"a": [1.5, 4]})
        spec = sc.example_staircase("det1", {"a": [1.5, 4], "unchecked": True})
        assert ms.verify_laminate(sc.build_truncation(spec, 2)).ok

    def test_weak_tail_envelopes(self):
        # p = d with c = c0 = 2, c1 = 1/2
        a = [2, 2]
        spec = sc.example_staircase("det1", {"a": a})
        d = len(a)
        normA = frob(spec.A0)
        nu = sc.build_truncation(spec, 14)
        resid = float(sc.betas(spec, 14)[-1])
        for t in np.geomspace(normA, normA * 2.0 ** 10, 40):
            tail = ms.tail_mass(nu, t)
            assert tail <= 2.0 ** (1 + d) * normA ** d * t ** -d + 1e-12
            if t > 0.5 * normA:
                lower = 2.0 ** (-2 - d) * normA ** d * t ** -d
                assert tail + resid >= lower - 1e-12


class TestRankDrop:
    def test_first_level(self):
        spec = sc.example_staircase("rank_drop", {"a": [2, 3]})
        nu = sc.build_truncation(spec, 1)
        expect = {
            (0.0, 3.0): Fraction(2, 3) * Fraction(3, 4),
            (4.0, 0.0): Fraction(1, 3) * Fraction(3, 4),
            (4.0, 6.0): Fraction(1, 4),
        }
        assert len(nu) == 3
        for a in nu.atoms:
            key = (a.point[0, 0], a.point[1, 1])
            assert a.weight == expect[key]

    def test_gamma_and_rank_target(self):
        for m in (2, 3, 4):
            spec = sc.example_staircase("rank_drop", {"a": [2] * m})
            assert spec.step(1).gamma == Fraction(1, 2 ** m)
            for a in spec.step(2).mu.atoms:
                assert rank(a.point) <= m - 1

    def test_replay(self):
        spec = sc.example_staircase("rank_drop", {"a": [3, 0, 2]})
        assert ms.verify_laminate(sc.build_truncation(spec, 3)).ok

    def test_rank_one_rejected(self):
        with pytest.raises(PreconditionError):
            sc.example_staircase("rank_drop", {"a": [2, 0, 0]})

    def test_hypotheses(self):
        m = 3
        spec = sc.example_staircase("rank_drop", {"a": [2] * m})
        normA = frob(spec.A0)
        rep = sc.check_hypotheses(spec, p=m, N=10, c=2.0, c0=2.0,
                                  M0=normA ** m, c1=2.0 ** -m,
                                  M1=2.0 ** -m * normA ** m)
        assert rep.passed


@pytest.mark.parametrize("kind", ["det1", "rank_drop"])
@pytest.mark.parametrize("a", [3, math.nan, [math.nan, 2.0], [math.inf, 2.0], [3, -math.inf],
                               "22", None, [2, "3"], [10 ** 400, 2], [Fraction(10 ** 400), 2]])
def test_malformed_diagonal_is_precondition(kind, a):
    with pytest.raises(PreconditionError, match="a sequence of finite numbers"):
        sc.example_staircase(kind, {"a": a})
    with pytest.raises(PreconditionError, match="a sequence of finite numbers"):
        sc.example_staircase(kind, {})


class TestElliptic:
    def test_first_step_weights(self):
        spec = sc.example_staircase("elliptic", {"K": 3.0})
        st = spec.step(1)
        a1 = st.splits[0].lam
        assert a1 == pytest.approx(3 / 7)
        assert float(st.gamma) == pytest.approx(5 / 14)

    def test_atoms_in_elliptic_sets(self):
        spec = sc.example_staircase("elliptic", {"K": 3.0})
        for n in (1, 2, 7):
            for a in spec.step(n).mu.atoms:
                assert spec.in_target(a.point, 1e-8)

    def test_replay(self):
        spec = sc.example_staircase("elliptic", {"K": 2.5, "x0": 1.5})
        assert ms.verify_laminate(sc.build_truncation(spec, 5)).ok

    @pytest.mark.parametrize("K", [1.5, 3.0, 10.0])
    def test_beta_slope(self, K):
        spec = sc.example_staircase("elliptic", {"K": K})
        q = 2.0 * K / (K + 1.0)
        slope = sc.beta_slope(spec, 200, 4000)
        assert slope == pytest.approx(-q, rel=0.01)


class TestPlaplace:
    def test_replay_and_target(self):
        spec = sc.example_staircase("plaplace", {"p": 1.5, "b": 9.0})
        assert ms.verify_laminate(sc.build_truncation(spec, 4)).ok
        for a in spec.step(3).mu.atoms:
            assert spec.in_target(a.point, 1e-8)

    @pytest.mark.parametrize("p,b", [(1.5, 9.0), (1.1, 4.0), (1.9, 30.0)])
    def test_beta_slope_matches_exponent(self, p, b):
        spec = sc.example_staircase("plaplace", {"p": p, "b": b})
        q = (p - 1.0) / (b ** (p - 1.0) + 1.0) + b / (b + 1.0)
        slope = sc.beta_slope(spec, 200, 4000)
        assert slope == pytest.approx(-q, rel=0.01)


# The closed forms of gamma_n that the families once kept beside their block
# builders, for log_betas; the blocks are now the only source of gamma_n.

def ref_det1_gamma(a, n):
    d = len(a)
    D = math.prod(float(v) for v in a) * 2.0 ** ((n - 1) * d)
    return (D - 1.0) / (2.0 ** d * D - 1.0)


def ref_rank_drop_gamma(a, n):
    return 0.5 ** sum(float(v) != 0.0 for v in a)


def ref_elliptic_gamma(K, n, x0=1.0):
    kinv = 1.0 / K
    x = x0 + (n - 1)
    a1 = 1.0 / (1.0 + x * (1.0 + kinv))
    l2 = 1.0 / ((x + 1.0) * (1.0 + kinv))
    return (1.0 - a1) * (1.0 - l2)


def ref_plaplace_gamma(p, b, n, x0=1.0):
    q = p - 1.0
    x = x0 + (n - 1)
    a1 = ((x + 1.0) ** q - x ** q) / ((b * x) ** q + (x + 1.0) ** q)
    l2 = b / ((b + 1.0) * (x + 1.0))
    return (1.0 - a1) * (1.0 - l2)


def assert_log_betas_match(spec, gamma, N):
    ref = np.cumsum(np.log(np.array([gamma(n) for n in range(1, N + 1)])))
    assert sc.log_betas(spec, N).tobytes() == ref.tobytes()


class TestLogBetasMatchClosedForms:
    @pytest.mark.parametrize("K", [1.5, 3.0, 10.0])
    def test_elliptic(self, K):
        spec = sc.example_staircase("elliptic", {"K": K})
        assert_log_betas_match(spec, lambda n: ref_elliptic_gamma(K, n), 10_000)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    def test_plaplace(self, p):
        from lamstair.models import select_b
        b = select_b(p)
        spec = sc.example_staircase("plaplace", {"p": p, "b": b})
        assert_log_betas_match(spec, lambda n: ref_plaplace_gamma(p, b, n), 10_000)

    @pytest.mark.parametrize("a", [[2, 3], [3, 0, 2], [2.5, -2.0, 0.0], [2] * 4])
    def test_rank_drop(self, a):
        spec = sc.example_staircase("rank_drop", {"a": a})
        assert_log_betas_match(spec, lambda n: ref_rank_drop_gamma(a, n), 500)

    @pytest.mark.parametrize("a", [[2, 2], [2, -3], [-5, 4]])
    def test_integer_det1(self, a):
        spec = sc.example_staircase("det1", {"a": a})
        assert spec.rational
        assert_log_betas_match(spec, lambda n: ref_det1_gamma(a, n), 500)

    @pytest.mark.parametrize("a, n_differ", [([2.5, 2.0], 20), ([2.5, -3.5], 8)])
    def test_float_det1_within_an_ulp(self, a, n_differ):
        # the blocks' products of 1 - alpha_j round differently from the
        # closed form (D - 1) / (2^d D - 1) in the last bit on some levels;
        # an ulp is the larger gamma's, as gamma crosses 1/4 on some levels
        spec = sc.example_staircase("det1", {"a": a})
        got = np.concatenate([blk.gamma for blk in sc._walk(spec, 1, 500)])
        ref = np.array([ref_det1_gamma(a, n) for n in range(1, 501)])
        ulps = np.abs(got - ref) / np.spacing(np.maximum(got, ref))
        assert ulps.max() == 1.0 and np.count_nonzero(ulps) == n_differ
        assert sc.log_betas(spec, 500).tobytes() == np.cumsum(np.log(got)).tobytes()


class TestTransform:
    def test_rotation_preserves_tails_and_replay(self):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        spec = sc.example_staircase("det1", {"a": [2, 2]})
        moved = sc.transform_spec(spec, sc.LinMap(R, np.eye(2)))
        nu0 = sc.build_truncation(spec, 4)
        nu1 = sc.build_truncation(moved, 4)
        assert ms.verify_laminate(nu1).ok
        for t in (1.0, 4.0, 16.0):
            assert ms.tail_mass(nu1, t) == pytest.approx(ms.tail_mass(nu0, t))

    def test_compose(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        T1 = sc.LinMap(np.diag([2.0, 1.0]), np.eye(2), -1.0)
        T2 = sc.LinMap(np.eye(2), np.diag([1.0, 3.0]), 2.0)
        assert np.allclose(T1.after(T2)(A), T1(T2(A)))


class TestExtendedElliptic:
    def check(self, ext, N=6):
        nu = ext.truncate(N)
        assert nu.mass == pytest.approx(1.0)
        assert ms.verify_laminate(nu).ok
        assert np.allclose(ms.barycenter(nu), ext.A, atol=1e-8)
        K = ext.params["K"]
        sets = (f"E:{K!r}", f"E:{1.0 / K!r}")
        stray = sum(float(a.weight) for a in nu.atoms
                    if not any(member(a.point, s, 1e-7) for s in sets))
        assert stray <= ext.residual_mass(N) + 1e-9

    def test_pure_staircase_seed(self):
        ext = sc.extended_measure("elliptic", np.diag([-2.0, 2.0]), {"K": 3.0})
        assert not ext.finite_atoms and len(ext.tails) == 1
        self.check(ext)

    def test_member_is_dirac(self):
        ext = sc.extended_measure("elliptic", np.diag([2.0, 6.0]), {"K": 3.0})
        assert len(ext.finite_atoms) == 1 and not ext.tails
        self.check(ext)

    def test_zero_matrix(self):
        ext = sc.extended_measure("elliptic", np.zeros((2, 2)), {"K": 3.0})
        self.check(ext)

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_matrices(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-3.0, 3.0, size=(2, 2))
        ext = sc.extended_measure("elliptic", A, {"K": 3.0})
        self.check(ext)

    def test_tail_report_reference(self):
        ext = sc.extended_measure("elliptic", np.diag([-1.0, 1.0]), {"K": 3.0})
        rep = sc.extended_tail_report(ext, 200, np.geomspace(2.0, 50.0, 40))
        assert rep.passed
        assert rep.meta["fitted_M"] <= 1e3


class TestExtendedPlaplace:
    def check(self, ext, N=6):
        nu = ext.truncate(N)
        assert nu.mass == pytest.approx(1.0)
        assert ms.verify_laminate(nu).ok
        assert np.allclose(ms.barycenter(nu), ext.A, atol=1e-8)
        p = ext.params["p"]
        stray = sum(float(a.weight) for a in nu.atoms
                    if not member(a.point, f"Kp:{p!r}", 1e-7))
        assert stray <= ext.residual_mass(N) + 1e-9

    def test_pure_staircase_seed(self):
        A = np.diag([9.0, -1.0])
        ext = sc.extended_measure("plaplace", A, {"p": 1.5, "b": 9.0})
        assert not ext.finite_atoms and len(ext.tails) == 1
        self.check(ext)

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_matrices(self, seed):
        rng = np.random.default_rng(100 + seed)
        A = rng.uniform(-2.0, 2.0, size=(2, 2))
        ext = sc.extended_measure("plaplace", A, {"p": 1.5, "b": 9.0})
        self.check(ext)

    def test_tail_report(self):
        ext = sc.extended_measure("plaplace", np.diag([1.0, -1.0]),
                                  {"p": 1.5, "b": 9.0})
        rep = sc.extended_tail_report(ext, 300, np.geomspace(2.5, 60.0, 40))
        assert rep.passed


# ---------------------------------------------------------------------------
# build_truncation slices a per-spec prefix cache; the loop below builds
# every truncation from scratch, as build_truncation did before the cache


def build_truncation_from_scratch(spec, N):
    """Reference only: every level rebuilt for each N."""
    atoms, cert = [], []
    beta_prev = Fraction(1) if spec.rational else 1.0
    last = None
    prev_norm = -1.0
    for n in range(1, N + 1):
        st = spec.step(n)
        nrm = frob(st.A_next)
        if nrm < prev_norm - 1e-9:
            raise PreconditionError(f"|A_n| not non-decreasing at level {n}")
        prev_norm = nrm
        g = st.gamma
        if isinstance(beta_prev, Fraction) and isinstance(g, Fraction):
            good_w = beta_prev * (1 - g)
            beta_prev = beta_prev * g
        else:
            good_w = float(beta_prev) * (1.0 - float(g))
            beta_prev = float(beta_prev) * float(g)
        atoms.extend(ms.Atom(ms._wmul(a.weight, good_w), a.point) for a in st.mu.atoms)
        cert.extend(st.splits)
        last = st
    atoms.append(ms.Atom(beta_prev, last.A_next))
    return ms.DiscreteMeasure(atoms, cert)


# ---------------------------------------------------------------------------
# specs built level by level: per-level steps stacked into blocks


def stack(steps):
    """(the block of steps of one matrix shape, or None for none; the error
    it ends on, or None), as a block builder returns them; `exact` holds the
    gammas, mu weights and split fractions as given.  One stack of split
    matrices cannot hold a split of another shape, so the block ends before
    the first step with one, on the error `_block_failure` names after that
    step's first failing split (`_split_failure` on its splits).  Such a
    step carries no other fault in these tests."""
    if not steps:
        return None, None
    shape = steps[0].A_next.shape
    for i, st in enumerate(steps):
        if any(M.shape != shape for s in st.splits for M in (s.target, s.left, s.right)):
            j, cause = ms._split_failure(st.splits)
            err = PreconditionError(f"step {st.n}, split {j}: {cause}")
            err.__cause__ = cause
            return stack(steps[:i])[0], err
    mus = [st.mu for st in steps]
    splits = [s for st in steps for s in st.splits]
    A_next = np.array([st.A_next for st in steps], dtype=float)
    pts = np.concatenate([mu._stack for mu in mus])
    mats = np.array([(s.target, s.left, s.right) for s in splits], dtype=float)
    return sc._Block(np.array([st.n for st in steps]),
                     np.array([st.A_prev for st in steps], dtype=float), A_next,
                     np.array([float(st.gamma) for st in steps]),
                     np.array([mu.mass for mu in mus]), sc._offsets(list(map(len, mus))),
                     np.concatenate([mu._w for mu in mus]),
                     pts.reshape(len(pts), *A_next.shape[1:]),
                     np.concatenate([mu._keys for mu in mus]),
                     sc._offsets([len(st.splits) for st in steps]),
                     np.array([float(s.lam) for s in splits]),
                     mats.reshape(len(splits), 3, *A_next.shape[1:]),
                     ([st.gamma for st in steps],
                      np.concatenate([mu._w.astype(object) if mu._exact is None
                                      else mu._exact for mu in mus]),
                      [s.lam for s in splits])), None


def stepwise(step_fn):
    """A block builder from a per-level one: one `step_fn` call per level up
    to the first that raises, stacked; that exception is the error, unless
    the stack ends earlier on its own."""
    def block_fn(lo, hi):
        steps, err = [], None
        for n in range(lo, hi + 1):
            try:
                steps.append(step_fn(n))
            except Exception as exc:
                err = exc
                break
        blk, bad = stack(steps)
        return blk, bad or err
    return block_fn


def stacked_failure(steps, tol=1e-9):
    """The first step that fails `_block_failure`'s checks, as (index,
    error), or None: the steps stacked into one block per matrix shape."""
    groups = {}
    for i, st in enumerate(steps):
        groups.setdefault(np.shape(st.A_next), []).append(i)
    out = None
    for rows in groups.values():
        blk, err = stack([steps[i] for i in rows])
        bad = None if blk is None else sc._block_failure(blk, tol)
        if bad is None and err is not None:
            bad = (0 if blk is None else len(blk)), err
        if bad is not None and (out is None or rows[bad[0]] < out[0]):
            out = rows[bad[0]], bad[1]
    return out


def validate_step(st, tol=1e-9):
    """The one-step case of `stacked_failure`: raise the step's error."""
    bad = stacked_failure([st], tol)
    if bad is not None:
        raise bad[1]


def level_step(spec, n):
    """Level n of spec as its block builder makes it, unvalidated."""
    return spec._block_fn(n, n)[0].step(0)


def measure_bits(nu):
    """Everything a truncation carries, with exact weights and point bytes."""
    atoms = [(type(a.weight), a.weight, a.point.shape, a.point.tobytes())
             for a in nu.atoms]
    cert = [(type(s.lam), s.lam) + tuple(M.tobytes() for M in (s.target, s.left, s.right))
            for s in nu.certificate]
    return atoms, cert, nu.mass


ROT = sc.LinMap(np.array([[0.6, -0.8], [0.8, 0.6]]), np.eye(2), 2.0)
FAMILIES = {
    "det1": lambda: sc.example_staircase("det1", {"a": [2, 3]}),
    "rank_drop": lambda: sc.example_staircase("rank_drop", {"a": [2, 0, 3]}),
    "elliptic": lambda: sc.example_staircase("elliptic", {"K": 3.0, "x0": 1.5}),
    "plaplace": lambda: sc.example_staircase("plaplace", {"p": 1.5, "b": 9.0}),
    "moved_plaplace": lambda: sc.transform_spec(
        sc.example_staircase("plaplace", {"p": 1.3, "b": 4.0}), ROT),
}
LEVELS = [1, 2, 3, 7, 12, 25]


class TestPrefixCache:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_from_scratch(self, family, order):
        ref_spec, spec = FAMILIES[family](), FAMILIES[family]()
        assert spec.rational == (family in ("det1", "rank_drop"))
        Ns = {"ascending": LEVELS, "descending": LEVELS[::-1],
              "shuffled": [7, 1, 25, 3, 12, 2, 7]}[order]
        for N in Ns:
            got = sc.build_truncation(spec, N)
            assert measure_bits(got) == measure_bits(build_truncation_from_scratch(ref_spec, N))
        assert len(spec._levels) == max(Ns)

    def test_repeated_truncations_share_points(self):
        # repeated truncations slice one array prefix, which is not rebuilt
        spec = FAMILIES["plaplace"]()
        built, block_fn = [], spec._block_fn
        spec._block_fn = lambda lo, hi: built.extend(range(lo, hi + 1)) or block_fn(lo, hi)
        sc.build_truncation(spec, 12)
        blocks = [tuple(map(id, rows)) for rows in spec._rows]
        levels = list(map(id, spec._blocks))
        b = sc.build_truncation(spec, 5)
        assert built == list(range(1, 13)) and len(spec._levels) == 12
        assert [tuple(map(id, rows)) for rows in spec._rows] == blocks
        assert list(map(id, spec._blocks)) == levels
        # every atom of b but the remainder is a row of the prefix's stack
        stack = spec._rows[0][2][:spec._levels[4][0]]
        rest = spec.step(5).A_next.tobytes()
        assert sorted(P.tobytes() for P in b._stack if P.tobytes() != rest) == sorted(
            P.tobytes() for P in stack)
        assert b._exact is None and "atoms" not in vars(b)
        assert len(b) == len(stack) + 1 and "atoms" not in vars(b)

    @staticmethod
    def shrinking_spec(level):
        """A valid staircase whose |A_n| drops at one level: that level's
        step is scaled down by 10."""
        base = sc.example_staircase("elliptic", {"K": 3.0})
        small = sc.transform_spec(base, sc.LinMap(np.eye(2), np.eye(2), 0.1))
        return sc.StaircaseSpec(base.A0, "elliptic", base.params,
                                stepwise(lambda n: (small if n == level else base).step(n)),
                                base.target_sets)

    def test_non_monotone_norms_name_the_level(self):
        msg = "|A_n| not non-decreasing at level 6"
        with pytest.raises(PreconditionError) as ref:
            build_truncation_from_scratch(self.shrinking_spec(6), 9)
        assert str(ref.value) == msg
        spec = self.shrinking_spec(6)
        assert measure_bits(sc.build_truncation(spec, 4)) == measure_bits(
            build_truncation_from_scratch(self.shrinking_spec(6), 4))
        for N in (9, 6, 20):
            with pytest.raises(PreconditionError) as exc:
                sc.build_truncation(spec, N)
            assert str(exc.value) == msg
        # the failed levels left the prefix as it was
        assert len(spec._levels) == 5
        assert measure_bits(sc.build_truncation(spec, 5)) == measure_bits(
            build_truncation_from_scratch(self.shrinking_spec(6), 5))

    def test_invalid_inner_step_raises_through_transform(self):
        # step 3's A_prev is off by 1e-6; scaled by 1e-4 the mismatch falls
        # under the tolerance, so only the check of the inner step catches it
        base = sc.example_staircase("elliptic", {"K": 3.0})

        def step_fn(n):
            st = base.step(n)
            if n == 3:
                st = sc.StairStep(n, st.A_prev + 1e-6 * np.eye(2), st.A_next,
                                  st.mu, st.gamma, st.splits)
            return st

        inner = sc.StaircaseSpec(base.A0, "elliptic", base.params, stepwise(step_fn),
                                 base.target_sets)
        shrink = sc.LinMap(np.eye(2), np.eye(2), 1e-4)
        moved = sc.transform_spec(inner, shrink)
        assert len(sc.build_truncation(moved, 2)) > 0
        with pytest.raises(PreconditionError, match="step 3: omega_n barycenter mismatch"):
            sc.build_truncation(moved, 5)
        assert not inner._memo
        # the transformed step on its own passes
        st = step_fn(3)
        with pytest.raises(PreconditionError):
            validate_step(st)
        validate_step(sc.StairStep(
            3, shrink(st.A_prev), shrink(st.A_next), ms.pushforward(st.mu, shrink),
            st.gamma, [ms.SplittingStep(shrink(s.target), shrink(s.left),
                                        shrink(s.right), s.lam) for s in st.splits]))


# ---------------------------------------------------------------------------
# stacked step checks against the per-step check they replaced


def ref_validate_step(st, tol=1e-9):
    """The per-step check that the stacked `_block_failure` replaced: one
    step, split by split."""
    g = float(st.gamma)
    if not (0.0 < g < 1.0):
        raise PreconditionError(f"step {st.n}: gamma {g} outside (0,1)")
    if abs(st.mu.mass - 1.0) > 1e-9:
        raise PreconditionError(f"step {st.n}: mu is not a probability measure")
    for i, s in enumerate(st.splits):
        try:
            ref_validate(s, tol)
        except Exception as exc:
            raise PreconditionError(f"step {st.n}, split {i}: {exc}") from exc
    bc = g * st.A_next
    for a in st.mu.atoms:
        bc = bc + (1.0 - g) * float(a.weight) * a.point
    if frob(bc - st.A_prev) > tol * (1.0 + frob(st.A_prev)):
        raise PreconditionError(f"step {st.n}: omega_n barycenter mismatch")


def ref_step_failure(steps, tol=1e-9):
    """(index, message, cause's message) of the first step that
    `ref_validate_step` rejects, overflow silent, or None."""
    with np.errstate(all="ignore"):
        for i, st in enumerate(steps):
            try:
                ref_validate_step(st, tol)
            except PreconditionError as exc:
                return i, str(exc), str(exc.__cause__)
    return None


def step_failure(steps, tol=1e-9):
    bad = stacked_failure(steps, tol)
    return None if bad is None else (bad[0], str(bad[1]), str(bad[1].__cause__))


# families of several shapes (2x2, 3x3) and atom counts (2, 3)
STEP_SOURCES = dict(FAMILIES, det1_3=lambda: sc.example_staircase("det1", {"a": [2, 2, 3]}),
                    elliptic_3=lambda: sc.example_staircase("elliptic", {"K": 1.5}))
SPECS = {name: make() for name, make in STEP_SOURCES.items()}


@hst.composite
def edge_step(draw):
    """A staircase step, at times with one fault: gamma at 0, 1, just
    inside, NaN or a Fraction; mu of mass 1/2; a split with lam outside
    (0,1), left == right, or another shape; A_{n-1} moved near the tolerance
    (0.5, 1 -+ 1e-6 and 2 times it)."""
    name = draw(hst.sampled_from(sorted(SPECS)))
    st = SPECS[name].step(draw(hst.integers(1, 6)))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n, A_prev, A_next, mu, gamma, splits = (st.n, st.A_prev, st.A_next, st.mu,
                                           st.gamma, list(st.splits))
    fault = rng.integers(8)
    if fault == 0:
        gamma = draw(hst.sampled_from([0.0, 1.0, np.nextafter(1.0, 0.0), float("nan"),
                                       Fraction(1, 2), Fraction(5, 4)]))
    elif fault == 1:
        mu = ms.DiscreteMeasure([a.scaled(0.5) for a in mu.atoms])
    elif fault == 2:
        j = int(rng.integers(len(splits)))
        s = splits[j]
        splits[j] = draw(hst.sampled_from([
            ms.SplittingStep(s.target, s.left, s.right, 1.5),
            ms.SplittingStep(s.target, s.left, s.left, s.lam),
            ms.SplittingStep(s.target, s.left[:1], s.right[:1], s.lam),
            ms.SplittingStep(s.target + 1e-3, s.left, s.right, s.lam)]))
    elif fault == 3:
        off = rng.normal(size=A_prev.shape)
        ratio = draw(hst.sampled_from([0.5, 1 - 1e-6, 1 + 1e-6, 2.0]))
        A_prev = A_prev + off * (ratio * 1e-9 * (1.0 + frob(A_prev)) / frob(off))
    return sc.StairStep(n, A_prev, A_next, mu, gamma, splits)


@given(hst.lists(edge_step(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_step_failure_matches_per_step_check(steps):
    assert step_failure(steps) == ref_step_failure(steps)
    for st in steps:
        ref = ref_step_failure([st])
        if ref is None:
            validate_step(st)
        else:
            with pytest.raises(PreconditionError) as got:
                validate_step(st)
            assert (str(got.value), str(got.value.__cause__)) == ref[1:]


def test_step_failure_of_nothing():
    assert step_failure([]) is None


# ---------------------------------------------------------------------------
# errors across a block boundary: the lowest failing level wins


K = sc._BLOCK + 88   # inside the second block


def faulty_source(faults):
    """An elliptic staircase with faults at some levels: "split" (split 1's
    lam is 1.5), "norm" (the level scaled by 1/10, so |A_n| drops there) or
    "raise" (step_fn raises)."""
    base = sc.example_staircase("elliptic", {"K": 3.0})
    small = sc.transform_spec(base, sc.LinMap(np.eye(2), np.eye(2), 0.1))

    def step_fn(n):
        fault = faults.get(n)
        if fault == "raise":
            raise RuntimeError(f"no level {n}")
        st = small.step(n) if fault == "norm" else level_step(base, n)
        if fault == "split":
            s = st.splits[1]
            st.splits[1] = ms.SplittingStep(s.target, s.left, s.right, 1.5)
        return st

    return sc.StaircaseSpec(base.A0, "elliptic", base.params, stepwise(step_fn),
                            base.target_sets)


MESSAGES = {"split": "step {}, split 1: split fraction 1.5 outside (0,1)",
            "norm": "|A_n| not non-decreasing at level {}",
            "raise": "no level {}"}
ORDERS = [("split", "norm", "raise"), ("norm", "split", "raise"),
          ("raise", "split", "norm"), ("split", "raise", "norm")]


@pytest.mark.parametrize("order", ORDERS)
def test_lowest_failing_level_wins_across_a_block(order):
    faults = dict(zip((K, K + 1, K + 2), order))
    msg = MESSAGES[order[0]].format(K)
    inner = faulty_source(faults)
    outer = sc.transform_spec(inner, ROT)
    for N in (K, K + 2, K + 50, 2 * sc._BLOCK + 3, K):
        with pytest.raises((PreconditionError, RuntimeError)) as exc:
            sc.build_truncation(outer, N)
        assert str(exc.value) == msg
        # the prefix and the memo end at the last good level
        assert len(outer._levels) == K - 1 and sorted(outer._memo) == list(range(1, K))
        assert not inner._memo
    # so does a level-by-level build, on a spec of its own
    with pytest.raises((PreconditionError, RuntimeError)) as ref:
        build_truncation_from_scratch(sc.transform_spec(faulty_source(faults), ROT), K + 2)
    assert str(ref.value) == msg
    # the levels before the fault are the from-scratch truncation's
    good = sc.transform_spec(sc.example_staircase("elliptic", {"K": 3.0}), ROT)
    assert measure_bits(sc.build_truncation(outer, K - 1)) == measure_bits(
        build_truncation_from_scratch(good, K - 1))


def test_fault_past_n_is_not_reached():
    inner = faulty_source({K: "split", K + 1: "norm", K + 2: "raise"})
    outer = sc.transform_spec(inner, ROT)
    assert len(sc.build_truncation(outer, K - 1)) > 0
    assert len(outer._levels) == K - 1 and not inner._memo


# ---------------------------------------------------------------------------
# block-built float levels against the per-level builders they replaced


def ref_plaplace_step(p, b, x0=1.0, fault=None):
    """The `plaplace` step_fn before block building; `fault(n, mats)` may
    change level n's matrices (a dict of diagonals) before they are used."""
    q = p - 1.0

    def step_fn(n):
        x = x0 + (n - 1)
        a1 = ((x + 1.0) ** q - x ** q) / ((b * x) ** q + (x + 1.0) ** q)
        l2 = b / ((b + 1.0) * (x + 1.0))
        d = {"A_prev": [b * x, -(x ** q)], "B1": [b * x, (b * x) ** q],
             "C": [b * x, -((x + 1.0) ** q)], "B2": [-(x + 1.0), -((x + 1.0) ** q)],
             "A_next": [b * (x + 1.0), -((x + 1.0) ** q)]}
        if fault is not None:
            fault(n, d)
        return two_split_step(n, d, a1, l2)

    return step_fn


def ref_elliptic_step(K, x0=1.0, fault=None):
    """The `elliptic` step_fn before block building."""
    kinv = 1.0 / K

    def step_fn(n):
        x = x0 + (n - 1)
        a1 = 1.0 / (1.0 + x * (1.0 + kinv))
        l2 = 1.0 / ((x + 1.0) * (1.0 + kinv))
        d = {"A_prev": [-x, x], "B1": [-x, -x * kinv], "C": [-x, x + 1.0],
             "B2": [(x + 1.0) * kinv, x + 1.0], "A_next": [-(x + 1.0), x + 1.0]}
        if fault is not None:
            fault(n, d)
        return two_split_step(n, d, a1, l2)

    return step_fn


def two_split_step(n, d, a1, l2):
    A_prev, B1, C, B2, A_next = (sc._diag(d[k]) for k in ("A_prev", "B1", "C", "B2", "A_next"))
    splits = [ms.SplittingStep(A_prev, B1, C, a1), ms.SplittingStep(C, B2, A_next, l2)]
    gamma = (1.0 - a1) * (1.0 - l2)
    mu = ms.DiscreteMeasure([ms.Atom(a1 / (1.0 - gamma), B1),
                             ms.Atom((1.0 - a1) * l2 / (1.0 - gamma), B2)])
    return sc.StairStep(n, A_prev, A_next, mu, gamma, splits)


def ref_transform_step(st, T):
    """The per-level step of `transform_spec` before blocks were mapped."""
    return sc.StairStep(st.n, T(st.A_prev), T(st.A_next), ms.pushforward(st.mu, T),
                        st.gamma, [ms.SplittingStep(T(s.target), T(s.left), T(s.right), s.lam)
                                   for s in st.splits])


def weight_bits(w):
    return type(w), w.hex() if isinstance(w, float) else w


def step_bits(st):
    """Everything a step carries, bit for bit."""
    mats = lambda *Ms: tuple((M.shape, M.dtype.str, np.asarray(M).tobytes()) for M in Ms)
    return (type(st.n), st.n, mats(st.A_prev, st.A_next), weight_bits(st.gamma),
            [(weight_bits(a.weight),) + mats(a.point) for a in st.mu.atoms],
            st.mu.mass.hex(), st.mu.certificate, type(st.splits),
            [(weight_bits(s.lam),) + mats(s.target, s.left, s.right) for s in st.splits])


def row_bits(blk, i):
    """step_bits of a block's row i, read off its arrays."""
    a, b = blk.mu_off[i], blk.mu_off[i + 1]
    s, e = blk.sp_off[i], blk.sp_off[i + 1]
    mats = lambda *Ms: tuple((M.shape, M.dtype.str, np.ascontiguousarray(M).tobytes())
                             for M in Ms)
    if blk.exact is None:
        gamma, ws, lams = float(blk.gamma[i]), blk.mu_w[a:b].tolist(), blk.sp_lam[s:e].tolist()
    else:
        gamma, ws, lams = blk.exact[0][i], blk.exact[1][a:b], blk.exact[2][s:e]
    return (type(int(blk.n[i])), int(blk.n[i]), mats(blk.A_prev[i], blk.A_next[i]),
            weight_bits(gamma),
            [(weight_bits(w),) + mats(P) for w, P in zip(ws, blk.mu_pts[a:b])],
            float(blk.mass[i]).hex(), None, list,
            [(weight_bits(lam),) + mats(*M) for lam, M in zip(lams, blk.sp_mats[s:e])])


R = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
FLIP = sc.LinMap(R, np.array([[0.0, -1.0], [-1.0, 0.0]]) @ R.T, -1.75)
FLOAT_FAMILIES = {
    "plaplace": (lambda: sc.example_staircase("plaplace", {"p": 1.3, "b": 4.0, "x0": 2.5}),
                 ref_plaplace_step(1.3, 4.0, 2.5)),
    "elliptic": (lambda: sc.example_staircase("elliptic", {"K": 2.5, "x0": 1.75}),
                 ref_elliptic_step(2.5, 1.75)),
}
ROW_LEVELS = [1, 511, 512, 513, 10_000]


@pytest.mark.parametrize("family", sorted(FLOAT_FAMILIES))
@pytest.mark.parametrize("moved", [False, True])
def test_block_rows_match_per_level_steps(family, moved):
    make, ref = FLOAT_FAMILIES[family]
    spec = sc.transform_spec(make(), FLIP) if moved else make()
    want = {n: ref(n) if not moved else ref_transform_step(ref(n), FLIP) for n in ROW_LEVELS}
    sc.build_truncation(spec, max(ROW_LEVELS))
    for n in ROW_LEVELS:
        blk, row = spec._level(n)
        assert row_bits(blk, row) == step_bits(want[n])
        assert step_bits(spec.step(n)) == step_bits(want[n])
    # a level built on its own, past a prefix or without one
    fresh = sc.transform_spec(make(), FLIP) if moved else make()
    for n in ROW_LEVELS:
        assert step_bits(fresh.step(n)) == step_bits(want[n])
        assert step_bits(level_step(fresh, n)) == step_bits(want[n])


def test_mapped_rational_rows_match_per_level_steps():
    make = lambda: sc.example_staircase("det1", {"a": [2, -3]})
    spec = sc.transform_spec(make(), FLIP)
    sc.build_truncation(spec, 6)
    src = make()
    for n in range(1, 7):
        want = step_bits(ref_transform_step(src.step(n), FLIP))
        blk, row = spec._level(n)
        assert row_bits(blk, row) == want and step_bits(spec.step(n)) == want


def test_singular_map_merges_atoms_as_pushforward_does():
    # a rank-one U sends both atoms of an elliptic level to one key
    T = sc.LinMap(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
    base = sc.example_staircase("elliptic", {"K": 3.0})
    spec = sc.transform_spec(sc.example_staircase("elliptic", {"K": 3.0}), T)
    blk, err = spec._block_fn(1, 4)
    assert err is None
    for i, n in enumerate(range(1, 5)):
        want = ref_transform_step(base.step(n), T)
        assert len(want.mu.atoms) == 1
        assert row_bits(blk, i) == step_bits(want)


def first_error(step_fn, N, T=None):
    """The message of the first error of a level-by-level build of N levels:
    build, checks, then (under T) the mapped step and its checks, then the
    |A_n| check."""
    top = -1.0
    for n in range(1, N + 1):
        try:
            st = step_fn(n)
            ref_validate_step(st)
            if T is not None:
                st = ref_transform_step(st, T)
                ref_validate_step(st)
        except Exception as exc:
            return str(exc)
        nrm = frob(st.A_next)
        if nrm < top - 1e-9:
            return f"|A_n| not non-decreasing at level {n}"
        top = nrm
    return None


SHRINK = sc.LinMap(np.eye(2), np.eye(2), 0.1)


def post_fault(kind, j):
    """(a change of the per-level step at level j, the same change to the row
    of a built block): split 1's lam is 1.5, mu's weights halved, or the
    level scaled by 1/10, so that |A_j| drops."""
    def on_step(st):
        if kind == "lam":
            s = st.splits[1]
            st.splits[1] = ms.SplittingStep(s.target, s.left, s.right, 1.5)
        elif kind == "mass":
            st.mu = ms.DiscreteMeasure([a.scaled(0.5) for a in st.mu.atoms])
        else:
            st = ref_transform_step(st, SHRINK)
        return st

    def on_block(blk):
        i = j - int(blk.n[0])
        if not 0 <= i < len(blk):
            return
        a, b = blk.mu_off[i], blk.mu_off[i + 1]
        s, e = blk.sp_off[i], blk.sp_off[i + 1]
        if kind == "lam":
            blk.sp_lam[s + 1] = 1.5
        elif kind == "mass":
            blk.mu_w[a:b] *= 0.5
            blk.mass[i] = sum(blk.mu_w[a:b].tolist(), 0.0)
        else:
            blk.A_prev[i], blk.A_next[i] = SHRINK(blk.A_prev[i]), SHRINK(blk.A_next[i])
            blk.mu_pts[a:b], blk.sp_mats[s:e] = SHRINK(blk.mu_pts[a:b]), SHRINK(blk.sp_mats[s:e])

    return on_step, on_block


def non_finite_fault(j):
    """A_{j-1}'s first entry is inf at level j, in both builders."""
    def on_diags(n, d):
        if n == j:
            d["A_prev"][0] = math.inf

    def on_block(n0, A_prev, *rest):
        if 0 <= j - n0 < len(A_prev[0]):
            A_prev = (A_prev[0].copy(), A_prev[1])
            A_prev[0][j - n0] = math.inf
        return (n0, A_prev) + rest

    return on_diags, on_block


FAULTS = ["nonfinite", "lam", "mass", "norm"]


def faulted_specs(monkeypatch, family, faults, moved):
    """(the family's block-built spec, its per-level reference step_fn), both
    with faults {level: kind}."""
    post = {j: post_fault(kind, j) for j, kind in faults.items() if kind != "nonfinite"}
    diag = {j: non_finite_fault(j) for j, kind in faults.items() if kind == "nonfinite"}
    block = sc._two_split_block

    def two_split_block(*args):
        for _, on_block in diag.values():
            args = on_block(*args)
        return block(*args)

    monkeypatch.setattr(sc, "_two_split_block", two_split_block)

    def on_diags(n, d):
        for f, _ in diag.values():
            f(n, d)

    if family == "plaplace":
        spec = sc.example_staircase("plaplace", {"p": 1.3, "b": 4.0, "x0": 2.5})
        base = ref_plaplace_step(1.3, 4.0, 2.5, on_diags)
    else:
        spec = sc.example_staircase("elliptic", {"K": 2.5, "x0": 1.75})
        base = ref_elliptic_step(2.5, 1.75, on_diags)
    block_fn = spec._block_fn

    def faulted_block_fn(lo, hi):
        blk, err = block_fn(lo, hi)
        if blk is not None:
            for _, on_block in post.values():
                on_block(blk)
        return blk, err

    def ref(n):
        st = base(n)
        return post[n][0](st) if n in post else st

    spec._block_fn = faulted_block_fn
    return (sc.transform_spec(spec, FLIP) if moved else spec), ref


@pytest.mark.parametrize("family", sorted(FLOAT_FAMILIES))
@pytest.mark.parametrize("kind", FAULTS)
@pytest.mark.parametrize("j", [40, sc._BLOCK, sc._BLOCK + 1])
@pytest.mark.parametrize("moved", [False, True])
def test_block_faults_raise_the_per_level_error(monkeypatch, family, kind, j, moved):
    spec, ref = faulted_specs(monkeypatch, family, {j: kind}, moved)
    msg = first_error(ref, j + 5, FLIP if moved else None)
    assert msg is not None and (str(j) in msg or kind == "nonfinite")
    for N in (j + 5, 2 * sc._BLOCK + 7, j):
        with pytest.raises(Exception) as exc:
            sc.build_truncation(spec, N)
        assert str(exc.value) == msg
        assert len(spec._levels) == j - 1 and sorted(spec._memo) == list(range(1, j))
    if kind != "norm":   # step(n) alone has no |A_n| check
        with pytest.raises(Exception) as exc:
            spec.step(j)
        assert str(exc.value) == msg


@pytest.mark.parametrize("family", sorted(FLOAT_FAMILIES))
@pytest.mark.parametrize("pair", [("lam", "nonfinite"), ("nonfinite", "mass"),
                                  ("norm", "lam"), ("mass", "norm")])
def test_lowest_block_fault_wins(monkeypatch, family, pair):
    j = sc._BLOCK
    spec, ref = faulted_specs(monkeypatch, family, {j: pair[0], j + 1: pair[1]}, True)
    msg = first_error(ref, j + 2, FLIP)
    with pytest.raises(Exception) as exc:
        sc.build_truncation(spec, j + 40)
    assert str(exc.value) == msg and len(spec._levels) == j - 1


def test_truncations_make_step_objects_on_demand(monkeypatch):
    ref = ref_transform_step(ref_plaplace_step(1.3, 4.0, 2.5)(1000), FLIP)
    made = {"steps": 0, "splits": 0}

    class CountedStep(sc.StairStep):
        def __init__(self, *args):
            made["steps"] += 1
            super().__init__(*args)

    class CountedSplit(ms.SplittingStep):
        def __post_init__(self):
            made["splits"] += 1
            super().__post_init__()

    monkeypatch.setattr(sc, "StairStep", CountedStep)
    monkeypatch.setattr(sc, "SplittingStep", CountedSplit)
    spec = sc.transform_spec(FLOAT_FAMILIES["plaplace"][0](), FLIP)
    a = sc.build_truncation(spec, 1000)
    b = sc.build_truncation(spec, 700)
    assert made == {"steps": 0, "splits": 0} and len(a.certificate) == 2000
    assert sc.betas(spec, 1000) == [lv[2] for lv in spec._levels] and not spec._loose
    # the splits are made once per level of the prefix, in whole blocks
    first = list(b.certificate)
    assert len(first) == 1400 and made == {"steps": 0, "splits": 2000}
    assert all(x is y for x, y in zip(a.certificate, first))
    assert made == {"steps": 0, "splits": 2000}
    split_bits = lambda s: (weight_bits(s.lam),) + tuple(
        M.tobytes() for M in (s.target, s.left, s.right))
    assert [split_bits(s) for s in a.certificate[-2:]] == [split_bits(s) for s in ref.splits]
    spec.step(1000)
    assert made == {"steps": 1, "splits": 2002}


def test_levels_past_a_build_fault_are_not_made(monkeypatch):
    # at level 41 an atom is so large that rounding its merge key overflows,
    # which the test suite's warning filter turns into an error; level 40's
    # non-finite entry fails first, as in a level-by-level build, which never
    # makes level 41
    j = 40

    def on_diags(n, d):
        if n == j:
            d["A_prev"][0] = math.inf
        if n == j + 1:
            d["B1"][0] = 1e300

    block = sc._two_split_block

    def two_split_block(n0, A_prev, B1, *rest):
        A_prev, B1 = (A_prev[0].copy(), A_prev[1]), (B1[0].copy(), B1[1])
        A_prev[0][j - n0], B1[0][j + 1 - n0] = math.inf, 1e300
        return block(n0, A_prev, B1, *rest)

    monkeypatch.setattr(sc, "_two_split_block", two_split_block)
    spec = sc.example_staircase("plaplace", {"p": 1.3, "b": 4.0, "x0": 2.5})
    msg = first_error(ref_plaplace_step(1.3, 4.0, 2.5, on_diags), j + 1)
    with pytest.raises(PreconditionError) as exc:
        sc.build_truncation(spec, j + 1)
    assert str(exc.value) == msg == "matrix has non-finite entries"
    assert len(spec._levels) == j - 1


# ---------------------------------------------------------------------------
# block-built diagonal levels (det1, rank_drop) against the per-level
# builders they replaced


def ref_det1_step(a):
    """The `det1` step_fn before block building; the seed checks are
    `example_staircase`'s."""
    fr = sc._as_fraction_list(a)
    rational = fr is not None
    base = fr if rational else [float(v) for v in a]
    d = len(base)
    two = Fraction(2) if rational else 2.0

    def step_fn(n):
        scale = two ** (n - 1)
        cur = [scale * v for v in base]
        sc._check_level_norm("det1", n, [2 * v for v in cur])
        D = math.prod(cur) if not rational else math.prod(cur, start=Fraction(1))
        running = list(cur)
        splits, mu_atoms = [], []
        keep = Fraction(1) if rational else 1.0
        for j in range(d):
            pw = two ** j
            alpha = (pw * D) / (2 * pw * D - 1)
            bcol = list(running)
            bcol[j] = cur[j] / (pw * D)
            ccol = list(running)
            ccol[j] = 2 * cur[j]
            splits.append(ms.SplittingStep(sc._diag(running), sc._diag(bcol),
                                           sc._diag(ccol), alpha))
            mu_atoms.append(ms.Atom(keep * alpha, sc._diag(bcol)))
            keep = keep * (1 - alpha)
            running = ccol
        gamma = keep
        expected = (D - 1) / (2 ** d * D - 1)
        if rational and gamma != expected:
            raise InternalError("det-1 remainder fraction disagrees with closed form")
        mu = ms.DiscreteMeasure([ms.Atom(a.weight / (1 - gamma), a.point) for a in mu_atoms])
        return sc.StairStep(n, sc._diag(cur), sc._diag(running), mu, gamma, splits)

    return step_fn


def ref_rank_drop_step(a):
    """The `rank_drop` step_fn before block building."""
    nz = [i for i, v in enumerate(a) if float(v) != 0.0]
    fr = sc._as_fraction_list(a)
    rational = fr is not None
    base = fr if rational else [float(v) for v in a]
    half = Fraction(1, 2) if rational else 0.5
    gamma = half ** len(nz)

    def step_fn(n):
        scale = (Fraction(2) if rational else 2.0) ** (n - 1)
        cur = [scale * v for v in base]
        sc._check_level_norm("rank_drop", n, [2 * v for v in cur])
        running = list(cur)
        splits, mu_atoms = [], []
        w = Fraction(1) if rational else 1.0
        for idx in nz:
            bcol = list(running)
            bcol[idx] = 0 * bcol[idx]
            ccol = list(running)
            ccol[idx] = 2 * cur[idx]
            splits.append(ms.SplittingStep(sc._diag(running), sc._diag(bcol),
                                           sc._diag(ccol), half))
            w = w * half
            mu_atoms.append(ms.Atom(w, sc._diag(bcol)))
            running = ccol
        mu = ms.DiscreteMeasure([ms.Atom(a.weight / (1 - gamma), a.point) for a in mu_atoms])
        return sc.StairStep(n, sc._diag(cur), sc._diag(running), mu, gamma, splits)

    return step_fn


DIAG_REFS = {"det1": ref_det1_step, "rank_drop": ref_rank_drop_step}
DIAG_SEEDS = {
    "det1": ("det1", {"a": [2, 3]}),
    "det1_neg": ("det1", {"a": [2, -3]}),
    "det1_frac": ("det1", {"a": [Fraction(5, 2), -3]}),
    "det1_float": ("det1", {"a": [2.5, -3.25]}),
    "det1_d3": ("det1", {"a": [-2, 2, 3]}),
    "det1_d4": ("det1", {"a": [2, -3, 2, -5]}),
    "det1_d4_float": ("det1", {"a": [2.5, -3.5, 2.25, -2.75]}),
    "det1_unit": ("det1", {"a": [1, -1], "unchecked": True}),
    "det1_unit_float": ("det1", {"a": [1.0, -1.5], "unchecked": True}),
    "rank_drop": ("rank_drop", {"a": [2, 0, 3]}),
    "rank_drop_frac": ("rank_drop", {"a": [Fraction(1, 3), -2, Fraction(7, 5)]}),
    "rank_drop_float": ("rank_drop", {"a": [2.5, -0.0, -3.5]}),
    "rank_drop_d4": ("rank_drop", {"a": [1, -2, 0, 3]}),
    "rank_drop_half": ("rank_drop", {"a": [Fraction(1, 2), 0, Fraction(-1, 2)]}),
    "rank_drop_half_float": ("rank_drop", {"a": [0.5, -0.5]}),
}
DIAG_LEVELS = [1, 2, 3, 7, 40, 300, 505]


def diag_map(d):
    """X -> -1.5 Q X Q^T for a fixed orthogonal Q with no zero entry."""
    Q = np.linalg.qr(np.arange(1.0, d * d + 1).reshape(d, d) + 3.0 * np.eye(d))[0]
    return sc.LinMap(Q, Q.T, -1.5)


def diag_specs(seed, moved, ref=None):
    """(the seed's spec, its per-level reference step_fn, the map or None);
    with `ref`, the spec is built from that step_fn."""
    kind, params = DIAG_SEEDS[seed]
    T = diag_map(len(params["a"])) if moved else None
    spec = sc.example_staircase(kind, params)
    if ref is not None:
        spec = sc.StaircaseSpec(spec.A0, kind, params, stepwise(ref), spec.target_sets,
                                rational=spec.rational)
    return (spec if T is None else sc.transform_spec(spec, T)), T


def raised(fn, *args):
    """(type, message) of what fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", sorted(DIAG_SEEDS))
@pytest.mark.parametrize("moved", [False, True])
def test_diag_rows_match_per_level_steps(seed, moved):
    kind, params = DIAG_SEEDS[seed]
    ref = DIAG_REFS[kind](params["a"])
    spec, T = diag_specs(seed, moved)
    want = {}
    for n in DIAG_LEVELS:
        if raised(ref, n) is not None:
            break
        want[n] = step_bits(ref(n) if T is None else ref_transform_step(ref(n), T))
    assert 1 in want and 40 in want
    sc.build_truncation(spec, 40)   # deeper, beta_n underflows for some seeds
    for n in want:
        if n <= 40:
            blk, row = spec._level(n)
            assert row_bits(blk, row) == want[n]
        assert step_bits(spec.step(n)) == want[n]
    # a level built on its own, and blocks that start past level 1
    fresh, _ = diag_specs(seed, moved)
    for n in want:
        assert step_bits(fresh.step(n)) == want[n]
        assert step_bits(level_step(fresh, n)) == want[n]
        blk, err = fresh._block_fn(n, n + 1)
        assert err is None and row_bits(blk, 0) == want[n]


@pytest.mark.parametrize("seed", sorted(DIAG_SEEDS))
@pytest.mark.parametrize("moved", [False, True])
def test_diag_truncations_match_per_level_builds(seed, moved):
    kind, params = DIAG_SEEDS[seed]
    spec, _ = diag_specs(seed, moved)
    ref_spec, _ = diag_specs(seed, moved, DIAG_REFS[kind](params["a"]))
    for N in (6, 1, 14, 40):
        got = sc.build_truncation(spec, N)
        assert measure_bits(got) == measure_bits(build_truncation_from_scratch(ref_spec, N))
    assert sc.betas(spec, 40) == sc.betas(ref_spec, 40)
    assert all(type(b) is (Fraction if spec.rational else float) for b in sc.betas(spec, 40))


def split_fault(spec, j):
    """spec with split 1's fraction at level j set to 1.5 in each block built."""
    block_fn = spec._block_fn

    def faulted(lo, hi):
        blk, err = block_fn(lo, hi)
        if blk is not None and 0 <= j - lo < len(blk):
            s = blk.sp_off[j - lo] + 1
            blk.sp_lam[s] = 1.5
            if blk.exact is not None:
                blk.exact[2][s] = 1.5
        return blk, err

    spec._block_fn = faulted
    return spec


DIAG_FAULTS = {   # seed, level of an injected split fault (None: none)
    "det1 overflow": ("det1", None),
    "det1 float overflow": ("det1_float", None),
    "det1 d4 overflow": ("det1_d4", None),
    "det1 float weight": ("det1_d4_float", None),   # D overflows, alpha is nan
    "rank_drop overflow": ("rank_drop_frac", None),
    "rank_drop float overflow": ("rank_drop_float", None),
    "rank_drop overflow past a block": ("rank_drop_half", None),   # at level 513
    "rank_drop float overflow past a block": ("rank_drop_half_float", None),
    "det1 split": ("det1_neg", 5),
    "det1 float split": ("det1_float", 5),
    "rank_drop split": ("rank_drop", 3),
    "rank_drop float split": ("rank_drop_float", 3),
}


@pytest.mark.parametrize("case", sorted(DIAG_FAULTS))
@pytest.mark.parametrize("moved", [False, True])
def test_diag_faults_raise_the_per_level_error(case, moved):
    seed, fault = DIAG_FAULTS[case]
    kind, params = DIAG_SEEDS[seed]
    plain, lam_fault = DIAG_REFS[kind](params["a"]), post_fault("lam", fault)[0]

    def ref(n):
        return lam_fault(plain(n)) if n == fault else plain(n)

    T = diag_map(len(params["a"])) if moved else None
    j = fault or next(n for n in range(1, 1100) if raised(ref, n) is not None)
    with np.errstate(all="ignore"):   # as the stacked checks
        msg = first_error(ref, j + 1, T)
        assert msg is not None and first_error(ref, j - 1, T) is None
    assert (f"step {j}, split 1" in msg if fault else
            "weight must be positive" in msg if "weight" in case
            else f"level {j}: |A_n| overflows" in msg)

    def make(step_fn=None):
        spec, _ = diag_specs(seed, False, step_fn)
        spec = spec if fault is None or step_fn else split_fault(spec, fault)
        return spec if T is None else sc.transform_spec(spec, T)

    # a truncation raises what a level-by-level build raises first (past
    # level 300, beta_n underflows first for some seeds; under a map, both
    # let |A_n|'s square overflow, the reference in `frob`)
    spec = make()
    with np.errstate(all="ignore"):
        want = raised(build_truncation_from_scratch, make(ref), j + 5)
        for N in (j + 5, j, 2 * sc._BLOCK + 3):
            assert raised(sc.build_truncation, spec, N) == want
    if want[1] == msg:
        assert len(spec._levels) == j - 1
    # a level, and a block past level 1, end at level j with its error
    fresh = make()
    blk, err = fresh._build(j - 2, j + 3)
    assert len(blk) == 2 and str(err) == msg
    assert str(raised(fresh.step, j)[1]) == msg
    if fault is None:   # past it, each level raises its own first error
        for n in (j + 1, 1030, 1100):
            want = raised(ref, n)
            assert raised(fresh.step, n) == want
            err = fresh._build(n, n + 4)[1]
            assert (type(err), str(err)) == want


def test_rotated_overflow_is_the_level_error_under_warnings():
    # a rotated map's stacked norms of A_n overflow at level 511; with
    # warnings as errors, as this suite runs, the level's error is raised,
    # with the same message as with warnings off
    Q = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])

    def build():
        spec = sc.transform_spec(sc.example_staircase("det1", {"a": [2, 3]}),
                                 sc.LinMap(Q, Q.T, -1.5))
        return raised(sc.build_truncation, spec, 515)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = build()
    assert want == (PreconditionError,
                    "det1 staircase level 511: |A_n| overflows the float range")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build() == want


def test_det1_zero_weight_is_the_per_level_error():
    # |a| = 1 with `unchecked`: alpha_0 = 1 at level 1, so keep_1 = 0
    params = {"a": [1, 1], "unchecked": True}
    want = raised(ref_det1_step(params["a"]), 1)
    assert want == (PreconditionError, "atom weight must be positive, got 0")
    spec = sc.example_staircase("det1", params)
    assert raised(sc.build_truncation, spec, 3) == want and not spec._levels
    assert raised(spec.step, 1) == want


def test_plaplace_block_validates_without_lapack(monkeypatch):
    # every split of a p-Laplace block is decided by the rank-one screen
    from lamstair.models import select_b
    spec = sc.example_staircase("plaplace", {"p": 1.5, "b": select_b(1.5)})
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    blk, err = spec._build(1, sc._BLOCK)
    assert sc._BLOCK == 512 and err is None and len(blk) == 512
    assert blk.sp_off[-1] > 0 and len(calls) == 0
