from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamstair import measures as ms
from lamstair.errors import (
    InvalidSplitError,
    InvalidTransformError,
    NotFoundError,
    PreconditionError,
    UnsupportedError,
)
from lamstair.matrices import _dots, frob, rank


def first_det1_step():
    # splitting diag(2,2) = (4/7) diag(1/2,2) + (3/7) diag(4,2)
    return ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5, 2.0]),
                            np.diag([4.0, 2.0]), Fraction(4, 7))


class TestElementarySplit:
    def test_det1_first_step(self):
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0])), first_det1_step())
        assert len(nu) == 2
        weights = sorted(float(a.weight) for a in nu)
        assert weights == [pytest.approx(3 / 7), pytest.approx(4 / 7)]
        assert nu.mass == pytest.approx(1.0)
        assert np.allclose(ms.barycenter(nu), np.diag([2.0, 2.0]))

    def test_exact_rational_weights(self):
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0])), first_det1_step())
        assert {a.weight for a in nu} == {Fraction(4, 7), Fraction(3, 7)}

    def test_left_equals_right_rejected(self):
        step = ms.SplittingStep(np.eye(2), np.diag([2.0, 2.0]), np.diag([2.0, 2.0]), 0.5)
        with pytest.raises(InvalidSplitError):
            ms.elementary_split(ms.dirac(np.eye(2)), step)

    def test_rank_two_rejected(self):
        step = ms.SplittingStep(np.eye(2), np.diag([2.0, 2.0]), np.diag([0.0, 0.0]), 0.5)
        with pytest.raises(InvalidSplitError):
            ms.elementary_split(ms.dirac(np.eye(2)), step)

    def test_broken_convexity_rejected(self):
        step = ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([0.5 + 1e-3, 2.0]),
                                np.diag([4.0, 2.0]), Fraction(4, 7))
        with pytest.raises(InvalidSplitError):
            ms.elementary_split(ms.dirac(np.diag([2.0, 2.0])), step)

    def test_missing_target(self):
        with pytest.raises(NotFoundError):
            ms.elementary_split(ms.dirac(np.eye(2)), first_det1_step())


class TestCertificates:
    def test_empty_cert_dirac(self):
        rep = ms.verify_laminate(ms.dirac(np.eye(2), certificate=[]))
        assert rep.ok

    def test_round_trip(self):
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
                                 first_det1_step())
        rep = ms.verify_laminate(nu)
        assert rep.ok, rep.messages

    def test_perturbed_lambda_fails(self):
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
                                 first_det1_step())
        bad = [ms.SplittingStep(s.target, s.left, s.right, float(s.lam) + 1e-3)
               for s in nu.certificate]
        rep = ms.verify_laminate(nu, bad)
        assert not rep.ok


class TestPushforward:
    def test_identity(self):
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
                                 first_det1_step())
        out = ms.pushforward(nu, lambda X: X, check_rank_one=True)
        assert ms.verify_laminate(out).ok

    def test_negation_preserves_tails(self):
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
                                 first_det1_step())
        out = ms.pushforward(nu, lambda X: -X, check_rank_one=True)
        for t in (0.5, 1.0, 3.0, 5.0):
            assert ms.tail_mass(out, t) == pytest.approx(ms.tail_mass(nu, t))

    def test_orthogonal_conjugation_preserves_tails(self):
        rng = np.random.default_rng(5)
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        nu = ms.elementary_split(ms.dirac(np.diag([2.0, 2.0]), certificate=[]),
                                 first_det1_step())
        out = ms.pushforward(nu, lambda X: U @ X @ V, check_rank_one=True)
        for t in (0.5, 1.0, 3.0, 5.0):
            assert ms.tail_mass(out, t) == pytest.approx(ms.tail_mass(nu, t))


def ref_pushforward_error(nu, T, rank_tol=1e-9):
    """(type, message) of what `pushforward(check_rank_one=True)` raised
    before its stacked check, a rank test per step, or None."""
    try:
        with np.errstate(all="ignore"):
            for s in nu.certificate:
                tl, tr = T(np.asarray(s.left)), T(np.asarray(s.right))
                if rank(tl - tr, rank_tol) != 1:
                    raise InvalidTransformError("transform breaks a rank-one connection")
                ms.SplittingStep(T(np.asarray(s.target)), tl, tr, s.lam)
    except PreconditionError as exc:
        return type(exc), str(exc)
    return None


PUSH_STEPS = {
    "good": first_det1_step(),
    "rank2": ms.SplittingStep(np.eye(2), np.diag([1.0, 1.0]), np.diag([2.0, 3.0]), 0.5),
    "zero": ms.SplittingStep(np.eye(2), np.eye(2), np.eye(2), 0.5),
    "overflow": ms.SplittingStep(np.zeros((2, 2)), np.full((2, 2), 1e308),
                                 np.full((2, 2), -1e308), 0.5),
    "wide": ms.SplittingStep(np.zeros((2, 3)), np.outer([1.0, 2.0], [1.0, 0.0, 3.0]),
                             np.zeros((2, 3)), 0.5),
}


@pytest.mark.parametrize("names", [
    ("good", "good"), ("good", "rank2", "overflow"), ("good", "overflow", "rank2"),
    ("zero", "good"), ("wide", "good", "wide"), ("good", "wide", "rank2", "zero"),
    ("overflow",)])
@pytest.mark.parametrize("T", ["identity", "half", "bend"])
@pytest.mark.parametrize("rank_tol", [1e-9, 0.0])
def test_pushforward_rank_check_matches_per_step_check(names, T, rank_tol):
    T = {"identity": lambda X: X, "half": lambda X: 0.5 * X,
         # linear, but not rank-one preserving
         "bend": lambda X: X + 0.25 * X[::-1, ::-1]}[T]
    nu = ms.dirac(np.eye(2), certificate=[PUSH_STEPS[n] for n in names])
    want = ref_pushforward_error(nu, T, rank_tol)
    if want is None:
        out = ms.pushforward(nu, T, check_rank_one=True, rank_tol=rank_tol)
        assert len(out.certificate) == len(names)
    else:
        with pytest.raises(want[0]) as got:
            ms.pushforward(nu, T, check_rank_one=True, rank_tol=rank_tol)
        assert type(got.value) is want[0] and str(got.value) == want[1]


class TestTails:
    def test_tail_monotone(self):
        nu = ms.DiscreteMeasure([ms.Atom(0.5, np.diag([1.0, 0.0])),
                                 ms.Atom(0.5, np.diag([5.0, 0.0]))])
        ts = np.linspace(0, 10, 50)
        tails = [ms.tail_mass(nu, t) for t in ts]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert ms.tail_mass(nu, 1.0) == pytest.approx(0.5)  # strict inequality

    def test_verify_weak_tail_dirac(self):
        rep = ms.verify_weak_tail(ms.dirac(np.zeros((2, 2))), p=2, M=1, normA=0,
                                  t_grid=np.logspace(0, 3, 20))
        assert rep.passed

    @pytest.mark.parametrize("normA", [np.float64(1e200), np.float64(np.inf), 1e200, np.nan])
    def test_weak_tail_envelope_must_be_finite(self, normA):
        # a float power overflows with an error, a numpy scalar's to inf
        nu = ms.dirac(np.eye(2))
        with pytest.raises(PreconditionError):
            ms.verify_weak_tail(nu, 2.0, 1.0, normA, t_grid=[2.0])
        rep = ms.verify_weak_tail(nu, 2.0, 1.0, np.float64(1.5), t_grid=[2.0])
        assert rep.rows[0].upper_env == 0.8125

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_weak_tail_norm_must_be_nonnegative(self, p):
        with pytest.raises(PreconditionError, match=r"need \|A\| >= 0, got -2.0"):
            ms.verify_weak_tail(ms.dirac(np.eye(2)), p, 1.0, -2.0, t_grid=[2.0])

    @pytest.mark.parametrize("grid", [[1e-3, 1.0], np.array([1e-3, 1.0])])
    def test_envelope_beyond_float_range_is_inf(self, grid):
        # a Python float power raised OverflowError, a numpy scalar's warned
        rep = ms.verify_weak_tail(ms.dirac(np.eye(2)), 300.0, 1.0, 0.5, t_grid=grid)
        assert [r.upper_env for r in rep.rows] == [np.inf, 1.0]
        assert rep.passed

    def test_csv_shape(self):
        rep = ms.verify_weak_tail(ms.dirac(np.zeros((2, 2))), p=2, M=1, normA=0,
                                  t_grid=[1.0, 2.0])
        lines = rep.csv_lines()
        assert lines[0] == "t,tail,upper_env,lower_env,verdict"
        assert len(lines) == 3


class TestDiamond:
    def test_trivial(self):
        nu = ms.dirac(np.eye(2))
        out, rep = ms.diamond_compose(nu, lambda i, a: ms.dirac(a.point))
        assert len(out) == 1
        assert rep is None

    def test_p_equals_q_rejected(self):
        nu = ms.dirac(np.eye(2))
        with pytest.raises(UnsupportedError):
            ms.diamond_compose(nu, lambda i, a: ms.dirac(a.point), p=2, q=2,
                               M1=1, M2=1, normA=1)

    @pytest.mark.parametrize("grid", [[1e-3, 1.0], np.array([1e-3, 1.0])])
    def test_envelope_beyond_float_range_is_inf(self, grid):
        # a Python float power raised OverflowError, a numpy scalar's warned
        nu = ms.dirac(np.eye(2))
        _, rep = ms.diamond_compose(nu, lambda i, a: ms.dirac(a.point), p=300.0, q=200.0,
                                    M1=1.0, M2=1.0, normA=0.5, t_grid=grid)
        assert [r.upper_env for r in rep.rows] == [np.inf, 12.0 * (1.0 + 0.5 ** 200)]
        assert rep.passed

    @pytest.mark.parametrize("M", [1e200, np.float64(1e200)], ids=["float", "numpy"])
    def test_envelope_constant_must_be_finite(self, M):
        # (M1 M2)^r is inf, and every tail passed against an inf envelope
        nu = ms.dirac(np.eye(2))
        with pytest.raises(PreconditionError, match="composed tail envelope .* overflows"):
            ms.diamond_compose(nu, lambda i, a: ms.dirac(a.point), p=3.0, q=2.0,
                               M1=M, M2=M, normA=0.5, t_grid=[2.0])

    def test_mass_preserved(self):
        nu = ms.DiscreteMeasure([ms.Atom(Fraction(1, 3), np.diag([1.0, 0.0])),
                                 ms.Atom(Fraction(2, 3), np.diag([0.0, 1.0]))])
        out, _ = ms.diamond_compose(nu, lambda i, a: ms.dirac(2.0 * a.point))
        assert out.mass == pytest.approx(1.0)


class TestStrongFromWeak:
    def test_reference_value(self):
        assert ms.strong_from_weak(2, 1, 1, 0) == pytest.approx(2.0)

    def test_weight_norm_monotone_in_p(self):
        for normA in (0.0, 0.5, 1.0, 7.3):
            vals = [ms.weight_norm(normA, p) for p in np.linspace(1.0, 40, 80)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] >= ms.weight_norm(normA, float("inf")) - 1e-6

    def test_q_ge_p_rejected(self):
        with pytest.raises(PreconditionError):
            ms.strong_from_weak(2, 2, 1, 0)


# --- hypothesis property suite -------------------------------------------------

@st.composite
def random_split(draw):
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    d = draw(st.sampled_from([2, 3]))
    target = rng.uniform(-3, 3, size=(d, d))
    direction = np.outer(rng.uniform(-2, 2, size=d), rng.uniform(-2, 2, size=d))
    while np.linalg.norm(direction) < 1e-3:
        direction = np.outer(rng.uniform(-2, 2, size=d), rng.uniform(-2, 2, size=d))
    lam = draw(st.floats(0.05, 0.95))
    left = target + (1 - lam) * direction
    right = target - lam * direction
    return target, ms.SplittingStep(target, left, right, lam)


@given(random_split())
@settings(max_examples=150, deadline=None)
def test_split_conserves_mass_and_barycenter(data):
    target, step = data
    nu = ms.elementary_split(ms.dirac(target, certificate=[]), step)
    assert nu.mass == pytest.approx(1.0, abs=1e-12)
    bc = ms.barycenter(nu)
    assert frob(bc - target) <= 1e-12 * (1.0 + frob(bc))
    assert ms.verify_laminate(nu).ok


class TestAtom:
    def test_slotted_with_lazy_key_and_norm(self):
        a = ms.Atom(Fraction(1, 3), [[3.0, 0.0], [4.0, 0.0]])
        assert not hasattr(a, "__dict__")
        assert a._key is None and a._norm is None
        assert a.norm == 5.0 and a.key == ((2, 2), (3.0, 0.0, 4.0, 0.0))
        assert a._norm == 5.0 and a._key is a.key

    def test_scaled_shares_point_key_and_norm(self):
        a = ms.Atom(Fraction(1, 3), np.diag([2.0, 0.5]))
        fresh = a.scaled(Fraction(3, 4))
        assert fresh.weight == Fraction(1, 4) and fresh._key is None
        key, norm = a.key, a.norm
        b = a.scaled(0.5)
        assert b.weight == 1 / 6 and isinstance(b.weight, float)
        assert b.point is a.point and not b.point.flags.writeable
        assert b._key is key and b._norm == norm

    @pytest.mark.parametrize("c", [0, 0.0, -1.0, Fraction(-1, 2)])
    def test_scaled_rejects_non_positive_weights(self, c):
        with pytest.raises(PreconditionError, match="must be positive"):
            ms.Atom(0.5, np.eye(2)).scaled(c)

    def test_merge_keeps_exact_weights_and_first_point(self):
        a = ms.Atom(Fraction(1, 3), np.eye(2))
        twin = ms.Atom(Fraction(1, 6), np.eye(2) + 1e-14)
        nu = ms.DiscreteMeasure([a, ms.Atom(Fraction(1, 2), 2 * np.eye(2)), twin])
        assert len(nu) == 2 and nu.atoms[0].weight == Fraction(1, 2)
        # the first point's bits, held as a row of the measure's stack
        assert nu.atoms[0].point.tobytes() == a.point.tobytes() != twin.point.tobytes()


# --- bulk construction, one merge per mixture and batched tails ------------------
# The per-atom code these replaced is kept here as the reference.


def ref_wadd(a, b):
    """The weight sum the per-atom merge used: exact for two `Fraction`s."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def ref_reweighted(a, w):
    """The atom a with weight w, checked positive, sharing a's point."""
    if not float(w) > 0.0:
        raise ms._weight_error(w)
    return ms.Atom._filled(w, a.point, a._key, a._norm)


def ref_merge(atoms):
    """The per-atom merge DiscreteMeasure ran before `_merge`, in key order."""
    merged, order = {}, []
    for a in atoms:
        k = a.key
        if k in merged:
            merged[k] = ref_reweighted(merged[k], ref_wadd(merged[k].weight, a.weight))
        else:
            merged[k] = a
            order.append(k)
    return tuple(merged[k] for k in sorted(order))


def ref_mixture(parts):
    """Scale every atom, then merge them all: mixture before the one-pass merge."""
    atoms = []
    for w, nu in parts:
        atoms.extend(a.scaled(w) for a in nu.atoms)
    return ref_merge(atoms)


def ref_tail_mass(nu, t):
    """The builtin-sum loop over atoms that tail_mass ran before tail_masses."""
    return sum(float(a.weight) for a in nu.atoms if frob(a.point) > t)


def weight_bits(w):
    return (type(w), w.hex() if isinstance(w, float) else w)


def assert_same_atoms(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert weight_bits(a.weight) == weight_bits(b.weight)
        assert a.point.shape == b.point.shape
        assert a.point.tobytes() == b.point.tobytes()
        assert a.key == b.key and a.norm.hex() == b.norm.hex()
        assert not a.point.flags.writeable


def test_seq_sum_is_left_to_right():
    assert ms._seq_sum([1e16, 1.0, -1e16]) == 0.0
    assert ms._seq_sum([]) == 0 and type(ms._seq_sum([])) is int
    xs = np.random.default_rng(3).standard_normal(2000).tolist()
    total = 0.0
    for x in xs:
        total += x
    assert ms._seq_sum(xs).hex() == total.hex()


entries = st.one_of(st.floats(-1e100, 1e100, allow_nan=False), st.just(-0.0),
                    st.integers(-3, 3).map(float))


@st.composite
def weighted_stack(draw):
    shape = draw(st.sampled_from([(1, 1), (2, 2), (3, 2), (4, 4)]))
    k = draw(st.integers(1, 6))
    points = np.array(draw(st.lists(st.lists(entries, min_size=shape[0] * shape[1],
                                             max_size=shape[0] * shape[1]),
                                    min_size=k, max_size=k))).reshape(k, *shape)
    rational = draw(st.booleans())
    ws = draw(st.lists(st.integers(1, 10 ** 6), min_size=k, max_size=k))
    weights = [Fraction(v, 10 ** 6) if rational else v / 10 ** 6 for v in ws]
    return weights, points


def ref_atoms_from_stack(weights, points):
    """Atom(w, P) for each weight and each matrix P of a (k, m, n) stack, from
    one frozen float copy of the stack: the builder that
    `DiscreteMeasure.from_stack` replaced.  With `DiscreteMeasure(...)` it is
    the reference for the array path (`ref_from_stack`)."""
    stack = np.array(points, dtype=float)
    if stack.ndim != 3 or len(stack) != len(weights):
        raise PreconditionError(f"expected {len(weights)} matrices in a 3-d stack, "
                                f"got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise PreconditionError("matrix has non-finite entries")
    stack.flags.writeable = False
    shape = stack.shape[1:]
    flat = stack.reshape(len(stack), -1)
    keys = np.round(flat, 12).tolist()
    norms = np.sqrt(_dots(flat, flat)).tolist()
    atoms = []
    for w, P, k, r in zip(weights, stack, keys, norms):
        if not float(w) > 0.0:
            raise ms._weight_error(w)
        atoms.append(ms.Atom._filled(w, P, (shape, tuple(k)), r))
    return atoms


def ref_from_stack(weights, points, certificate=None):
    return ms.DiscreteMeasure(ref_atoms_from_stack(weights, points), certificate)


# the reference itself builds the atoms Atom(w, P) builds, errors included


@given(weighted_stack())
@settings(max_examples=150, deadline=None)
def test_atoms_from_stack_matches_atom(data):
    weights, points = data
    got = ref_atoms_from_stack(weights, points)
    assert_same_atoms(got, [ms.Atom(w, P) for w, P in zip(weights, points)])
    assert all(a.weight is w for a, w in zip(got, weights))


@pytest.mark.parametrize("weight, entry", [
    (0.5, float("nan")), (0.5, float("inf")), (0.0, 1.0), (0, 1.0),
    (-0.25, 1.0), (Fraction(1, 10 ** 400), 1.0)])
def test_atoms_from_stack_errors_match_atom(weight, entry):
    points = np.ones((3, 2, 2))
    points[1, 0, 1] = entry
    weights = [0.25, weight, 0.25]
    with pytest.raises(PreconditionError) as want:
        [ms.Atom(w, P) for w, P in zip(weights, points)]
    with pytest.raises(PreconditionError) as got:
        ref_atoms_from_stack(weights, points)
    assert str(got.value) == str(want.value)
    if isinstance(weight, float):  # from_stack takes float weights only
        with pytest.raises(PreconditionError) as bulk:
            ms.DiscreteMeasure.from_stack(weights, points)
        assert str(bulk.value) == str(want.value)


# --- the array path against the per-atom references ------------------------------


def measure_bits(nu):
    """Everything a measure shows, bit for bit: per atom in order the weight
    (type and hex), point shape and bytes, key repr (-0.0 stays visible) and
    norm hex; the mass hex and the certificate."""
    atoms = [(weight_bits(a.weight), a.point.shape, a.point.tobytes(), repr(a.key),
              a.norm.hex(), a.point.flags.writeable) for a in nu.atoms]
    cert = None if nu.certificate is None else [id(s) for s in nu.certificate]
    return len(nu), atoms, nu.mass.hex(), cert


def outcome(build):
    """measure_bits of the built measure, or the error's type and message."""
    try:
        nu = build()
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)
    return measure_bits(nu)


def assert_arrays_match_atoms(nu):
    assert nu._norms.tolist() == [a.norm for a in nu.atoms]
    assert [w.hex() for w in nu._w.tolist()] == [float(a.weight).hex() for a in nu.atoms]
    assert not nu._stack.flags.writeable


# entries in classes that share one 12-decimal key: -0.0/0.0 twins, values
# equal only after rounding; the last class is any float
TWINS = [(0.0, -0.0, 1e-13, -1e-13), (0.1, 0.1 + 1e-14), (1.0, 1.0 - 3e-13),
         (-2.5,), (3.0, 3.0 + 3e-13)]
ODD_WEIGHTS = [0.0, -0.25, float("nan"), float("inf"), 5e-324, 1e-310]


@st.composite
def twin_points(draw, k, shape):
    """k matrices of one shape, drawn from up to three base matrices whose
    entries each take any twin of their class: many equal keys, few equal bits."""
    size = shape[0] * shape[1]
    cls = st.integers(0, len(TWINS))
    bases = draw(st.lists(st.lists(cls, min_size=size, max_size=size),
                          min_size=1, max_size=3))
    points = []
    for _ in range(k):
        base = draw(st.sampled_from(bases))
        points.append([draw(st.floats(-1e6, 1e6)) if c == len(TWINS)
                       else draw(st.sampled_from(TWINS[c])) for c in base])
    return np.array(points).reshape(k, *shape)


@st.composite
def float_weights(draw, k):
    """Normalized weights scaled by 1/2, 1 or 2 (mass above 1); at times one
    or two of them replaced by zero, a negative, NaN, inf or a subnormal."""
    ks = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    scale = draw(st.sampled_from([0.5, 1.0, 1.0, 2.0]))
    weights = [v / sum(ks) * scale for v in ks]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        weights[i] = draw(st.sampled_from(ODD_WEIGHTS))
    return weights


SHAPES = [(1, 1), (2, 2), (2, 3)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_from_stack_matches_reference(data):
    shape = data.draw(st.sampled_from(SHAPES))
    k = data.draw(st.integers(1, 8))
    points = data.draw(twin_points(k, shape))
    if data.draw(st.integers(0, 9)) == 0:
        points[data.draw(st.integers(0, k - 1))].flat[0] = data.draw(
            st.sampled_from([float("nan"), float("inf")]))
    weights = data.draw(float_weights(k))
    want = outcome(lambda: ref_from_stack(weights, points))
    assert outcome(lambda: ms.DiscreteMeasure.from_stack(weights, points)) == want
    if not isinstance(want[0], type):
        nu = ms.DiscreteMeasure.from_stack(np.array(weights), points)
        assert "atoms" not in vars(nu)  # built on first use
        assert_arrays_match_atoms(nu)
        assert measure_bits(nu) == want


def test_from_stack_checks_its_stack():
    with pytest.raises(PreconditionError, match="expected 2 matrices"):
        ms.DiscreteMeasure.from_stack([0.5, 0.5], np.ones((3, 2, 2)))
    with pytest.raises(PreconditionError, match="at least one atom"):
        ms.DiscreteMeasure.from_stack([], np.ones((0, 2, 2)))


@st.composite
def mixed_parts(draw):
    """Parts of one shape (now and then one of another), each built by
    `from_stack` or by the list constructor; part weights float, at times one
    or two a `Fraction`, zero, negative, NaN or small enough to underflow."""
    shape = draw(st.sampled_from(SHAPES))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 5))
        ks = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        weights = [v / sum(ks) for v in ks]
        if draw(st.integers(0, 7)) == 0:
            weights[0] = 1e-30 * weights[0]
        part_shape = shape if draw(st.integers(0, 9)) else (2, 1)
        points = draw(twin_points(k, part_shape))
        nu = (ms.DiscreteMeasure.from_stack(weights, points) if draw(st.booleans())
              else ms.DiscreteMeasure([ms.Atom(w, P) for w, P in zip(weights, points)]))
        parts.append(nu)
    ks = draw(st.lists(st.integers(1, 9), min_size=len(parts), max_size=len(parts)))
    scale = draw(st.sampled_from([0.5, 1.0, 1.0, 2.0]))
    ws = [v / sum(ks) * scale for v in ks]
    for i in draw(st.lists(st.integers(0, len(ws) - 1), max_size=2)):
        ws[i] = draw(st.sampled_from([Fraction(1, 3), 0.0, -1.0, float("nan"), 1e-300]))
    return list(zip(ws, parts))


def check_mixture(parts):
    want = outcome(lambda: ms.DiscreteMeasure(ref_mixture(parts)))
    assert outcome(lambda: ms.mixture(parts)) == want
    return want


@given(mixed_parts())
@settings(max_examples=300, deadline=None)
def test_mixture_matches_reference(parts):
    check_mixture(parts)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_mixture_matches_reference(data):
    # every part from from_stack and every part weight a float: the array merge
    shape = data.draw(st.sampled_from(SHAPES))
    parts = []
    for _ in range(data.draw(st.integers(1, 5))):
        k = data.draw(st.integers(1, 6))
        ks = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        parts.append((data.draw(st.floats(0.05, 0.5)), ms.DiscreteMeasure.from_stack(
            [v / sum(ks) for v in ks], data.draw(twin_points(k, shape)))))
    want = check_mixture(parts)
    if not isinstance(want[0], type):
        nu = ms.mixture(parts)
        assert nu._exact is None and "atoms" not in vars(nu)
        assert_arrays_match_atoms(nu)
        # a lone part is merged already: its arrays are shared
        (w, part), = parts[:1]
        lone = ms.mixture([(w, part)])
        assert all(np.shares_memory(getattr(lone, c), getattr(part, c))
                   for c in ("_stack", "_keys", "_norms"))
        assert measure_bits(lone) == measure_bits(ms.DiscreteMeasure(ref_mixture([(w, part)])))


def test_mixture_keeps_rational_mode_for_list_built_parts():
    nu = ms.DiscreteMeasure([ms.Atom(Fraction(1, 4), np.eye(2)),
                             ms.Atom(Fraction(3, 4), 2 * np.eye(2))])
    bulk = ms.DiscreteMeasure.from_stack([0.5, 0.5], [np.eye(2), 3 * np.eye(2)])
    parts = [(Fraction(1, 2), nu), (Fraction(1, 2), bulk)]
    got = ms.mixture(parts)
    assert type(got) is ms.DiscreteMeasure
    assert [a.weight for a in got.atoms] == [Fraction(1, 8) + 0.25, Fraction(3, 8), 0.25]
    assert measure_bits(got) == measure_bits(ms.DiscreteMeasure(ref_mixture(parts)))
    # a bulk part's weights are floats, so a Fraction part weight scales them
    # to floats: the array merge gives the per-atom result
    parts = [(Fraction(1, 3), bulk), (Fraction(2, 3), bulk)]
    got = ms.mixture(parts)
    assert got._exact is None and "atoms" not in vars(got)
    assert measure_bits(got) == measure_bits(ms.DiscreteMeasure(ref_mixture(parts)))


POOL = [np.diag([1.0, 0.0]), np.diag([1.0, -0.0]), np.diag([-0.0, 1.0]),
        np.diag([2.0, 3.0]), np.diag([2.0, 3.0]) + 1e-14,
        np.array([[0.0, 1.0], [1.0, 0.0]])]


def normalized(draw, n, rational):
    ks = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(ks)
    return [Fraction(k, total) if rational else k / total for k in ks]


@st.composite
def mixture_parts(draw):
    n_parts = draw(st.integers(1, 5))
    part_weights = normalized(draw, n_parts, draw(st.booleans()))
    parts = []
    for w in part_weights:
        idx = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6))
        ws = normalized(draw, len(idx), draw(st.booleans()))
        parts.append((w, ms.DiscreteMeasure([ms.Atom(v, POOL[i])
                                             for v, i in zip(ws, idx)])))
    return parts


@given(mixture_parts())
@settings(max_examples=200, deadline=None)
def test_mixture_matches_scale_then_merge(parts):
    got = ms.mixture(parts)
    assert_same_atoms(got.atoms, ref_mixture(parts))
    assert got.mass.hex() == ms.DiscreteMeasure(ref_mixture(parts)).mass.hex()


def test_mixture_keeps_the_first_point_of_signed_zero_twins():
    plus, minus = ms.dirac(np.diag([1.0, 0.0])), ms.dirac(np.diag([1.0, -0.0]))
    for parts in ([(0.5, minus), (0.5, plus)], [(Fraction(1, 2), plus), (0.5, minus)]):
        got = ms.mixture(parts)
        assert len(got) == 1
        assert got.atoms[0].point.tobytes() == parts[0][1].atoms[0].point.tobytes()
        assert_same_atoms(got.atoms, ref_mixture(parts))


@pytest.mark.parametrize("w, inner", [(1e-300, 1e-30), (Fraction(1, 10 ** 200),
                                                          Fraction(1, 10 ** 200))])
def test_mixture_underflow_matches_scaled(w, inner):
    nu = ms.DiscreteMeasure([ms.Atom(inner, np.eye(2)), ms.Atom(0.5, 2 * np.eye(2))])
    parts = [(0.5, ms.dirac(np.eye(2))), (w, nu)]
    with pytest.raises(PreconditionError) as want:
        ref_mixture(parts)
    with pytest.raises(PreconditionError) as got:
        ms.mixture(parts)
    assert str(got.value) == str(want.value)


@given(st.integers(0, 10 ** 6), st.integers(1, 40), st.booleans(),
       st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_tail_mass_matches_per_atom_loop(seed, n, rational, ts):
    # tail_masses reads arrays cached per measure; the per-atom loop it
    # replaced (ref_tail_mass) is the reference, for the whole grid and for
    # repeated one-point queries.  Every atom norm is a grid point too: the
    # tail counts |X| > t strictly
    rng = np.random.default_rng(seed)
    atoms = [ms.Atom(Fraction(int(k), 40 * n) if rational else float(k) / (40 * n),
                     rng.uniform(-5, 5, size=(2, 2)))
             for k in rng.integers(1, 40, size=n)]
    nu = ms.DiscreteMeasure(atoms)
    ts = ts + [a.norm for a in nu.atoms] + [0.0, 1e9]
    got = ms.tail_masses(nu, ts)
    assert got.shape == (len(ts),)
    for t, tail in zip(ts + ts, got.tolist() * 2):
        ref = float(ref_tail_mass(nu, t)).hex()
        assert tail.hex() == ref and ms.tail_mass(nu, t).hex() == ref
    assert ms.tail_masses(nu, []).shape == (0,)


def test_tail_masses_in_blocks(monkeypatch):
    nu = ms.DiscreteMeasure([ms.Atom(0.01, np.diag([float(i), 1.0])) for i in range(50)])
    ts = np.linspace(0.0, 60.0, 37)
    whole = ms.tail_masses(nu, ts)
    monkeypatch.setattr(ms, "_TAIL_BLOCK", 120)  # two grid points per block
    assert ms.tail_masses(nu, ts).tobytes() == whole.tobytes()


# --- stacked split checks against the per-split check they replaced ------------


def ref_validate(s, tol=1e-9, rank_tol=1e-9):
    """`SplittingStep.validate` before `_split_failure`: one split at a time."""
    if not (0.0 < float(s.lam) < 1.0):
        raise InvalidSplitError(f"split fraction {s.lam} outside (0,1)")
    if s.left.shape != s.right.shape or s.left.shape != s.target.shape:
        raise InvalidSplitError("split matrices have mismatched shapes")
    if rank(s.left - s.right, rank_tol) != 1:
        raise InvalidSplitError("left - right is not rank one")
    recon = float(s.lam) * s.left + (1.0 - float(s.lam)) * s.right
    if frob(s.target - recon) > tol * (1.0 + frob(s.target)):
        raise InvalidSplitError("convex combination does not reproduce target")


def ref_split_failure(splits, tol=1e-9, rank_tol=1e-9):
    """(index, error type, message) of the first split `ref_validate`
    rejects, overflow silent as in the stacked check, or None."""
    with np.errstate(all="ignore"):
        for i, s in enumerate(splits):
            try:
                ref_validate(s, tol, rank_tol)
            except Exception as exc:
                return i, type(exc), str(exc)
    return None


def split_failure(splits, tol=1e-9, rank_tol=1e-9):
    bad = ms._split_failure(splits, tol, rank_tol)
    return None if bad is None else (bad[0], type(bad[1]), str(bad[1]))


INSIDE_LAMS = [5e-324, np.nextafter(1.0, 0.0), 0.3, 0.5, Fraction(1, 3)]
OUTSIDE_LAMS = [0.0, 1.0, -0.5, 1.5, float("nan"), Fraction(3, 2), Fraction(0)]
# second singular value of left - right over rank_tol * the first
RANK_RATIOS = [0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 1e6]
# target's distance from lam * left + (1 - lam) * right over tol (1 + |target|)
RECON_RATIOS = [0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0]


@st.composite
def edge_split(draw, rank_tol=1e-9, tol=1e-9):
    """A split at the edge of one check: lam at 0, 1, just inside or a
    Fraction; rank(left - right) decided near rank_tol; the convex
    combination near tol; now and then mismatched shapes, left - right
    overflowing, or left == right."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (1, 2)]))
    U = np.linalg.qr(rng.normal(size=(m, m)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    sv = np.zeros((m, n))
    sv[0, 0] = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if min(m, n) > 1:
        sv[1, 1] = sv[0, 0] * rank_tol * draw(st.sampled_from(RANK_RATIOS))
    right = rng.uniform(-2.0, 2.0, size=(m, n))
    left = right + U @ sv @ V.T
    lam = draw(st.sampled_from(OUTSIDE_LAMS if rng.integers(4) == 0 else INSIDE_LAMS))
    fl = float(lam)
    with np.errstate(all="ignore"):
        target = fl * left + (1.0 - fl) * right
    if not np.isfinite(target).all():
        target = right.copy()
    off = rng.normal(size=(m, n))
    off *= (draw(st.sampled_from(RECON_RATIOS)) * tol * (1.0 + frob(target))
            / frob(off))
    target = target + off
    odd = rng.integers(12)
    if odd == 0:
        left = rng.uniform(-2.0, 2.0, size=(n + 1, m))
    elif odd == 1:
        target = rng.uniform(-2.0, 2.0, size=(m + 1, n))
    elif odd == 2:
        left, right = np.full((m, n), 1e308), np.full((m, n), -1e308)
    elif odd == 3:
        left = right.copy()
    return ms.SplittingStep(target, left, right, lam)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_split_failure_matches_per_split_check(data):
    tol = data.draw(st.sampled_from([1e-9, 1e-9, 1e-12, 1e-6]))
    rank_tol = data.draw(st.sampled_from([1e-9, 1e-9, 1e-6]))
    splits = data.draw(st.lists(edge_split(rank_tol, tol), min_size=1, max_size=5))
    want = ref_split_failure(splits, tol, rank_tol)
    assert split_failure(splits, tol, rank_tol) == want
    for s in splits:
        ref = ref_split_failure([s], tol, rank_tol)
        if ref is None:
            s.validate(tol, rank_tol)
        else:
            with pytest.raises(ref[1]) as got:
                s.validate(tol, rank_tol)
            assert str(got.value) == ref[2]


@pytest.mark.parametrize("rank_tol", [0.0, 1.0, -1e-9, float("nan")])
def test_split_failure_rejects_rank_tolerance_like_rank(rank_tol):
    good = first_det1_step()
    huge = ms.SplittingStep(np.zeros((2, 2)), np.full((2, 2), 1e308),
                            np.full((2, 2), -1e308), 0.5)
    bad_lam = ms.SplittingStep(np.eye(2), np.eye(2), 2 * np.eye(2), 1.0)
    for splits in ([good], [huge, good], [bad_lam, good], [good, huge]):
        assert split_failure(splits, 1e-9, rank_tol) == ref_split_failure(
            splits, 1e-9, rank_tol)


def test_split_failure_of_nothing():
    assert ms._split_failure([]) is None


# --- moments read off the tail arrays --------------------------------------------


def ref_moment(nu, q, cap=None):
    """`moment` before it read the norm and weight columns: a loop over the atoms."""
    total = 0.0
    for a in nu.atoms:
        r = a.norm
        if cap is None or r <= cap:
            total += float(a.weight) * r ** q
    return total


@given(st.integers(0, 10 ** 6), st.integers(1, 30), st.booleans(),
       st.sampled_from([0.5, 1.0, 1.37, 2.0, 3.3]), st.sampled_from([None, 0.0, 2.0, 4.5]))
@settings(max_examples=150, deadline=None)
def test_moment_matches_per_atom_loop(seed, n, rational, q, cap):
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 40, size=n)
    points = rng.uniform(-3.0, 3.0, size=(n, 2, 2)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1, 1))
    listed = ms.DiscreteMeasure([ms.Atom(Fraction(int(k), 40 * n) if rational
                                         else float(k) / (40 * n), P)
                                 for k, P in zip(ks, points)])
    arrayed = ms.DiscreteMeasure.from_stack([float(k) / (40 * n) for k in ks], points)
    got = ms.moment(arrayed, q, cap)
    assert "atoms" not in vars(arrayed)
    assert got.hex() == ref_moment(arrayed, q, cap).hex()
    assert ms.moment(listed, q, cap).hex() == ref_moment(listed, q, cap).hex()


def test_len_of_an_array_measure_builds_no_atoms():
    nu = ms.DiscreteMeasure.from_stack([0.25, 0.5, 0.25],
                                       [np.eye(2), 2 * np.eye(2), np.eye(2)])
    assert len(nu) == 2 and "atoms" not in vars(nu)
    assert len(nu.atoms) == 2
