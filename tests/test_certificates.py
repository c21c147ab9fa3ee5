"""Certificates held as columns against the `SplittingStep` object path
they replaced, kept here as the reference: one step object per split
(`ref_truncation_steps`, and the steps handed to `Certificate.of`, made
into objects as the builders made them), validated per shape group
(`ref_split_failure`), replayed object by object (`ref_verify_laminate`),
mapped step by step (`ref_pushforward_steps`) and written from the objects
(`ref_measure_to_obj`).  Compared bit for bit: each step's matrix bytes,
the type and value of its fraction, the replay reports and the JSON text,
also after a JSON round trip."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lamstair import measures as ms
from lamstair import serialize, stages
from lamstair import staircase as sc
from lamstair.boxes import _P_SWAP
from lamstair.errors import InvalidSplitError, InvalidTransformError, NotFoundError
from lamstair.matrices import rank

pytestmark = pytest.mark.blas_kernels


# --- the object path ---------------------------------------------------------------


def ref_truncation_steps(spec, N):
    """A truncation's certificate as `StaircaseSpec._certificate` made it
    from the spec's prefix (built to N levels): one object per split."""
    n_splits = spec._levels[N - 1][1]
    steps = []
    for blk in spec._blocks:
        if len(steps) >= n_splits:
            break
        lams = blk.sp_lam.tolist() if blk.exact is None else list(blk.exact[2])
        steps += [ms.SplittingStep(*M, lam) for M, lam in zip(blk.sp_mats, lams)]
    return steps[:n_splits]


def ref_split_failure(splits, tol=1e-9, rank_tol=1e-9):
    """The first split that fails its checks, as (index, error), or None:
    shapes compared split by split up to the first mismatch, the splits
    before it checked as stacks, one per matrix shape."""
    stop, err = len(splits), None
    for i, s in enumerate(splits):
        if s.left.shape != s.right.shape or s.left.shape != s.target.shape:
            lam = float(s.lam)
            stop, err = i, InvalidSplitError(
                f"split fraction {s.lam} outside (0,1)" if not 0.0 < lam < 1.0
                else "split matrices have mismatched shapes")
            break
    groups = {}
    for i in range(stop):
        groups.setdefault(splits[i].target.shape, []).append(i)
    for rows in groups.values():
        bad = ms._split_rows(np.array([float(splits[i].lam) for i in rows]),
                             np.array([(splits[i].target, splits[i].left, splits[i].right)
                                       for i in rows]),
                             tol, rank_tol, [splits[i].lam for i in rows])
        if bad is not None and rows[bad[0]] < stop:
            stop, err = rows[bad[0]], bad[1]
    return None if err is None else (stop, err)


def ref_split_at(nu, step):
    i = nu.find(step.target)
    if i is None:
        raise NotFoundError("no atom at the split target")
    lam = step.lam
    one_minus = (1 - lam) if isinstance(lam, Fraction) else (1.0 - float(lam))
    w = float(nu._w[i]) if nu._exact is None else nu._exact[i]
    pair = [ms._wmul(w, lam), ms._wmul(w, one_minus)]
    new = (np.array([float(v) for v in pair]), None if nu._exact is None else ms._objects(pair),
           *ms._keyed(np.stack([step.left, step.right])))
    old = (nu._w, nu._exact, nu._stack, nu._keys, nu._norms)
    return ms.DiscreteMeasure._of(
        *(None if col is None else np.concatenate([col[:i], add, col[i + 1:]])
          for col, add in zip(old, new)))


def ref_verify_laminate(nu, steps, tol=1e-9):
    if not steps:
        if len(nu) == 1:
            return ms.LaminateReport(True, ["Dirac with empty certificate"])
        return ms.LaminateReport(False, ["no certificate for a non-Dirac measure"])
    bad = ref_split_failure(steps, tol)
    stop = len(steps) if bad is None else bad[0]
    current = ms.dirac(steps[0].target)
    for i in range(stop):
        try:
            current = ref_split_at(current, steps[i])
        except NotFoundError as exc:
            return ms.LaminateReport(False, [f"step {i}: {exc}"], failed_step=i)
    if bad is not None:
        if not isinstance(bad[1], InvalidSplitError):
            raise bad[1]
        return ms.LaminateReport(False, [f"step {stop}: {bad[1]}"], failed_step=stop)
    have, want = current._w.tolist(), nu._w.tolist()
    for P, w, r in zip(nu._stack, want, nu._norms.tolist()):
        j = current.find(P)
        if j is None:
            return ms.LaminateReport(False, [f"replayed measure misses atom at |X|={r:.6g}"])
        if abs(have[j] - w) > tol:
            return ms.LaminateReport(
                False, [f"weight mismatch at |X|={r:.6g}: {have[j]} vs {w}"])
    if len(current) != len(nu):
        return ms.LaminateReport(False, ["replayed measure has extra atoms"])
    if abs(current.mass - nu.mass) > tol:
        return ms.LaminateReport(False, ["mass mismatch after replay"])
    return ms.LaminateReport(True, [f"replayed {len(steps)} steps"])


def ref_pushforward_steps(steps, T, check_rank_one=False, rank_tol=1e-9):
    out = []
    for s in steps:
        tl, tr = T(np.asarray(s.left)), T(np.asarray(s.right))
        if check_rank_one:
            with np.errstate(all="ignore"):
                D = tl - tr
            if rank(D, rank_tol) != 1:
                raise InvalidTransformError("transform breaks a rank-one connection")
        out.append(ms.SplittingStep(T(np.asarray(s.target)), tl, tr, s.lam))
    return out


def ref_measure_to_obj(nu, steps):
    obj = {"atoms": [{"w": serialize._weight_to_obj(a.weight),
                      "M": serialize.matrix_to_obj(a.point)} for a in nu.atoms]}
    if steps:
        obj["certificate"] = [
            {"target": serialize.matrix_to_obj(s.target),
             "left": serialize.matrix_to_obj(s.left),
             "right": serialize.matrix_to_obj(s.right),
             "lam": serialize._weight_to_obj(s.lam)} for s in steps]
    return obj


@pytest.fixture
def given(monkeypatch):
    """The step lists handed to `Certificate.of` from here on, each made
    into `SplittingStep`s as the builders made them."""
    seen = []
    of = ms.Certificate.of

    def recording(steps, shape=None):
        if not isinstance(steps, ms.Certificate):
            steps = list(steps)
            seen.append([s if isinstance(s, ms.SplittingStep) else ms.SplittingStep(*s)
                         for s in steps])
        return of(steps, shape)

    monkeypatch.setattr(ms.Certificate, "of", staticmethod(recording))
    return seen


# --- comparison ----------------------------------------------------------------------


def step_bits(s):
    mats = tuple((M.shape, M.dtype.str, np.ascontiguousarray(M).tobytes())
                 for M in (s.target, s.left, s.right))
    return (type(s.lam), s.lam.hex() if isinstance(s.lam, float) else s.lam) + mats


def report(rep):
    return rep.ok, rep.messages, rep.failed_step


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def assert_matches(nu, steps):
    """nu's certificate, replay, JSON and read-back against the step objects."""
    want = [step_bits(s) for s in steps]
    assert [step_bits(s) for s in nu.certificate] == want
    assert report(ms.verify_laminate(nu)) == report(ref_verify_laminate(nu, steps))
    text = dumps(serialize.measure_to_obj(nu))
    assert text == dumps(ref_measure_to_obj(nu, steps))
    back = serialize.measure_from_obj(json.loads(text))
    assert [step_bits(s) for s in back.certificate] == want
    assert dumps(serialize.measure_to_obj(back)) == text


R = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
MOVE = sc.LinMap(R, np.array([[0.0, -1.0], [-1.0, 0.0]]) @ R.T, -1.75)


def swap(X):
    """`models.duality_swap`'s map of a gradient."""
    return _P_SWAP @ X @ _P_SWAP


# --- the truncations -----------------------------------------------------------------


# the seeds' deepest levels: |A_n| of a 2x2 seed leaves the float range at
# level 510 or 511, and an atom weight of the 3x3 one underflows by 400
DIAG_SEEDS = {"det1": ("det1", [2, 2], 509), "det1 float": ("det1", [2.5, 3.0], 509),
              "det1 3x3": ("det1", [2, -3, 2], 340), "rank_drop": ("rank_drop", [3, 0, 5], 509),
              "rank_drop float": ("rank_drop", [3.5, 5.0], 509)}


@pytest.mark.parametrize("depth", ["1", "7", "deepest"])
@pytest.mark.parametrize("seed", sorted(DIAG_SEEDS))
def test_diagonal_truncations_match_the_object_path(seed, depth):
    kind, a, deepest = DIAG_SEEDS[seed]
    N = deepest if depth == "deepest" else int(depth)
    spec = sc.example_staircase(kind, {"a": a})
    nu = sc.build_truncation(spec, N)
    steps = ref_truncation_steps(spec, N)
    assert (nu.certificate.exact is None) == (not spec.rational)
    assert_matches(nu, steps)
    # an invalid step and an unmatched one fail alike (replays of the
    # deepest certificates take seconds)
    for i in {0, len(steps) // 2, len(steps) - 1} if depth != "deepest" else ():
        s = steps[i]
        for bad in (ms.SplittingStep(s.target, s.left, s.right, 1.5),
                    ms.SplittingStep(s.target + 9, s.left + 9, s.right + 9, s.lam)):
            edited = steps[:i] + [bad] + steps[i + 1:]
            assert (report(ms.verify_laminate(nu, edited))
                    == report(ref_verify_laminate(nu, edited)))


@pytest.mark.parametrize("N", [1, 7, 513])   # 513 joins two prefix blocks
@pytest.mark.parametrize("kind, params", [("elliptic", {"K": 2.5, "x0": 1.75}),
                                          ("plaplace", {"p": 1.3, "b": 4.0, "x0": 2.5})])
def test_transformed_truncations_match_the_object_path(kind, params, N):
    spec = sc.transform_spec(sc.example_staircase(kind, params), MOVE)
    nu = sc.build_truncation(spec, N)
    assert_matches(nu, ref_truncation_steps(spec, N))


def test_extended_truncations_match_the_object_path(given):
    for kind, A, params in (("elliptic", [[1.0, 0.3], [0.2, 1.5]], {"K": 3.0}),
                            ("plaplace", [[0.2, 0.1], [0.0, -0.3]], {"p": 1.5, "b": 4.0})):
        ext = sc.extended_measure(kind, np.array(A), params)
        root = given[-1]
        assert root
        for N in (1, 7):
            nu = ext.truncate(N)
            tails = [s for _, sp in ext.tails for s in ref_truncation_steps(sp, N)]
            assert_matches(nu, root + tails)


# --- the stages ----------------------------------------------------------------------


@pytest.mark.parametrize("A", [np.outer([1.0, 2.0], [0.5, -1.0]),
                               np.outer([1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.5, 3.0])])
def test_stage2_laminates_match_the_object_path(given, A):
    nu = stages.stage2_laminate(A)
    assert_matches(nu, given[-1])


@pytest.mark.parametrize("A", [np.diag([0.5, 3.0]), np.diag([-1.25, 0.75]),
                               np.array([[0.0, 0.7], [1.2, 0.0]])])
def test_stage3_presplits_and_truncations_match_the_object_path(given, A):
    comp = stages.stage3_spec(A)
    pre = given[-1]
    assert_matches(comp.presplit, pre)
    assert_matches(comp.presplit_input_frame(), ref_pushforward_steps(pre, comp.T, True))
    for N in (1, 5):
        nu = comp.truncation(N)
        members = []
        for i in range(len(comp.presplit)):
            spec = comp.spec_for(i)
            sc.build_truncation(spec, N)
            members += ref_truncation_steps(spec, N)
        assert_matches(nu, ref_pushforward_steps(pre + members, comp.T))


# --- pushforwards --------------------------------------------------------------------


@pytest.mark.parametrize("T", [MOVE, swap, lambda X: X + 0.25 * X[::-1, ::-1]],
                         ids=["linmap", "swap", "bend"])
def test_pushforwards_match_the_object_path(T):
    spec = sc.example_staircase("det1", {"a": [2, 3]})
    nu = sc.build_truncation(spec, 7)
    steps = ref_truncation_steps(spec, 7)
    assert_matches(ms.pushforward(nu, T), ref_pushforward_steps(steps, T))
    try:
        want = ref_pushforward_steps(steps, T, check_rank_one=True)
    except InvalidTransformError as exc:
        with pytest.raises(InvalidTransformError, match=str(exc)):
            ms.pushforward(nu, T, check_rank_one=True)
    else:
        assert_matches(ms.pushforward(nu, T, check_rank_one=True), want)
