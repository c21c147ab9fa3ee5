"""The array-backed `DiscreteMeasure`, its certificate replay and the
certificate tree against the per-atom code they replaced, kept here as the
references: `ref_measure` (the list constructor), `ref_mixture`,
`ref_find`, `ref_elementary_split`, `ref_verify_laminate` and
`ref_cert_tree`.  Outcomes are compared bit for bit: weight type and value
(hex for floats), point bytes, keys, norms, mass, report fields, tree shape,
and for a failure the error's type and message."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamstair import measures as ms
from lamstair.errors import InvalidSplitError, NotFoundError, PreconditionError
from lamstair.matrices import frob
from lamstair.synth import CertNode, cert_tree


# --- the per-atom references ------------------------------------------------------


def ref_wadd(a, b):
    """The weight sum the per-atom merge used: exact for two `Fraction`s."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def ref_reweighted(a, w):
    """The atom a with weight w, checked positive, sharing a's point."""
    if not float(w) > 0.0:
        raise ms._weight_error(w)
    return ms.Atom._of(w, a.point)


class RefMeasure:
    """`DiscreteMeasure` as its list constructor built it: atoms merged one by
    one into a dict on `Atom.key` (the first point kept, weights by
    `ref_wadd`), sorted by key, the mass summed left to right."""

    def __init__(self, atoms, certificate=None):
        merged, order = {}, []
        for a in atoms:
            k = a.key
            if k in merged:
                merged[k] = ref_reweighted(merged[k], ref_wadd(merged[k].weight, a.weight))
            else:
                merged[k] = a
                order.append(k)
        self.atoms = tuple(merged[k] for k in sorted(order))
        if not self.atoms:
            raise PreconditionError("measure must have at least one atom")
        mass = 0.0
        for a in self.atoms:
            mass += float(a.weight)
        if mass > 1.0 + ms.MASS_SLACK * max(1, len(self.atoms)):
            raise PreconditionError(f"total mass {mass} exceeds 1")
        self.mass = mass
        self.certificate = None if certificate is None else tuple(certificate)

    def __len__(self):
        return len(self.atoms)


def ref_measure(atoms, certificate=None):
    return RefMeasure(atoms, certificate)


def ref_mixture(parts):
    """Scale every atom (`Atom.scaled`), then merge them all."""
    return RefMeasure([a.scaled(w) for w, nu in parts for a in nu.atoms])


def ref_find(nu, point, tol=ms.MERGE_TOL):
    P = np.asarray(point, dtype=float)
    for i, a in enumerate(nu.atoms):
        if a.point.shape == P.shape and frob(a.point - P) <= tol * (1.0 + frob(P)):
            return i
    return None


def ref_elementary_split(nu, step, tol=1e-9):
    step.validate(tol)
    idx = ref_find(nu, step.target)
    if idx is None:
        raise NotFoundError("no atom at the split target")
    new_atoms = []
    for i, a in enumerate(nu.atoms):
        if i == idx:
            lam = step.lam
            one_minus = (1 - lam) if isinstance(lam, Fraction) else (1.0 - float(lam))
            new_atoms.append(ms.Atom(ms._wmul(a.weight, lam), step.left))
            new_atoms.append(ms.Atom(ms._wmul(a.weight, one_minus), step.right))
        else:
            new_atoms.append(a)
    cert = (list(nu.certificate) + [step]) if nu.certificate is not None else None
    return RefMeasure(new_atoms, cert)


def ref_verify_laminate(nu, cert=None, tol=1e-9):
    steps = list(cert if cert is not None else (nu.certificate or ()))
    if not steps:
        if len(nu.atoms) == 1:
            return ms.LaminateReport(True, ["Dirac with empty certificate"])
        return ms.LaminateReport(False, ["no certificate for a non-Dirac measure"])
    current = RefMeasure([ms.Atom(Fraction(1), steps[0].target)], [])
    for i, step in enumerate(steps):
        try:
            current = ref_elementary_split(current, step, tol)
        except (InvalidSplitError, NotFoundError) as exc:
            return ms.LaminateReport(False, [f"step {i}: {exc}"], failed_step=i)
    for a in nu.atoms:
        j = ref_find(current, a.point)
        if j is None:
            return ms.LaminateReport(
                False, [f"replayed measure misses atom at |X|={frob(a.point):.6g}"])
        if abs(float(current.atoms[j].weight) - float(a.weight)) > tol:
            return ms.LaminateReport(
                False,
                [f"weight mismatch at |X|={frob(a.point):.6g}: "
                 f"{float(current.atoms[j].weight)} vs {float(a.weight)}"])
    if len(current.atoms) != len(nu.atoms):
        return ms.LaminateReport(False, ["replayed measure has extra atoms"])
    if abs(current.mass - nu.mass) > tol:
        return ms.LaminateReport(False, ["mass mismatch after replay"])
    return ms.LaminateReport(True, [f"replayed {len(steps)} steps"])


def ref_cert_tree(steps, root=None, tol=1e-9):
    root_A = np.asarray(steps[0].target if root is None else root, dtype=float)
    rootn = CertNode(root_A)
    leaves = [rootn]
    for s in steps:
        tgt = np.asarray(s.target, dtype=float)
        matched = [nd for nd in leaves if frob(nd.A - tgt) <= tol * (1.0 + frob(tgt))]
        if not matched:
            raise InvalidSplitError("certificate step targets no open leaf")
        for nd in matched:
            nd.lam = s.lam
            nd.left = CertNode(np.asarray(s.left, dtype=float))
            nd.right = CertNode(np.asarray(s.right, dtype=float))
            leaves.remove(nd)
            leaves.extend((nd.left, nd.right))
    return rootn


# --- comparison -------------------------------------------------------------------


def wbits(w):
    return type(w).__name__, w.hex() if isinstance(w, float) else str(w)


def bits(nu):
    """Everything a measure shows: per atom in order the weight, point shape
    and bytes, key repr (-0.0 stays visible), norm hex and read-only flag;
    the mass hex and the certificate's steps."""
    atoms = [(wbits(a.weight), a.point.shape, a.point.tobytes(), repr(a.key), a.norm.hex(),
              a.point.flags.writeable) for a in nu.atoms]
    cert = None if nu.certificate is None else [id(s) for s in nu.certificate]
    return len(nu), atoms, nu.mass.hex(), cert


def outcome(fn, show=bits):
    try:
        out = fn()
    except PreconditionError as exc:
        return type(exc), str(exc)
    return show(out)


def report(rep):
    return rep.ok, rep.messages, rep.failed_step


def tree(root):
    """The tree in preorder: per node its matrix bytes, its fraction and
    whether it has children."""
    out, todo = [], [root]
    while todo:
        nd = todo.pop()
        out.append((nd.A.shape, nd.A.tobytes(), None if nd.lam is None else wbits(nd.lam),
                    nd.is_leaf))
        if not nd.is_leaf:
            todo.extend((nd.right, nd.left))
    return out


# --- inputs -----------------------------------------------------------------------

# entries in classes that share one 12-decimal key: -0.0/0.0 twins and values
# 1e-13 apart
TWINS = [(0.0, -0.0, 1e-13, -1e-13), (1.0, 1.0 + 1e-13), (2.0,), (-3.0, -3.0 - 3e-13),
         (0.5, 0.5 + 1e-13)]
SHAPES = [(1, 1), (2, 2), (1, 3)]


@st.composite
def points(draw, k, shape):
    """k matrices of one shape, each entry any twin of its base's class."""
    size = shape[0] * shape[1]
    bases = draw(st.lists(st.lists(st.integers(0, len(TWINS) - 1), min_size=size,
                                   max_size=size), min_size=1, max_size=3))
    return [np.array([draw(st.sampled_from(TWINS[c])) for c in draw(st.sampled_from(bases))])
            .reshape(shape) for _ in range(k)]


@st.composite
def weights(draw, k):
    """k weights, all `Fraction`s, all floats or mixed, at times scaled so the
    mass exceeds 1, at times one of them tiny."""
    mode = draw(st.sampled_from(["fraction", "float", "mixed"]))
    ks = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    c, total = draw(st.sampled_from([1, 1, 1, 2])), sum(ks)
    out = []
    for v in ks:
        exact = mode == "fraction" or (mode == "mixed" and draw(st.booleans()))
        out.append(Fraction(c * v, total) if exact else c * v / total)
    if draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, k - 1))
        out[i] = Fraction(1, 10 ** 170) if isinstance(out[i], Fraction) else 1e-170
    return out


@st.composite
def atom_lists(draw, shape=None):
    shape = shape or draw(st.sampled_from(SHAPES))
    k = draw(st.integers(1, 7))
    return [ms.Atom(w, P) for w, P in zip(draw(weights(k)), draw(points(k, shape)))]


# --- the measure itself -----------------------------------------------------------


@given(atom_lists())
@settings(max_examples=150, deadline=None)
def test_measure_matches_list_constructor(atoms):
    assert outcome(lambda: ms.DiscreteMeasure(atoms)) == outcome(lambda: ref_measure(atoms))


@given(atom_lists(), st.data())
@settings(max_examples=150, deadline=None)
def test_find_matches_per_atom_loop(atoms, data):
    try:
        ref = ref_measure(atoms)
    except PreconditionError:
        return
    nu = ms.DiscreteMeasure(atoms)
    shape = atoms[0].point.shape
    probes = [a.point for a in atoms] + data.draw(points(3, shape))
    probes.append(np.ones((shape[0] + 1, shape[1])))
    for P in probes:
        for tol in (ms.MERGE_TOL, 1e-14, 0.5):
            assert nu.find(P, tol) == ref_find(ref, P, tol)


@st.composite
def mixture_inputs(draw):
    shape = draw(st.sampled_from(SHAPES))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        atoms = draw(atom_lists(shape))
        try:
            parts.append(ms.DiscreteMeasure(atoms))
        except PreconditionError:
            parts.append(ms.dirac(atoms[0].point))
    ws = draw(weights(len(parts)))
    for i in draw(st.lists(st.integers(0, len(ws) - 1), max_size=1)):
        ws[i] = draw(st.sampled_from([Fraction(1, 10 ** 300), 1e-300, 0.0, -0.5,
                                      float("nan"), Fraction(0)]))
    return list(zip(ws, parts))


@given(mixture_inputs())
@settings(max_examples=120, deadline=None)
def test_mixture_matches_scale_then_merge(parts):
    assert outcome(lambda: ms.mixture(parts)) == outcome(lambda: ref_mixture(parts))


def test_one_matrix_shape_per_measure():
    # the list constructor merged atoms of any shapes; a measure now holds one
    two, three = ms.dirac(np.eye(2)), ms.dirac(np.eye(3))
    message = "the atoms of a measure need one shape, got [(2, 2), (3, 3)]"
    for build in (lambda: ms.DiscreteMeasure(list(three.atoms) + list(two.atoms)),
                  lambda: ms.mixture([(0.5, two), (0.5, three)]),
                  lambda: ms.pushforward(ms.mixture([(0.5, two), (0.5, ms.dirac(2 * np.eye(2)))]),
                                         lambda X: np.eye(3) if X[0, 0] > 1 else X)):
        with pytest.raises(PreconditionError) as exc:
            build()
        assert str(exc.value) == message
    # the scaled weights are checked first, as the per-atom merge did
    with pytest.raises(PreconditionError, match="must be positive"):
        ms.mixture([(0.5, two), (-1.0, three)])


def test_exact_column_follows_the_weights():
    exact = ms.DiscreteMeasure([ms.Atom(Fraction(1, 3), np.eye(2)),
                                ms.Atom(0.25, 2 * np.eye(2))])
    assert exact._exact.tolist() == [Fraction(1, 3), 0.25]
    assert [w.hex() for w in exact._w.tolist()] == [(1 / 3).hex(), (0.25).hex()]
    # a float lam turns the split rows' weights into floats; once no
    # weight is a Fraction the exact column goes
    step = ms.SplittingStep(np.eye(2), np.diag([0.0, 1.0]), np.diag([2.0, 1.0]), 0.5)
    half = ms.elementary_split(ms.dirac(np.eye(2)), step)
    assert half._exact is None and [a.weight for a in half.atoms] == [0.5, 0.5]
    # split at 2 * eye, the Fraction weight stays
    step = ms.SplittingStep(2 * np.eye(2), np.diag([1.0, 2.0]), np.diag([3.0, 2.0]), 0.5)
    assert ms.elementary_split(exact, step)._exact.tolist() == [Fraction(1, 3), 0.125, 0.125]


# --- split, replay and tree ---------------------------------------------------------

LAMS = [(1, 2), (1, 3), (2, 3)]


@st.composite
def certificates(draw):
    """A certificate replayed from diag(x, y) on a small grid, so that split
    points meet and merge: each step splits one entry of an atom of the
    measure so far, left = target - s e_j and right = target + t e_j with
    lam = t / (s + t), a `Fraction` or a float.  Zeros are at times -0.0 and
    the other entry at times 1e-13 off; a step at times has a tiny lam
    (left = target + e_j, right = target), so weights can underflow.
    Returns (certificate, the reference measure it replays to, or the
    error the replay raised)."""
    exact = draw(st.booleans())
    cur = RefMeasure([ms.Atom(Fraction(1), np.diag([float(draw(st.integers(-2, 2))),
                                                     float(draw(st.integers(-2, 2)))]))], [])
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        target = draw(st.sampled_from(cur.atoms)).point
        j = draw(st.integers(0, 1))
        left, right = target.copy(), target.copy()
        if draw(st.integers(0, 9)) == 0:
            lam = draw(st.sampled_from([Fraction(1, 10 ** 30), Fraction(1, 10 ** 300), 1e-300]))
            left[j, j] += 1.0
        else:
            s, t = draw(st.sampled_from(LAMS))
            lam = Fraction(t, s + t) if exact or draw(st.integers(0, 3)) == 0 else t / (s + t)
            left[j, j] -= s
            right[j, j] += t
        for M in (left, right):
            if M[j, j] == 0.0 and draw(st.booleans()):
                M[j, j] = -0.0
            if draw(st.integers(0, 5)) == 0:
                M[1 - j, 1 - j] += 1e-13
        step = ms.SplittingStep(target, left, right, lam)
        steps.append(step)
        try:
            cur = ref_elementary_split(cur, step)
        except PreconditionError as exc:
            return steps, exc
    return steps, cur


def corrupt(data, steps, kinds=("lam", "rank", "moved", "overflow")):
    """The steps with at times an invalid split and at times an unmatched
    target (valid otherwise), in either order, or an overflowing split."""
    steps = list(steps)
    kinds = data.draw(st.lists(st.sampled_from(kinds), max_size=2))
    for kind in kinds:
        i = data.draw(st.integers(0, len(steps) - 1))
        s = steps[i]
        if kind == "lam":
            steps[i] = ms.SplittingStep(s.target, s.left, s.right, Fraction(3, 2))
        elif kind == "rank":
            steps[i] = ms.SplittingStep(s.target, s.target + np.eye(2), s.target - np.eye(2),
                                        Fraction(1, 2))
        elif kind == "moved":
            shift = np.diag([7.0, 0.0])
            steps[i] = ms.SplittingStep(s.target + shift, s.left + shift, s.right + shift,
                                        s.lam)
        else:
            steps[i] = ms.SplittingStep(s.target, np.full((2, 2), 1e308),
                                        np.full((2, 2), -1e308), s.lam)
    return steps


@given(certificates())
@settings(max_examples=150, deadline=None)
def test_elementary_split_matches_per_atom_split(made):
    steps, want = made
    got = ms.dirac(steps[0].target, certificate=[])
    try:
        for s in steps:
            got = ms.elementary_split(got, s)
    except PreconditionError as exc:
        assert (type(exc), str(exc)) == (type(want), str(want))
        return
    assert bits(got)[:3] == bits(want)[:3]
    assert list(got.certificate) == steps


@given(certificates(), st.data())
@settings(max_examples=120, deadline=None)
def test_verify_laminate_matches_per_atom_replay(made, data):
    steps, end = made
    if isinstance(end, Exception):
        atoms = [ms.Atom(Fraction(1), steps[0].target)]
    else:
        atoms = list(end.atoms)
        edit = data.draw(st.sampled_from(["none", "none", "weight", "drop"]))
        if edit == "weight":
            a = atoms[0]
            atoms[0] = ms.Atom(float(a.weight) * 0.5, a.point)
        elif edit == "drop" and len(atoms) > 1:
            del atoms[data.draw(st.integers(0, len(atoms) - 1))]
    steps = corrupt(data, steps)
    tol = data.draw(st.sampled_from([1e-9, 1e-9, 1e-12, 0.3]))
    got = outcome(lambda: ms.verify_laminate(ms.DiscreteMeasure(atoms), steps, tol), report)
    want = outcome(lambda: ref_verify_laminate(ref_measure(atoms), steps, tol), report)
    assert got == want


@pytest.mark.parametrize("order", ["invalid first", "unmatched first"])
def test_verify_laminate_reports_the_first_failing_step(order):
    # at one step a failed validation comes before a target not found
    good = [ms.SplittingStep(np.diag([2.0, 2.0]), np.diag([1.0, 2.0]), np.diag([3.0, 2.0]),
                             Fraction(1, 2)),
            ms.SplittingStep(np.diag([1.0, 2.0]), np.diag([1.0, 1.0]), np.diag([1.0, 3.0]),
                             Fraction(1, 2)),
            ms.SplittingStep(np.diag([3.0, 2.0]), np.diag([2.0, 2.0]), np.diag([4.0, 2.0]),
                             Fraction(1, 2))]
    invalid = ms.SplittingStep(good[1].target, good[1].left, good[1].right, 1.5)
    unmatched = ms.SplittingStep(good[2].target + 9, good[2].left + 9, good[2].right + 9,
                                 Fraction(1, 2))
    steps = ([good[0], invalid, unmatched] if order == "invalid first"
             else [good[0], good[1], unmatched, invalid])
    nu = ms.DiscreteMeasure([ms.Atom(Fraction(1), np.diag([2.0, 2.0]))])
    got = report(ms.verify_laminate(nu, steps))
    assert got == report(ref_verify_laminate(ref_measure(nu.atoms), steps))
    assert got[2] == (1 if order == "invalid first" else 2)


def test_split_underflow_messages_match():
    tiny = ms.DiscreteMeasure([ms.Atom(Fraction(1, 10 ** 30), np.eye(2)),
                               ms.Atom(Fraction(1, 2), 2 * np.eye(2))])
    for lam, message in ((Fraction(1, 10 ** 300), "atom weight 1.000e-330 is positive, "
                                                   "but underflows as a float"),
                         (1e-300, "atom weight must be positive, got 0.0")):
        step = ms.SplittingStep(np.eye(2), np.diag([2.0, 1.0]), np.eye(2), lam)
        got = outcome(lambda: ms.elementary_split(tiny, step))
        assert got == outcome(lambda: ref_elementary_split(RefMeasure(tiny.atoms), step))
        assert got == (PreconditionError, message)


@given(certificates(), st.data())
@settings(max_examples=100, deadline=None)
def test_cert_tree_matches_per_leaf_scan(made, data):
    steps = made[0]
    if data.draw(st.booleans()):   # the tree does not validate: no overflow
        steps = corrupt(data, steps, ("lam", "rank", "moved"))
    assert outcome(lambda: cert_tree(steps), tree) == outcome(lambda: ref_cert_tree(steps),
                                                               tree)
