"""boxes._apply against the per-row stacked matmul it replaces, and the
box transforms against the one-point products they replace.

The references stay here: np.matmul(M, X[:, :, None]) runs one gemv per row,
and _apply must give the same bits in one call under whichever OpenBLAS
kernel this process loaded (CI also runs this file with OPENBLAS_CORETYPE
set to Haswell and to Sandybridge).  A box's single points and corners go
through to_world_many, and must give the bits of center + frame @ z.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from lamstair import boxes


def reference(M, X):
    return np.matmul(M, X[:, :, None])[:, :, 0]


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same positions, and equal uint64 bits
    everywhere else (a NaN's sign and payload are not compared)."""
    if a.shape != b.shape:
        return False
    na, nb = np.isnan(a), np.isnan(b)
    return (np.array_equal(na, nb)
            and np.array_equal(a.view(np.uint64)[~na], b.view(np.uint64)[~nb]))


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1e308, -1e308])


def entries(rng, shape):
    """Normal entries at exponents in [-80, 80), a tenth of them replaced by
    signed zeros, infinities, NaN, subnormals and 1e308."""
    v = rng.standard_normal(shape) * np.ldexp(1.0, rng.integers(-80, 80, size=shape))
    special = rng.random(shape) < 0.1
    v[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    return v


def laid_out(A, layout):
    if layout == "C":
        return np.ascontiguousarray(A)
    if layout == "F":
        return np.asfortranarray(A)
    # strided: every other row and column of a larger array
    big = np.zeros((2 * A.shape[0], 2 * A.shape[1]))
    big[::2, ::2] = A
    return big[::2, ::2]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 17, 257, 5000])
@pytest.mark.parametrize("x_layout", ["C", "F", "strided"])
@pytest.mark.parametrize("m_layout", ["C", "F", "strided"])
def test_apply_matches_per_row_matmul(m_layout, x_layout, k):
    rng = np.random.default_rng(1000 * k + 10 * "CFs".index(m_layout[0])
                                + "CFs".index(x_layout[0]))
    with np.errstate(all="ignore"):
        for _ in range(20 if k < 257 else 4):
            M = laid_out(entries(rng, (2, 2)), m_layout)
            X = laid_out(entries(rng, (k, 2)), x_layout)
            assert same_bits(boxes._apply(M, X), reference(M, X))


def test_apply_finite_rows_bit_for_bit():
    """Without NaN every bit is compared, signed zeros included."""
    rng = np.random.default_rng(7)
    for order in "CF":
        M = np.array(rng.standard_normal((2, 2)), order=order)
        X = rng.standard_normal((20_000, 2)) * np.ldexp(1.0, rng.integers(-60, 60, (20_000, 2)))
        X[::97] = -0.0
        X[1::97, 0] = 0.0
        got, want = boxes._apply(M, X), reference(M, X)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_matches_per_row_matmul_past_half_a_million_rows(order):
    """More rows than the largest call `synth verify --samples 1000000`
    makes (500,000 boundary points): the probe runs 8 rows, and OpenBLAS
    may take another gemm path for long inputs."""
    rng = np.random.default_rng(11 if order == "C" else 12)
    M = np.array(entries(rng, (2, 2)), order=order)
    X = entries(rng, (2 ** 19 + 3, 2))
    with np.errstate(all="ignore"):
        assert same_bits(boxes._apply(M, X), reference(M, X))


def test_forced_fallback_runs_the_per_row_product(monkeypatch):
    calls = []

    def spy(M, X):
        calls.append(len(X))
        return reference(M, X)

    monkeypatch.setattr(boxes, "_per_row", spy)
    monkeypatch.setattr(boxes, "_FORM_C", None)
    monkeypatch.setattr(boxes, "_FORM_F", None)
    rng = np.random.default_rng(3)
    X = entries(rng, (300, 2))
    with np.errstate(all="ignore"):
        for M in (entries(rng, (2, 2)), np.asfortranarray(entries(rng, (2, 2)))):
            assert same_bits(boxes._apply(M, X), reference(M, X))
    assert calls == [300, 300]


@pytest.mark.parametrize("case", ["one row", "float32", "strided M", "3x2 M",
                                  "F-contiguous X", "strided X"])
def test_per_row_product_where_no_form_applies(monkeypatch, case):
    calls = []

    def spy(M, X):
        calls.append(len(X))
        return reference(M, X)

    monkeypatch.setattr(boxes, "_per_row", spy)
    rng = np.random.default_rng(4)
    M, X = rng.standard_normal((2, 2)), rng.standard_normal((50, 2))
    if case == "one row":
        X = X[:1]
    elif case == "float32":
        X = X.astype(np.float32)
    elif case == "strided M":
        M = laid_out(M, "strided")
    elif case == "F-contiguous X":
        X = laid_out(X, "F")
    elif case == "strided X":
        X = laid_out(X, "strided")
    else:
        M = rng.standard_normal((3, 2))
    got = boxes._apply(M, X)
    assert calls == [len(X)]
    assert got.dtype == reference(M, X).dtype
    assert np.array_equal(got, reference(M, X))


def _roundings(m0, m1, x0, x1):
    """m0 x0 + m1 x1 fused on the first product, fused on the second, and
    as the plain sum of two rounded products."""
    p0, p1 = m0 * x0, m1 * x1
    exact0 = Fraction(m0) * Fraction(x0)
    exact1 = Fraction(m1) * Fraction(x1)
    return (float(exact0 + Fraction(p1)), float(exact1 + Fraction(p0)), p0 + p1)


def test_probe_tells_the_three_roundings_apart():
    """The probe has, for each pair of roundings, a row and column where
    they differ; and each rounding gives -0.0 somewhere, where the per-row
    kernel may give +0.0."""
    M, X = boxes._probe()
    assert len(X) <= 8
    pairs, negative_zero = set(), set()
    for x0, x1 in X.tolist():
        for (m0, m1) in M.tolist():
            r = _roundings(m0, m1, x0, x1)
            pairs |= {(i, j) for i in range(3) for j in range(i + 1, 3) if r[i] != r[j]}
            negative_zero |= {i for i in range(3) if r[i] == 0.0 and math.copysign(1.0, r[i]) < 0}
    assert pairs == {(0, 1), (0, 2), (1, 2)}
    assert negative_zero == {0, 1, 2}


def scalar_to_world(b, z):
    """The one-point rule that to_world and corners replaced: one gemv."""
    return b.center + b.frame @ np.asarray(z, dtype=float)


def random_boxes(rng, n):
    """Boxes with rotated, identity and swap frames, centers and
    half-widths from 1e-3 to 1e3 in modulus."""
    out = []
    for k in range(n):
        th = rng.uniform(-math.pi, math.pi)
        frame = [[[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]],
                 None, boxes._P_SWAP][k % 3]
        center = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3, 3, 2)
        out.append(boxes.OBox(center, 10.0 ** rng.uniform(-3, 3, 2), frame))
    return out


def signed_zero_rows(rng, b, k):
    """k rows inside b, with a fifth of the entries +0.0 or -0.0."""
    Z = rng.uniform(-1.0, 1.0, (k, 2)) * b.half
    zero = rng.random((k, 2)) < 0.2
    Z[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return Z


class TestSinglePointTransforms:
    def test_to_world_and_corners_match_the_one_point_product(self):
        rng = np.random.default_rng(20)
        for b in random_boxes(rng, 60):
            Z = signed_zero_rows(rng, b, 9)
            many = b.to_world_many(Z)
            for z, row in zip(Z, many):
                want = scalar_to_world(b, z)
                assert same_bits(b.to_world(z), want)
                assert same_bits(b.to_world(tuple(z.tolist())), want)
                assert same_bits(row, want)
            h0, h1 = b.half
            want = np.array([scalar_to_world(b, (s0 * h0, s1 * h1))
                             for s0, s1 in ((-1, -1), (1, -1), (1, 1), (-1, 1))])
            assert same_bits(b.corners(), want)

    def test_to_local_many_matches_the_one_point_product(self):
        rng = np.random.default_rng(21)
        for b in random_boxes(rng, 60):
            X = b.to_world_many(signed_zero_rows(rng, b, 9))
            X[::4] = b.center       # z = 0 exactly
            want = np.array([b.frame.T @ (x - b.center) for x in X])
            assert same_bits(b.to_local_many(X), want)
            assert same_bits(b.to_local_many(X[:1]), want[:1])

    def test_swap_per_row_matches_one_product_per_vertex(self):
        rng = np.random.default_rng(22)
        V = rng.standard_normal((400, 2)) * 10.0 ** rng.uniform(-3, 3, (400, 2))
        special = rng.random((400, 2)) < 0.3
        V[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], int(special.sum()))
        with np.errstate(invalid="ignore"):   # 0 * inf in both
            want = np.array([boxes._P_SWAP @ v for v in V])
            for k in (1, 3, 4, 400):
                assert same_bits(boxes._per_row(boxes._P_SWAP, V[:k]), want[:k])
