"""Property tests for the plane-product kernel behind every field matrix
and polynomial product: ``Mat @``, ``Mat * scalar``, ``PolyFq.scale`` and
``PolyFq * PolyFq`` against a pure-Python reference built from FqElement
sums of products, on levels of absolute degree 1, 2, 3, 4, 6 and 12 and at
one prime just under the int64 exactness bound."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from langchev import ff
from langchev.errors import InputError
from langchev.linalg import Mat, PolyFq

# (p, e, r): absolute degrees m = e * r of 1, 2, 3, 4, 6, 12
FIELDS = [(5, 1, 1), (7, 2, 1), (11, 3, 1), (7, 2, 2), (11, 2, 3), (5, 2, 6)]
# the largest prime with 4 (p-1)^2 < 2^63: exact for inner dimensions <= 4
BIG_P = 1518500213
BIG_N = 4

_levels = {}


def level_of(p, e, r):
    if (p, e, r) not in _levels:
        tower = ff.make_tower(p, e)
        _levels[(p, e, r)] = tower.level(tower.extend(r))
    return _levels[(p, e, r)]


PROPS = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def planes(draw, level, rows, cols):
    """A plane stack with entries in [0, p); some planes forced to zero."""
    m, p = level.m, level.p
    arr = draw(hnp.arrays(np.int64, (m, rows, cols),
                          elements=st.integers(0, p - 1)))
    zero = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    arr[np.array(zero, dtype=bool)] = 0
    return arr


@st.composite
def matmul_case(draw, fields, max_dim):
    level = level_of(*draw(st.sampled_from(fields)))
    r, n, c = (draw(st.integers(1, max_dim)) for _ in range(3))
    return (level, draw(planes(level, r, n)), draw(planes(level, n, c)))


def _ref_matmul(A, B):
    level = A.level
    out = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = level.zero
            for k in range(A.ncols):
                acc = acc + A.entry(i, k) * B.entry(k, j)
            row.append(acc)
        out.append(row)
    return out


def _element(level, arr):
    return ff.FqElement(level, tuple(int(c) for c in arr[:, 0, 0]))


def _entries(M):
    return [[M.entry(i, j) for j in range(M.ncols)] for i in range(M.nrows)]


@PROPS
@given(matmul_case(FIELDS, 5))
def test_matmul_matches_reference(case):
    level, a, b = case
    A, B = Mat(level, a), Mat(level, b)
    assert _entries(A @ B) == _ref_matmul(A, B)


@PROPS
@given(matmul_case([(BIG_P, 1, 1)], BIG_N))
def test_matmul_matches_reference_near_word_bound(case):
    level, a, b = case
    A, B = Mat(level, a), Mat(level, b)
    assert _entries(A @ B) == _ref_matmul(A, B)


@PROPS
@given(st.sampled_from(FIELDS + [(BIG_P, 1, 1)]), st.data())
def test_scalar_and_poly_scale_match_reference(field, data):
    level = level_of(*field)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    A = Mat(level, data.draw(planes(level, rows, cols)))
    s = _element(level, data.draw(planes(level, 1, 1)))
    want = [[A.entry(i, j) * s for j in range(cols)] for i in range(rows)]
    assert _entries(A * s) == want
    f = PolyFq(level, A.planes[:, 0, :].copy())
    want = PolyFq.from_coeffs(level, [c * s for c in f.coeffs()])
    assert f.scale(s) == want


@PROPS
@given(st.sampled_from(FIELDS + [(BIG_P, 1, 1)]), st.data())
def test_poly_product_matches_reference(field, data):
    level = level_of(*field)
    f, g = (PolyFq(level, data.draw(planes(level, 1, data.draw(
        st.integers(1, 4))))[:, 0]) for _ in range(2))
    a, b = f.coeffs(), g.coeffs()
    want = [level.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] = want[i + j] + x * y
    assert f * g == PolyFq.from_coeffs(level, want)


def test_poly_product_rejects_prime_past_word_size():
    # three terms of (p-1)^2 reach 2^63 at this prime
    p = 2147483647
    level = level_of(p, 1, 1)
    f = PolyFq.from_coeffs(level, [p - 1] * 3)
    with pytest.raises(InputError, match=str(p)):
        f * f


def test_word_bound_is_exact_at_big_prime():
    level = level_of(BIG_P, 1, 1)
    ok = Mat(level, np.full((1, 2, BIG_N), BIG_P - 1, dtype=np.int64))
    assert (ok @ ok.transpose()).entry(0, 0) == level.scalar(BIG_N)
    wide = Mat(level, np.full((1, 1, BIG_N + 1), 1, dtype=np.int64))
    with pytest.raises(InputError, match=str(BIG_P)):
        wide @ wide.transpose()


def test_matmul_rejects_prime_past_word_size():
    p = 4294967311
    level = level_of(p, 1, 1)
    rows = [[(7 * i + 3 * j + 1) * 1000003 % p for j in range(4)]
            for i in range(4)]
    A = Mat.from_entries(level, rows)
    with pytest.raises(InputError, match=r"4294967311.*2\^63"):
        A @ A
    with pytest.raises(InputError):
        A * level.scalar(p - 1)
