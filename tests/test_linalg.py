import functools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import (gf_degree, gf_div, gf_factor, gf_gcd,
                                     gf_irreducible_p, gf_mul, gf_pow,
                                     gf_sqf_list, gf_strip)

from langchev import ff, linalg
from langchev.errors import BudgetExhausted, InputError
from langchev.linalg import Mat, PolyFq, _GFpPoly


def lvl(p, e=1, r=1):
    t = ff.make_tower(p, e)
    t.extend(r)
    return t.level(r)


def test_rref_identity():
    L = lvl(5)
    R, pivots, rank = linalg.rref(Mat.identity(L, 3))
    assert rank == 3
    assert R == Mat.identity(L, 3)


def test_kernel_example_gf5():
    L = lvl(5)
    M = Mat.from_int_rows(L, [[1, 2], [2, 4]])
    K = linalg.kernel(M)
    assert K.nrows == 1
    assert (K @ M).is_zero()
    # span{(2, 4)}: check proportionality
    v = K.row(0)
    a, b = v.entry(0, 0), v.entry(0, 1)
    assert a * L.element(4) == b * L.element(2)
    assert a or b


def test_solve_identity_and_mismatch():
    L = lvl(7)
    v = Mat.from_int_rows(L, [[1, 2, 3]])
    assert linalg.solve(Mat.identity(L, 3), v) == v
    with pytest.raises(InputError):
        Mat.identity(L, 3) @ Mat.identity(L, 2)


def test_solve_inconsistent_returns_none():
    L = lvl(5)
    M = Mat.from_int_rows(L, [[1, 2], [2, 4]])
    v = Mat.from_int_rows(L, [[0, 1]])
    assert linalg.solve(M, v) is None


def test_det_examples():
    L = lvl(5)
    assert linalg.det(Mat.identity(L, 4)) == L.one
    assert linalg.det(Mat.diagonal(L, [2, 3])) == L.one  # 2*3 = 6 = 1 mod 5
    M = Mat.from_int_rows(L, [[1, 2, 3], [1, 2, 3], [0, 1, 1]])
    assert linalg.det(M) == L.zero


def test_inverse_roundtrip_and_singularity():
    L = lvl(7, r=2)
    rng = random.Random(5)
    seen_invertible = 0
    for _ in range(10):
        M = Mat.random(L, 4, 4, rng)
        inv = M.try_inverse()
        if inv is None:
            assert linalg.det(M) == L.zero
        else:
            seen_invertible += 1
            assert M @ inv == Mat.identity(L, 4)
            assert linalg.det(M) != L.zero
    assert seen_invertible > 0


def test_charpoly_examples():
    L5 = lvl(5)
    cp = linalg.charpoly(Mat.zeros(L5, 2, 2))
    assert cp.to_json() == PolyFq.from_coeffs(L5, [0, 0, 1]).to_json()
    cp = linalg.charpoly(Mat.diagonal(L5, [1, 2]))
    # (X-1)(X-2) = X^2 - 3X + 2 = X^2 + 2X + 2 over GF(5)
    assert [c.to_int() for c in cp.coeffs()] == [2, 2, 1]
    L7 = lvl(7)
    cp = linalg.charpoly(Mat.from_int_rows(L7, [[0, 1], [1, 0]]))
    assert [c.to_int() for c in cp.coeffs()] == [6, 0, 1]  # X^2 - 1


def test_charpoly_cayley_hamilton_random():
    rng = random.Random(11)
    for p, e, n in [(3, 1, 5), (5, 1, 8), (7, 1, 6), (3, 2, 4), (5, 2, 3)]:
        L = lvl(p, e)
        M = Mat.random(L, n, n, rng)
        cp = linalg.charpoly(M)
        assert cp.degree == n
        assert cp.leading() == L.one
        assert cp.eval_mat(M).is_zero()


def test_factor_spec_examples():
    L3 = lvl(3)
    x2m1 = PolyFq.from_coeffs(L3, [2, 0, 1])  # X^2 - 1
    facs = linalg.factor(x2m1, random.Random(0))
    assert sorted((f.degree, m) for f, m in facs) == [(1, 1), (1, 1)]
    x2p1 = PolyFq.from_coeffs(L3, [1, 0, 1])  # X^2 + 1, irreducible
    facs = linalg.factor(x2p1, random.Random(0))
    assert len(facs) == 1 and facs[0][0].degree == 2 and facs[0][1] == 1
    # X^9 - X factors into the six monic irreducibles of degree <= 2
    x9mx = PolyFq.from_coeffs(L3, [0, 2] + [0] * 7 + [1])
    facs = linalg.factor(x9mx, random.Random(0))
    assert sum(f.degree * m for f, m in facs) == 9
    assert len(facs) == 6
    prod = PolyFq.one_poly(L3)
    for f, m in facs:
        for _ in range(m):
            prod = prod * f
    assert prod == x9mx.monic()


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1),
                                 (5, 2), (7, 1), (7, 2)])
def test_factor_reexpansion_random(p, e):
    # 125 polynomials per field, 1000 in total, degrees up to 12, q <= 49
    L = lvl(p, e)
    rng = random.Random(97 + p + 10 * e)
    for _ in range(125):
        deg = rng.randrange(1, 13)
        coeffs = [rng.randrange(L.order) for _ in range(deg)] + [1]
        f = PolyFq.from_coeffs(
            L, [ff._int_to_coeffs(c, L.p, L.m) for c in coeffs])
        facs = linalg.factor(f, rng)
        prod = PolyFq.one_poly(L)
        for g, m in facs:
            assert g.leading() == L.one
            for _ in range(m):
                prod = prod * g
        assert prod == f


def test_matrix_order_examples():
    L3 = lvl(3)
    assert linalg.matrix_order(Mat.identity(L3, 2)) == 1
    M = Mat.from_int_rows(L3, [[0, 1], [2, 0]])
    assert linalg.matrix_order(M) == 4  # M^2 = 2I, (2I)^2 = I
    L5 = lvl(5)
    assert linalg.matrix_order(Mat.diagonal(L5, [2])) == 4


def test_matrix_order_minimality():
    rng = random.Random(23)
    L = lvl(5)
    for _ in range(10):
        M = Mat.random(L, 3, 3, rng)
        if M.try_inverse() is None:
            continue
        t = linalg.matrix_order(M)
        assert (M ** t) == Mat.identity(L, 3)
        for ell in set(_small_primes(t)):
            assert not (M ** (t // ell)) == Mat.identity(L, 3)


def _small_primes(t):
    out = []
    d = 2
    while d * d <= t:
        if t % d == 0:
            out.append(d)
            while t % d == 0:
                t //= d
        d += 1
    if t > 1:
        out.append(t)
    return out


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


def test_matrix_order_rejects_singular():
    L = lvl(3)
    with pytest.raises(InputError):
        linalg.matrix_order(Mat.zeros(L, 2, 2))
    # singular matrices are refused before any random draw
    L9 = lvl(3, 2)
    a, b, c = (L9.element(i) for i in (4, 5, 7))
    for M in [Mat.from_int_rows(L, [[1, 1], [1, 1]]),
              Mat.from_int_rows(L, [[1, 2, 0], [0, 1, 0], [1, 0, 0]]),
              Mat.from_entries(L9, [[a, b], [c * a, c * b]])]:
        assert linalg.det(M) == M.level.zero
        with pytest.raises(InputError, match="invertible"):
            linalg.matrix_order(M, rng=_NoDraws())


def _pow_identity_loop(M, n):
    """The square-and-multiply loop Mat.__pow__ ran before: from the
    identity, squaring after every bit."""
    result = Mat.identity(M.level, M.nrows)
    base = M
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


def test_pow_product_count_and_values(monkeypatch):
    L = lvl(7, r=2)
    M = Mat.random(L, 3, 3, random.Random(11))
    expected = {n: _pow_identity_loop(M, n)
                for n in list(range(40)) + [64, 255, 256, 1000, 2 ** 20 + 1]}
    calls = []
    kernel = linalg._planes_matmul

    def counting(a, b, level):
        calls.append(1)
        return kernel(a, b, level)

    monkeypatch.setattr(linalg, "_planes_matmul", counting)
    for n, want in expected.items():
        calls.clear()
        got = M ** n
        assert got == want
        products = 0 if n == 0 else (n.bit_length() - 1
                                     + bin(n).count("1") - 1)
        assert len(calls) == products, n
    # M ** 1 is a fresh matrix, as before
    once = M ** 1
    once.planes[:] = 0
    assert not M.is_zero()


# GF(5), GF(9) and GF(49) as (p, e) of a tower's base level
ORDER_FIELDS = [(5, 1), (3, 2), (7, 2)]
_order_levels = {}


def _order_level(p, e):
    if (p, e) not in _order_levels:
        _order_levels[(p, e)] = ff.make_tower(p, e).level(1)
    return _order_levels[(p, e)]


@st.composite
def invertible_case(draw):
    """An invertible n x n matrix, n <= 3: a random one, or a conjugate of
    lambda I + N for a nilpotent N on the superdiagonal (the charpoly is a
    power, so matrix_order's p-part of the bound is in play)."""
    level = _order_level(*draw(st.sampled_from(ORDER_FIELDS)))
    n = draw(st.integers(1, 3))
    elems = st.integers(0, level.order - 1)
    P = Mat.from_entries(level, [[draw(elems) for _ in range(n)]
                                 for _ in range(n)])
    if draw(st.booleans()):
        lam = draw(st.integers(1, level.order - 1))
        J = Mat.diagonal(level, [lam] * n)
        for i in range(n - 1):
            J.set_entry(i, i + 1, int(draw(st.booleans())))
        P_inv = P.try_inverse()
        return J if P_inv is None else P_inv @ J @ P
    assume(P.try_inverse() is not None)
    return P


def _brute_order(M):
    """Least t with M^t = I, by stepping through the powers of the GF(p)
    matrix of v -> v M on level^n = GF(p)^(n m)."""
    level, n = M.level, M.nrows
    m, p = level.m, level.p
    B = np.zeros((n * m, n * m), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            B[i * m:(i + 1) * m, j * m:(j + 1) * m] = ff._mult_matrix(
                M.planes[:, i, j], level)
    eye = np.eye(n * m, dtype=np.int64)
    acc, t = B, 1
    while not np.array_equal(acc, eye):
        acc = acc @ B % p
        t += 1
    return t


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(invertible_case())
def test_matrix_order_matches_brute_force(M):
    assert linalg.matrix_order(M) == _brute_order(M)


def _drop_prime(monkeypatch, dropped, kept=0):
    """Make _factor_int lower the exponent of one prime to `kept`."""
    factor_int = linalg._factor_int

    def dropping(n, rng):
        out = factor_int(n, rng)
        out[dropped] = kept
        return {ell: v for ell, v in out.items() if v}

    monkeypatch.setattr(linalg, "_factor_int", dropping)


@pytest.mark.parametrize("p, rows, dropped, kept", [
    (7, [[3, 0], [0, 6]], 2, 0),   # order 6, bound 6
    (7, [[3, 0], [0, 6]], 3, 0),
    (7, [[1, 1], [0, 1]], 7, 0),   # order 7, bound 42: the p-part
    (7, [[2, 0], [0, 1]], 3, 0),   # order 3, bound 6
    (5, [[2]], 2, 0),              # order 4, bound 4: no prime left
    (5, [[2]], 2, 1),              # order 4 against 2
    # a 4 x 4 Jordan block at 1 over GF(3): order 9 against 3
    (3, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 3, 1),
])
def test_matrix_order_raises_when_bound_misses_a_prime(monkeypatch, p, rows,
                                                         dropped, kept):
    M = Mat.from_int_rows(lvl(p), rows)
    _drop_prime(monkeypatch, dropped, kept)
    with pytest.raises(AssertionError, match="order bound violated"):
        linalg.matrix_order(M)


def test_matrix_order_exact_when_dropped_prime_is_not_in_the_order(
        monkeypatch):
    # order 3 against the bound 6: without the 2 the order is still 3
    M = Mat.diagonal(lvl(7), [2])
    _drop_prime(monkeypatch, 2)
    assert linalg.matrix_order(M) == 3


@pytest.mark.parametrize("p, rows", [
    (7, [[1]]),                    # order 1
    (7, [[3, 0], [0, 6]]),         # order 6
    (7, [[1, 1], [0, 1]]),         # order 7
    (5, [[0, 1], [3, 0]]),         # charpoly x^2 - 3, irreducible mod 5
    (3, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
])
def test_matrix_order_steps_when_the_bound_resists_factoring(monkeypatch,
                                                             p, rows):
    M = Mat.from_int_rows(lvl(p), rows)
    order = _brute_order(M)
    monkeypatch.setattr(linalg, "_factor_int", lambda n, rng: None)
    assert linalg.matrix_order(M, cap=order) == order
    assert linalg.matrix_order(M, cap=order + 5) == order
    if order > 1:
        with pytest.raises(BudgetExhausted, match=f"exceeds cap {order - 1}"):
            linalg.matrix_order(M, cap=order - 1)


# Towers over GF(p^e) with the levels 1 .. 4 built, for the level tests.
_level_towers = {}


def _level_tower(p, e):
    if (p, e) not in _level_towers:
        t = ff.make_tower(p, e)
        for r in (2, 3, 4):
            t.extend(r)
        _level_towers[(p, e)] = t
    return _level_towers[(p, e)]


def _norm(c, r):
    """c^(F^(r-1)) ... c^F c: its characteristic polynomial lies over k."""
    N = c
    for i in range(1, r):
        N = c.frobenius(i) @ N
    return N


# An n x n matrix whose characteristic polynomial has coefficients in
# GF(Q) has order at most about Q^n, so the brute force below steps through
# at most _STEP_LIMIT powers.  Each case is (kind, p, e, r, n) with Q the
# size of the smallest level holding the coefficients: the carrier k_r for
# generic matrices, k = GF(p^e) for norms, and k_2 for matrices embedded
# from k_2 into k_4 (whose polynomial matrix_order factors over k_4).
_STEP_LIMIT = 2500
LEVEL_ORDER_CASES = [
    (kind, p, e, r, n)
    for p in (3, 5, 7) for e in (1, 2) for r in (1, 2, 3, 4)
    for n in (1, 2, 3, 4)
    for kind, Q in [("generic", p ** (e * r)), ("norm", p ** e),
                    ("embedded", p ** (2 * e) if r == 4 else None)]
    if Q is not None and Q ** n <= _STEP_LIMIT]


@st.composite
def level_order_case(draw):
    """An invertible matrix over k_r from one of LEVEL_ORDER_CASES: a
    random one or a conjugate of lambda I + N (generic), the norm of a
    random c over k_r (norm), or a random matrix over k_2 embedded into
    k_4 (embedded)."""
    kind = draw(st.sampled_from(["generic", "norm", "embedded"]))
    kind, p, e, r, n = draw(st.sampled_from(
        [case for case in LEVEL_ORDER_CASES if case[0] == kind]))
    t = _level_tower(p, e)
    src = t.level(2 if kind == "embedded" else r)
    elems = st.integers(0, src.order - 1)
    P = Mat.from_entries(src, [[draw(elems) for _ in range(n)]
                               for _ in range(n)])
    assume(P.try_inverse() is not None)
    if kind == "embedded":
        return P.embed(4)
    if kind == "norm":
        return _norm(P, r)
    if draw(st.booleans()):
        J = Mat.diagonal(src, [draw(st.integers(1, src.order - 1))] * n)
        for i in range(n - 1):
            J.set_entry(i, i + 1, int(draw(st.booleans())))
        return P.inverse() @ J @ P
    return P


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(level_order_case())
def test_matrix_order_over_the_coefficient_level_matches_brute_force(M):
    assert linalg.matrix_order(M) == _brute_order(M)


def test_matrix_order_builds_no_level():
    # GF(5^4) with and without GF(25) built: the same matrices, the same
    # orders, and neither tower gains a level
    full, bare = ff.make_tower(5), ff.make_tower(5)
    full.extend(2)
    full.extend(4)
    bare.extend(4)
    assert np.array_equal(full.level(4).embed_from[1],
                          bare.level(4).embed_from[1])
    rng = random.Random(14)
    cases = []
    while len(cases) < 6:
        M = Mat.random(full.level(2 if len(cases) < 3 else 4), 2, 2, rng)
        if M.try_inverse() is not None:
            cases.append(M.embed(4))
    cases.append(_norm(cases[-1], 4))
    for M in cases:
        levels = [sorted(t.levels) for t in (full, bare)]
        got = linalg.matrix_order(M)
        assert got == linalg.matrix_order(Mat(bare.level(4), M.planes))
        assert [sorted(t.levels) for t in (full, bare)] == levels
        assert M ** got == Mat.identity(M.level, 2)


def test_norm_charpoly_is_factored_at_level_one(monkeypatch):
    seen = []
    real_factor = linalg.factor

    def spy(f, rng):
        seen.append(f.level.r)
        return real_factor(f, rng)

    monkeypatch.setattr(linalg, "factor", spy)
    rng = random.Random(3)
    for p, e, r in [(5, 1, 3), (7, 1, 4), (3, 2, 2), (5, 2, 4)]:
        t = _level_tower(p, e)
        while True:
            c = Mat.random(t.level(r), 3, 3, rng)
            if c.try_inverse() is not None and c.frobenius(1) != c:
                break
        seen.clear()
        linalg.matrix_order(_norm(c, r))
        assert seen == [1]
        # c itself is not F-stable: its polynomial stays at the carrier
        seen.clear()
        linalg.matrix_order(c)
        assert seen == [r]
    # diag(zeta, 1), zeta = X generating k_2 = GF(25): the coefficient
    # zeta of its polynomial is not in GF(5), so k_4 factors it
    M = Mat.diagonal(_level_tower(5, 1).level(2), [5, 1]).embed(4)
    seen.clear()
    assert linalg.matrix_order(M) == _brute_order(M)
    assert seen == [4]


def test_fixed_space_examples():
    L5 = lvl(5)
    assert linalg.fixed_space(Mat.identity(L5, 3)).nrows == 3
    assert linalg.fixed_space(Mat.zeros(L5, 2, 2)).nrows == 0
    # permutation of a 2-cycle on coordinates 0,1, fixing coordinate 2
    P = Mat.from_int_rows(L5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    F = linalg.fixed_space(P)
    assert F.nrows == 2
    for v in F.rows():
        assert v @ P == v


def test_frobenius_entrywise():
    t = ff.make_tower(3)
    t.extend(2)
    L = t.level(2)
    zeta = t.element(2, [0, 1])
    M = Mat.from_entries(L, [[zeta, L.one], [L.zero, zeta * zeta]])
    MF = M.frobenius(1)
    assert MF.entry(0, 0) == zeta.frobenius(1)
    assert MF.entry(1, 1) == (zeta * zeta).frobenius(1)
    assert MF.entry(0, 1) == L.one


def test_matmul_matches_scalar_arith():
    t = ff.make_tower(5, 2)
    L = t.level(1)
    rng = random.Random(3)
    A = Mat.random(L, 3, 4, rng)
    B = Mat.random(L, 4, 2, rng)
    C = A @ B
    for i in range(3):
        for j in range(2):
            acc = L.zero
            for k in range(4):
                acc = acc + A.entry(i, k) * B.entry(k, j)
            assert C.entry(i, j) == acc


def test_row_space_canonical():
    L = lvl(7)
    A = Mat.from_int_rows(L, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    B = Mat.from_int_rows(L, [[1, 3, 4], [0, 1, 1]])
    assert A.row_space() == B.row_space()


def test_poly_divmod_gcd():
    L = lvl(7)
    f = PolyFq.from_coeffs(L, [6, 0, 1])   # X^2 - 1
    g = PolyFq.from_coeffs(L, [1, 1])      # X + 1
    q, r = divmod(f, g)
    assert r.is_zero()
    assert (q * g) == f
    assert f.gcd(g) == g.monic()


def test_poly_times_int_is_the_ring_map():
    # an int multiplies as its image under Z -> GF(9), as for Mat and
    # FqElement, not as an enumeration index
    L = lvl(3, 2)
    f = PolyFq.from_coeffs(L, [5, 0, 7, 1])
    assert f * -1 == -f
    assert f * 4 == f
    assert 4 * f == f
    assert f * 2 == f + f


# ---------------------------------------------------------------------------
# Characteristic polynomials, modular powers, squarefree decomposition
# ---------------------------------------------------------------------------

def _charpoly_scalar_recurrence(M):
    """The characteristic polynomial as Mat.charpoly computed it before:
    Hessenberg reduction without rescaling, then the leading-minor
    recurrence one FqElement at a time with running subdiagonal
    products."""
    level = M.level
    p = level.p
    n = M.nrows
    H = M.copy()
    planes = H.planes
    for j in range(n - 2):
        nz = planes[:, j + 1:, j].any(axis=0).nonzero()[0]
        if nz.size == 0:
            continue
        pr = j + 1 + int(nz[0])
        if pr != j + 1:
            planes[:, [j + 1, pr], :] = planes[:, [pr, j + 1], :]
            planes[:, :, [j + 1, pr]] = planes[:, :, [pr, j + 1]]
        piv = H.entry(j + 1, j)
        fcol = linalg._planes_scale(piv.inverse().coeffs,
                                    planes[:, j + 2:, j], level)[:, :, None]
        planes[:, j + 2:, :] = (planes[:, j + 2:, :] - linalg._planes_matmul(
            fcol, planes[:, j + 1:j + 2, :], level)) % p
        planes[:, :, j + 1:j + 2] = (
            planes[:, :, j + 1:j + 2]
            + linalg._planes_matmul(planes[:, :, j + 2:], fcol, level)) % p
    one, zero = level.one, level.zero
    polys = [[one]]
    for k in range(1, n + 1):
        hk = H.entry(k - 1, k - 1)
        prev = polys[k - 1]
        cur = [c - hk * d for c, d in zip([zero] + prev, prev + [zero])]
        run = one
        for i in range(1, k):
            run = run * H.entry(k - i, k - 1 - i)
            coeff = H.entry(k - 1 - i, k - 1) * run
            if coeff:
                low = polys[k - 1 - i]
                cur = [c - coeff * d for c, d in
                       zip(cur, low + [zero] * (len(cur) - len(low)))]
        polys.append(cur)
    return PolyFq.from_coeffs(level, polys[n])


@st.composite
def square_case(draw, fields):
    """An n x n matrix, n <= 8, over one of `fields`: random, sparse (so
    the Hessenberg form meets zero pivots), block upper triangular (a zero
    subdiagonal entry survives the reduction) or diagonal."""
    level = _order_level(*draw(st.sampled_from(fields)))
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["random", "sparse", "block", "diagonal"]))
    elems = st.integers(0, level.order - 1)
    cut = draw(st.integers(0, n))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            zero = (kind == "diagonal" and i != j
                    or kind == "block" and i >= cut > j
                    or kind == "sparse" and draw(st.integers(0, 3)) > 0)
            row.append(0 if zero else draw(elems))
        rows.append(row)
    return Mat.from_entries(level, rows) if n else Mat.zeros(level, 0, 0)


CHARPOLY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])


@CHARPOLY_SETTINGS
@given(square_case([(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]))
def test_charpoly_matches_sympy_over_prime_fields(M):
    import sympy
    p, n = M.level.p, M.nrows
    want = sympy.Matrix(n, n, M.planes[0].ravel().tolist()).charpoly()
    want = [int(c) % p for c in reversed(want.all_coeffs())]
    assert [c.to_int() for c in M.charpoly().coeffs()] == want


@CHARPOLY_SETTINGS
@given(square_case([(3, 2), (5, 2), (2, 3), (7, 2)]))
def test_charpoly_matches_scalar_recurrence(M):
    cp = M.charpoly()
    assert cp == _charpoly_scalar_recurrence(M)
    assert cp.degree == M.nrows and cp.leading() == M.level.one


def _pow_mod_divmod_loop(f, n, modulus):
    """The loop PolyFq.pow_mod ran before: a full division after every
    product."""
    result = PolyFq.one_poly(f.level)
    base = f % modulus
    while n:
        if n & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        n >>= 1
    return result


def _random_poly(level, deg, rng, monic=False):
    coeffs = [rng.randrange(level.order) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randrange(1, level.order))
    return PolyFq.from_coeffs(
        level, [ff._int_to_coeffs(c, level.p, level.m) for c in coeffs])


@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (3, 2), (2, 3), (5, 2)])
def test_pow_mod_matches_divmod_loop(p, e):
    L = lvl(p, e)
    rng = random.Random(31 * p + e)
    for _ in range(24):
        d = rng.randrange(1, 9)
        modulus = _random_poly(L, d, rng, monic=rng.random() < 0.3)
        # bases of degree below, at and well above the modulus's
        base = _random_poly(L, rng.randrange(0, 2 * d + 4), rng)
        for n in [0, 1, 2, 3, rng.randrange(4, 10 ** 6), L.order ** d]:
            want = _pow_mod_divmod_loop(base, n, modulus)
            assert base.pow_mod(n, modulus) == want, (d, n)
            if e == 1:  # the arithmetic `factor` runs at m = 1
                got = _GFpPoly.of(base).pow_mod(n, _GFpPoly.of(modulus))
                assert got.poly() == want, (d, n)


def test_charpoly_and_pow_mod_product_counts(monkeypatch):
    """charpoly: at most four plane products per Hessenberg step and one
    per row of the recurrence, and no FqElement sums or products; pow_mod:
    one division, for self % modulus."""
    calls = []
    kernel = linalg._planes_matmul

    def counting(a, b, level):
        calls.append(1)
        return kernel(a, b, level)

    def scalar_arith(*args):
        raise AssertionError("FqElement arithmetic")

    rng = random.Random(4)
    cases = []
    for L in (lvl(7), lvl(3, 2)):
        for n in [1, 2, 3, 5, 8, 13, 21, 30]:
            M = Mat.random(L, n, n, rng)
            cases.append((M, M.charpoly()))
    monkeypatch.setattr(linalg, "_planes_matmul", counting)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__"):
        monkeypatch.setattr(ff.FqElement, name, scalar_arith)
    for M, want in cases:
        calls.clear()
        assert M.charpoly() == want
        assert len(calls) <= 4 * (M.nrows - 1) + M.nrows, M.nrows
    monkeypatch.undo()

    divisions = []
    divmod_ = PolyFq.__divmod__

    def counting_divmod(a, b):
        divisions.append(1)
        return divmod_(a, b)

    monkeypatch.setattr(PolyFq, "__divmod__", counting_divmod)
    monkeypatch.setattr(linalg, "_planes_matmul", counting)
    for L in (lvl(7), lvl(3, 2)):
        for d in [1, 2, 3, 5, 9, 17]:
            modulus = _random_poly(L, d, rng, monic=True)
            base = _random_poly(L, d - 1, rng)
            for n in [5, 2 ** 40 + 3, L.order ** d]:
                divisions.clear()
                calls.clear()
                base.pow_mod(n, modulus)
                assert len(divisions) == 1
                # the table's doublings, two products per step (the
                # reduced base skips the division's products)
                steps = n.bit_length() - 1 + bin(n).count("1") - 1
                assert len(calls) <= max(d - 2, 0).bit_length() + 2 * steps


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_squarefree_decomposition_matches_sympy(p):
    L = lvl(p)
    rng = random.Random(p)
    for _ in range(40):
        f = _random_poly(L, 0, rng)
        for _ in range(rng.randrange(1, 4)):
            g = _random_poly(L, rng.randrange(1, 4), rng)
            for _ in range(rng.choice([1, 1, 2, 3, p, p + 1, 2 * p])):
                f = f * g
        got = sorted(([c.to_int() for c in g.coeffs()], k)
                     for g, k in linalg.squarefree_decomposition(f))
        _, want = gf_sqf_list([c.to_int() for c in reversed(f.coeffs())],
                              p, ZZ)
        want = sorted(([int(c) for c in reversed(g)], k) for g, k in want)
        assert got == want
        # the same loop on the Python-int lists `factor` runs at m = 1
        assert sorted((g.ints, k) for g, k in linalg.squarefree_decomposition(
            _GFpPoly.of(f))) == want


@st.composite
def _gfp_poly_case(draw):
    """A GF(p) polynomial f of degree <= 24, a product of powers of up to
    five random factors (so repeated factors, p-th powers and several
    factors of one degree occur), a second polynomial g (maybe zero) and an
    rng seed; both polynomials big-endian, as sympy's galoistools takes
    them."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    coeff = st.integers(0, p - 1)
    f = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(0, 5))):
        g = [draw(st.integers(1, p - 1))] + draw(
            st.lists(coeff, min_size=1, max_size=6))
        k = draw(st.sampled_from([1, 1, 2, 3, p]))
        if gf_degree(f) + k * gf_degree(g) <= 24:
            f = gf_mul(f, gf_pow(g, k, p, ZZ), p, ZZ)
    g = gf_strip(draw(st.lists(coeff, max_size=25)))
    return p, f, g, draw(st.integers(0, 2 ** 32))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_gfp_poly_case())
def test_gfp_list_path_matches_sympy_and_plane_pipeline(case):
    p, f_be, g_be, seed = case
    L = lvl(p)

    def poly(be):
        return PolyFq.from_coeffs(L, [int(c) for c in reversed(be)])

    def big_endian(poly):
        return [c.to_int() for c in reversed(poly.coeffs())]

    f, g = poly(f_be), poly(g_be)
    assert big_endian(f.gcd(g)) == gf_gcd(f_be, g_be, p, ZZ)
    if g_be:
        quot, rem = divmod(f, g)
        assert [big_endian(quot), big_endian(rem)] == list(
            gf_div(f_be, g_be, p, ZZ))
    rng = random.Random(seed)
    got = linalg.factor(f, rng)
    _, want = gf_factor(f_be, p, ZZ)
    assert sorted((big_endian(h), k) for h, k in got) == sorted(
        ([int(c) for c in h], k) for h, k in want)
    # factor runs the pipeline on Python-int lists at m = 1; its steps
    # called directly on f, in PolyFq's plane arithmetic: same factors, same
    # draws
    plane_rng = random.Random(seed)
    plane = []
    for h, mult in linalg.squarefree_decomposition(f):
        for prod, d in linalg._distinct_degree(h):
            for irr in linalg._equal_degree_split(prod, d, plane_rng):
                plane.append((big_endian(irr.monic()), mult))
    assert [(big_endian(h), k) for h, k in got] == sorted(
        plane, key=lambda t: (len(t[0]), t[0][::-1]))
    assert rng.getstate() == plane_rng.getstate()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_list_equal_degree_split_draws_as_the_plane_split(p, d):
    # up to six distinct irreducibles of degree d, so both halves of a
    # split often need splitting again: the factors come out in the same
    # (unsorted) order, after the same draws
    rng = random.Random(100 * p + d)
    irreducibles = set()
    for _ in range(400):
        h = [1] + [rng.randrange(p) for _ in range(d)]
        if len(irreducibles) < 6 and gf_irreducible_p(h, p, ZZ):
            irreducibles.add(tuple(h))
    f = [1]
    for h in sorted(irreducibles):
        f = gf_mul(f, list(h), p, ZZ)
    f = [int(c) for c in reversed(f)]
    rng, plane_rng = random.Random(d), random.Random(d)
    got = linalg._equal_degree_split(_GFpPoly(lvl(p), f), d, rng)
    want = linalg._equal_degree_split(PolyFq.from_coeffs(lvl(p), f), d,
                                      plane_rng)
    assert len(got) == len(irreducibles)
    assert [h.ints for h in got] == [h.coeff_ints() for h in want]
    assert rng.getstate() == plane_rng.getstate()


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


@pytest.mark.parametrize("p,coeffs,d", [
    (7, [1, 0, 1], 1),        # X^2 + 1
    (2, [1, 1, 1], 1),        # X^2 + X + 1
    (3, [2, 1, 0, 0, 1], 2),  # X^4 + X + 2
    (2, [1, 1, 0, 0, 1], 2),  # X^4 + X + 1
])
def test_equal_degree_split_raises_on_an_irreducible_input(p, coeffs, d):
    # an irreducible of degree 2d never splits into degree-d factors: in
    # both kinds of arithmetic the split stops after the cap's draws,
    # skipped ones included
    cap = linalg._EDF_DRAW_CAP
    rng = _CountingRandom(p)
    with pytest.raises(BudgetExhausted, match=f"{cap} draws"):
        linalg._equal_degree_split(_GFpPoly(lvl(p), coeffs), d, rng)
    assert rng.draws == cap * (len(coeffs) - 1)
    rng = _CountingRandom(p)
    with pytest.raises(BudgetExhausted, match=f"{cap} draws"):
        linalg._equal_degree_split(PolyFq.from_coeffs(lvl(p), coeffs), d,
                                   rng)
    assert rng.draws == cap * (len(coeffs) - 1)


def test_equal_degree_split_raises_on_an_irreducible_input_over_gf9():
    L = lvl(3, 2)
    squares = {(x * x).to_int() for x in map(L.element, range(9))}
    c = next(c for c in range(9) if c not in squares)
    f = PolyFq.from_coeffs(L, [-L.element(c), 0, 1])  # X^2 - c
    rng = _CountingRandom(9)
    with pytest.raises(BudgetExhausted):
        linalg._equal_degree_split(f, 1, rng)
    assert rng.draws == 2 * linalg._EDF_DRAW_CAP


@st.composite
def _extension_factor_case(draw):
    """lead * prod g_i^k_i over GF(4), GF(8), GF(9) or GF(25): up to four
    random monic g_i of degree 1 to 3 (repeats and several factors of one
    degree occur), k_i in {1, 2, p}, total degree at most 24, and an rng
    seed."""
    level = _order_level(*draw(st.sampled_from([(2, 2), (2, 3), (3, 2),
                                                (5, 2)])))
    index = st.integers(0, level.order - 1)
    f = PolyFq.from_coeffs(level, [draw(st.integers(1, level.order - 1))])
    for _ in range(draw(st.integers(1, 4))):
        g = PolyFq.from_coeffs(
            level, draw(st.lists(index, min_size=1, max_size=3)) + [1])
        k = draw(st.sampled_from([1, 2, level.p]))
        if f.degree + k * g.degree <= 24:
            for _ in range(k):
                f = f * g
    return f, draw(st.integers(0, 2 ** 32))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_extension_factor_case())
def test_factor_over_extension_fields_matches_root_search(case):
    f, seed = case
    L = f.level
    facs = linalg.factor(f, random.Random(seed))
    prod = PolyFq.from_coeffs(L, [f.leading()])
    for g, k in facs:
        assert g.leading() == L.one and 1 <= g.degree <= 3
        for _ in range(k):
            prod = prod * g
    assert prod == f
    keys = [(g.degree, [c.to_int() for c in g.coeffs()]) for g, _ in facs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # a factor of degree 2 or 3 with no root in GF(q) is irreducible:
    # checked over all q elements, apart from the pipeline's certificate
    for g, _ in facs:
        if g.degree > 1:
            for x in L.elements():
                value = L.zero
                for c in reversed(g.coeffs()):
                    value = value * x + c
                assert value != L.zero, (g, x)


def test_eval_mat_coerces_coefficients_to_the_matrix_level():
    L1 = lvl(3, 1, 1)
    L1.tower.extend(2)
    L2 = L1.tower.level(2)
    f = PolyFq.from_coeffs(L1, [2, 1, 0, 1])
    M = Mat.random(L2, 3, 3, random.Random(2))
    want = Mat.zeros(L2, 3, 3)
    for c in reversed(f.coeffs()):
        want = want @ M + Mat.identity(L2, 3) * c
    got = f.eval_mat(M)
    assert got.level is L2 and got == want
    assert PolyFq.zero(L1).eval_mat(M).is_zero()


# ---------------------------------------------------------------------------
# One elimination routine against the per-pivot oracle
# ---------------------------------------------------------------------------

def _oracle_eliminate_col(planes, prow, col, level, below_only=False):
    mask = planes[:, :, col].any(axis=0)
    mask[prow] = False
    if below_only:
        mask[:prow + 1] = False
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        return
    upd = linalg._planes_matmul(planes[:, rows, col][:, :, None],
                                planes[:, prow:prow + 1, :], level)
    planes[:, rows, :] = (planes[:, rows, :] - upd) % level.p


def _oracle_rref(M):
    """The per-pivot Gauss-Jordan loop: one FqElement inverse, one
    whole-row scale and one whole-row update per pivot."""
    R = M.copy()
    level, planes = M.level, R.planes
    pivots = []
    rank = 0
    for col in range(R.ncols):
        if rank == R.nrows:
            break
        nz = planes[:, rank:, col].any(axis=0).nonzero()[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            planes[:, [rank, pr], :] = planes[:, [pr, rank], :]
        piv = ff.FqElement(level, tuple(int(c) for c in planes[:, rank, col]))
        planes[:, rank, :] = linalg._planes_scale(piv.inverse().coeffs,
                                                  planes[:, rank, :], level)
        _oracle_eliminate_col(planes, rank, col, level)
        pivots.append(col)
        rank += 1
    return R, pivots


def _oracle_augmented(M):
    return _oracle_rref(Mat.hstack([M, Mat.identity(M.level, M.nrows)]))


def _oracle_row_space(M):
    R, pivots = _oracle_rref(M)
    return R.take_rows(range(len(pivots)))


def _oracle_left_kernel(M):
    R, _ = _oracle_augmented(M)
    left = R.take_cols(range(M.ncols))
    idx = [i for i in range(M.nrows) if not left.planes[:, i, :].any()]
    return R.take_rows(idx).take_cols(range(M.ncols, M.ncols + M.nrows))


def _oracle_solve_left(M, rhs):
    R, pivots = _oracle_augmented(M)
    pivots = [c for c in pivots if c < M.ncols]
    rank = len(pivots)
    body = R.take_rows(range(rank)).take_cols(range(M.ncols))
    tail = R.take_rows(range(rank)).take_cols(
        range(M.ncols, M.ncols + M.nrows))
    coeff = rhs.take_cols(pivots)
    if not (coeff @ body) == rhs:
        return None
    return coeff @ tail


def _oracle_try_inverse(M):
    R, pivots = _oracle_augmented(M)
    if pivots != list(range(M.nrows)):
        return None
    return R.take_cols(range(M.nrows, 2 * M.nrows))


def _oracle_det(M):
    """The below-only elimination loop, with a running product of the
    pivots and a sign per swap."""
    level = M.level
    planes = M.planes.copy()
    n = M.nrows
    acc, flips = level.one, 0
    for col in range(n):
        nz = planes[:, col:, col].any(axis=0).nonzero()[0]
        if nz.size == 0:
            return level.zero
        pr = col + int(nz[0])
        if pr != col:
            planes[:, [col, pr], :] = planes[:, [pr, col], :]
            flips ^= 1
        piv = ff.FqElement(level, tuple(int(c) for c in planes[:, col, col]))
        acc = acc * piv
        planes[:, col, :] = linalg._planes_scale(piv.inverse().coeffs,
                                                 planes[:, col, :], level)
        _oracle_eliminate_col(planes, col, col, level, below_only=True)
    return -acc if flips else acc


# GF(5), GF(7) (m = 1), GF(7^2) and GF(5^3) (m >= 2) as (p, e, r)
ELIM_FIELDS = [(5, 1, 1), (7, 1, 1), (7, 2, 1), (5, 1, 3)]
REDUCED_KINDS = ["reduced", "identity"]
NEAR_MISSES = ["lead2", "pivot_col", "plane1", "zero_row", "swapped", "tall"]
ELIM_KINDS = (["random", "deficient", "zero", "wide", "tall_random"]
              + REDUCED_KINDS + NEAR_MISSES)


def _elim_input(field, kind, nrows, ncols, seed):
    """A matrix of the given kind, or None when the shape cannot carry
    it (the near-misses need a reduced matrix with enough rows)."""
    L = lvl(*field)
    rng = random.Random(seed)
    if kind == "zero":
        return Mat.zeros(L, nrows, ncols)
    if kind == "identity":
        return Mat.identity(L, nrows)
    if kind == "wide":
        return Mat.random(L, nrows, nrows + ncols + 1, rng)
    if kind == "tall_random":
        return Mat.random(L, nrows + ncols + 1, ncols, rng)
    if kind == "deficient":
        k = rng.randrange(min(nrows, ncols) + 1)
        return Mat.random(L, nrows, k, rng) @ Mat.random(L, k, ncols, rng)
    M = Mat.random(L, nrows, ncols, rng)
    if kind == "random":
        return M
    B = _oracle_row_space(M)
    if kind == "reduced":
        return B
    if B.nrows == 0:
        return None
    _, pivots = _oracle_rref(B)
    i = rng.randrange(B.nrows)
    if kind == "lead2":
        return B * 2
    if kind == "zero_row":
        return Mat.vstack([B, Mat.zeros(L, 1, B.ncols)])
    if kind == "tall":
        return Mat.vstack([B, Mat.random(L, B.ncols + 1 - B.nrows + i,
                                         B.ncols, rng)])
    if B.nrows < 2:
        if kind == "plane1" and L.m > 1:
            B.planes[1, 0, pivots[0]] = 1
            return B
        return None
    j = (i + 1 + rng.randrange(B.nrows - 1)) % B.nrows
    if kind == "swapped":
        return B.take_rows([j if t == i else i if t == j else t
                            for t in range(B.nrows)])
    if kind == "pivot_col":
        B.planes[0, i, pivots[j]] = 1 + rng.randrange(L.p - 1)
        return B
    if L.m == 1:
        return None
    B.planes[1, i, pivots[j]] = 1 + rng.randrange(L.p - 1)
    return B


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.sampled_from(ELIM_FIELDS), st.sampled_from(ELIM_KINDS),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 32))
def test_elimination_matches_per_pivot_oracle(field, kind, nrows, ncols,
                                              seed):
    M = _elim_input(field, kind, nrows, ncols, seed)
    assume(M is not None)
    L = M.level
    rng = random.Random(seed + 1)
    # reduced inputs take the shortcut, near-misses the elimination loop
    reduced = linalg._echelon_pivots(M.planes)
    if kind in REDUCED_KINDS:
        assert reduced is not None
    if kind in NEAR_MISSES:
        assert reduced is None
    before = M.copy()

    R, pivots = M.rref()
    want_R, want_pivots = _oracle_rref(M)
    assert R == want_R and pivots == want_pivots
    assert R is not M and M.rank() == len(want_pivots)
    assert M.row_space() == _oracle_row_space(M)
    assert M.left_kernel() == _oracle_left_kernel(M)
    consistent = Mat.random(L, 2, M.nrows, rng) @ M
    arbitrary = Mat.random(L, 2, M.ncols, rng)
    for rhs in (consistent, arbitrary):
        got, want = M.solve_left(rhs), _oracle_solve_left(M, rhs)
        assert (got is None) if want is None else (got == want)
    assert M.solve_left(consistent) is not None
    if M.nrows == M.ncols:
        inv, want = M.try_inverse(), _oracle_try_inverse(M)
        assert (inv is None) if want is None else (inv == want)
        assert M.det() == _oracle_det(M)
    assert M == before


def test_elimination_shortcut_and_kernel_contract():
    L = lvl(7)
    B = Mat.from_int_rows(L, [[1, 2, 0, 3], [0, 0, 1, 4]])
    assert linalg._echelon_pivots(B.planes) == [0, 2]
    assert B.row_space() is B
    R, pivots = B.rref()
    assert R == B and R is not B and pivots == [0, 2]
    # inconsistent right-hand sides are refused by the same check
    assert B.solve_left(Mat.from_int_rows(L, [[1, 2, 0, 0]])) is None
    assert B.solve_left(Mat.from_int_rows(L, [[3, 6, 5, 1]])) == \
        Mat.from_int_rows(L, [[3, 5]])
    # the kernel basis is in reduced echelon form, and so a fixed point
    M = Mat.random(L, 9, 4, random.Random(3))
    K = M.left_kernel()
    assert K.nrows == 5 and (K @ M).is_zero()
    assert K.row_space() is K


def test_det_sign_and_pivot_product():
    for field in ELIM_FIELDS:
        L = lvl(*field)
        rng = random.Random(field[0] * 10 + field[2])
        for n in range(6):
            M = Mat.random(L, n, n, rng)
            P = Mat.identity(L, n).take_rows(rng.sample(range(n), n))
            assert M.det() == _oracle_det(M)
            assert (P @ M).det() == _oracle_det(P @ M)
            assert (P @ M).det() in (M.det(), -M.det())


def _int_rref(rows, p):
    """Gauss-Jordan on lists of Python ints mod p."""
    a = [[x % p for x in row] for row in rows]
    pivots, rank = [], 0
    for col in range(len(a[0]) if a else 0):
        pr = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        pivots.append(col)
        rank += 1
    return a, pivots


def _primes_around_word_bound(m=1):
    """The largest prime p with m^2 (p-1)^2 < 2^63 and the next prime."""
    root = math.isqrt(((1 << 63) - 1) // m ** 2) + 1
    below = root
    while not ff.is_prime(below):
        below -= 1
    above = root + 1
    while not ff.is_prime(above):
        above += 1
    assert m ** 2 * (below - 1) ** 2 < 1 << 63 <= m ** 2 * (above - 1) ** 2
    return below, above


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 32))
def test_gfp_elimination_word_size_envelope(nrows, ncols, seed):
    below, above = _primes_around_word_bound()
    rng = random.Random(seed)
    L = lvl(below)
    rows = [[rng.randrange(below) for _ in range(ncols)]
            for _ in range(nrows)]
    M = Mat.from_int_rows(L, rows)
    R, pivots = M.rref()
    want, want_pivots = _int_rref(rows, below)
    assert pivots == want_pivots
    assert R.planes[0].tolist() == want
    rows[0][0] = 2  # never reduced: the loop runs and must refuse
    M = Mat.from_int_rows(lvl(above), rows)
    with pytest.raises(InputError):
        M.rref()
    with pytest.raises(InputError):
        M.left_kernel()


def _gf2_rref(rows, defpoly, p):
    """Gauss-Jordan on (a0, a1) = a0 + a1 z pairs of Python ints, z^2 =
    -f0 - f1 z for the level's defining polynomial (f0, f1, 1)."""
    f0, f1 = defpoly[0], defpoly[1]

    def mul(a, b):
        t = a[1] * b[1]
        return ((a[0] * b[0] - t * f0) % p,
                (a[0] * b[1] + a[1] * b[0] - t * f1) % p)

    def inv(a):  # a^(p^2 - 2)
        out, n = (1, 0), p * p - 2
        while n:
            if n & 1:
                out = mul(out, a)
            a, n = mul(a, a), n >> 1
        return out

    a = [list(row) for row in rows]
    pivots, rank = [], 0
    for col in range(len(a[0]) if a else 0):
        pr = next((i for i in range(rank, len(a)) if any(a[i][col])), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        s = inv(a[rank][col])
        a[rank] = [mul(x, s) for x in a[rank]]
        for i in range(len(a)):
            if i != rank and any(a[i][col]):
                f = a[i][col]
                a[i] = [tuple((u - v) % p for u, v in zip(x, mul(f, y)))
                        for x, y in zip(a[i], a[rank])]
        pivots.append(col)
        rank += 1
    return a, pivots


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32))
def test_plane_elimination_word_size_envelope(nrows, ncols, seed):
    # at m = 2 the pivot's scale and update sum at most 2 products of
    # residues, the fold of a plane product 4: the level's own bound
    below, above = _primes_around_word_bound(2)
    assert (below, above) == (1518500213, 1518500279)
    L = lvl(below, 1, 2)
    rng = random.Random(seed)
    M = Mat.random(L, nrows, ncols, rng)
    rows = [[tuple(int(c) for c in M.planes[:, i, j]) for j in range(ncols)]
            for i in range(nrows)]
    R, pivots = M.rref()
    want, want_pivots = _gf2_rref(rows, L.defpoly, below)
    assert pivots == want_pivots
    assert [[tuple(int(c) for c in R.planes[:, i, j]) for j in range(ncols)]
            for i in range(nrows)] == want
    with pytest.raises(InputError):
        ff.make_tower(above).extend(2)


def test_plane_product_word_size_envelope_past_m_squared():
    # at m = 2 an inner dimension n > m^2 = 4 sets the bound n (p-1)^2:
    # 4 (p-1)^2 < 2^63 <= 5 (p-1)^2, so n = 4 is exact and n = 5 refused
    p = 1358187923
    assert ff.is_prime(p)
    assert 4 * (p - 1) ** 2 < 1 << 63 <= 5 * (p - 1) ** 2
    L = lvl(p, 1, 2)
    f0, f1 = L.defpoly[0], L.defpoly[1]

    def mul(a, b):  # (a0 + a1 z)(b0 + b1 z) with z^2 = -f0 - f1 z
        t = a[1] * b[1]
        return (a[0] * b[0] - t * f0, a[0] * b[1] + a[1] * b[0] - t * f1)

    rng = random.Random(7)
    for n in (4, 5):
        a = np.array([[[rng.randrange(p) for _ in range(n)]
                       for _ in range(3)] for _ in range(2)], dtype=np.int64)
        b = np.array([[[rng.randrange(p) for _ in range(2)]
                       for _ in range(n)] for _ in range(2)], dtype=np.int64)
        a[:, 0, :] = b[:, :, 0] = p - 1  # the largest residues
        if n == 5:
            with pytest.raises(InputError):
                linalg._planes_matmul(a, b, L)
            continue
        got = linalg._planes_matmul(a, b, L)
        for i in range(3):
            for j in range(2):
                want = [0, 0]
                for k in range(n):
                    t = mul([int(x) for x in a[:, i, k]],
                            [int(x) for x in b[:, k, j]])
                    want = [want[0] + t[0], want[1] + t[1]]
                assert got[:, i, j].tolist() == [w % p for w in want]


def _oracle_eliminate_planes(planes, level):
    """The m >= 2 pivot as the per-pivot loop ran it: an FqElement
    inverse, the pivot row scaled by a plane product with an (m, 1, 1)
    stack, and a `_planes_matmul` rank-1 update of the other rows."""
    m, nrows, ncols = planes.shape
    p = level.p
    pivots, leads, swaps, rank = [], [], 0, 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = planes[:, rank:, col].any(axis=0).nonzero()[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            planes[:, [rank, pr], col:] = planes[:, [pr, rank], col:]
            swaps += 1
        lead = ff.FqElement(level, tuple(int(c) for c in planes[:, rank, col]))
        s = np.array(lead.inverse().coeffs, dtype=np.int64).reshape(m, 1, 1)
        row = linalg._planes_matmul(s, planes[:, rank:rank + 1, col:], level)
        planes[:, rank:rank + 1, col:] = row
        f = planes[:, :, col].copy()
        f[:, rank] = 0
        rows = f.any(axis=0).nonzero()[0]
        if rows.size:
            upd = linalg._planes_matmul(f[:, rows, None], row, level)
            planes[:, rows, col:] = (planes[:, rows, col:] - upd) % p
        leads.append(lead)
        pivots.append(col)
        rank += 1
    return pivots, leads, swaps


# m = 2, 6, 8 and 12 as (p, e, r); GF(9^6) reaches m = 12 over an e = 2 base
PLANE_FIELDS = [(7, 1, 2), (5, 2, 3), (3, 1, 8), (3, 2, 6)]


@functools.lru_cache(maxsize=None)
def _plane_level(p, e, r):
    return lvl(p, e, r)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PLANE_FIELDS), st.integers(0, 6), st.integers(0, 7),
       st.integers(0, 7), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_plane_elimination_matches_per_pivot_oracle(field, nrows, ncols,
                                                    rank, zero_rows, seed):
    L = _plane_level(*field)
    assert L.m == field[1] * field[2]
    rng = random.Random(seed)
    k = min(rank, nrows, ncols)  # rank-deficient below min(nrows, ncols)
    M = Mat.random(L, nrows, k, rng) @ Mat.random(L, k, ncols, rng)
    # zero rows shuffled in make the pivot search swap rows
    M = Mat.vstack([M, Mat.zeros(L, zero_rows, ncols)])
    M = M.take_rows(rng.sample(range(M.nrows), M.nrows))
    got, want = M.planes.copy(), M.planes.copy()
    pivots, leads, swaps = linalg._eliminate(got, L)
    assert (pivots, leads, swaps) == _oracle_eliminate_planes(want, L)
    assert len(pivots) <= k and np.array_equal(got, want)


@pytest.mark.parametrize("field", PLANE_FIELDS + [(7, 1, 1)])
def test_planes_scale_matches_a_plane_product(field):
    L = _plane_level(*field)
    rng = random.Random(L.m)
    planes = Mat.random(L, 3, 5, rng).planes
    for _ in range(5):
        c = L.element(rng.randrange(L.order)).coeffs
        s = np.array(c, dtype=np.int64).reshape(L.m, 1, 1)
        want = linalg._planes_matmul(s, planes.reshape(L.m, 1, -1), L)
        got = linalg._planes_scale(c, planes, L)
        assert got.shape == planes.shape
        assert np.array_equal(got, want.reshape(planes.shape))
