import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.galoistools import (gf_gcdex, gf_irreducible_p, gf_mul,
                                     gf_pow_mod, gf_rem, gf_strip)
from sympy.polys.matrices import DomainMatrix

from langchev import ff
from langchev.errors import InputError


def test_make_tower_prime_field():
    t = ff.make_tower(3, 1)
    assert t.q == 3
    assert t.level(1).order == 3


def test_make_tower_gf25_defpoly_irreducible():
    t = ff.make_tower(5, 2)
    lvl = t.level(1)
    assert lvl.order == 25
    # certify by brute factorization: no root and no quadratic factor needed
    f = lvl.defpoly
    assert len(f) == 3 and f[2] == 1
    for x in range(5):
        assert (f[0] + f[1] * x + f[2] * x * x) % 5 != 0


def test_make_tower_rejects_composite():
    with pytest.raises(InputError):
        ff.make_tower(4, 1)
    with pytest.raises(InputError):
        ff.make_tower(1, 1)


def test_extend_sizes_and_idempotence():
    t = ff.make_tower(3)
    r = t.extend(2)
    assert t.level(r).order == 9
    assert t.extend(2) == r  # same tag


def test_extend_embeds_multiplicative_orders():
    # the 8-element group of k_2 lands in the order-8 subgroup of k_4^x
    t = ff.make_tower(3)
    t.extend(2)
    t.extend(4)
    lvl2 = t.level(2)
    for x in lvl2.elements():
        if not x:
            continue
        y = ff.embed(x, 4)
        # exhaustive powering: order of y divides 8
        acc = t.level(4).one
        for _ in range(8):
            acc = acc * y
        assert acc == t.level(4).one


def test_arith_gf3():
    t = ff.make_tower(3)
    two = t.element(1, 2)
    assert ff.arith(two, two, "add") == t.element(1, 1)


def test_arith_gf9_zeta_squared():
    t = ff.make_tower(3)
    t.extend(2)
    zeta = t.element(2, [0, 1])
    assert zeta * zeta == t.element(2, 2)  # defining poly X^2 + 1


def test_div_by_zero():
    t = ff.make_tower(3)
    with pytest.raises(ZeroDivisionError):
        ff.arith(t.element(1, 1), t.element(1, 0), "div")


def test_incompatible_levels():
    t = ff.make_tower(3)
    t.extend(2)
    t.extend(3)
    with pytest.raises(InputError):
        ff.arith(t.element(2, [1, 1]), t.element(3, [1, 0, 1]), "add")


def test_frobenius_fixes_base():
    t = ff.make_tower(5, 2)
    t.extend(3)
    for idx in range(25):
        a = ff.embed(t.element(1, idx), 3)
        assert ff.frobenius(a, 1) == a


def test_frobenius_gf9_example():
    t = ff.make_tower(3)
    t.extend(2)
    zeta = t.element(2, [0, 1])
    assert ff.frobenius(zeta, 1) == zeta * t.element(2, 2)  # zeta^3 = 2*zeta


def test_frobenius_order_and_inverse():
    t = ff.make_tower(3)
    t.extend(4)
    rng = random.Random(1)
    for _ in range(20):
        x = t.element(4, rng.randrange(3 ** 4))
        assert ff.frobenius(x, 4) == x
        assert ff.frobenius(ff.frobenius(x, 1), -1) == x


def test_frobenius_is_field_automorphism():
    t = ff.make_tower(5)
    t.extend(3)
    rng = random.Random(2)
    for _ in range(30):
        x = t.element(3, rng.randrange(125))
        y = t.element(3, rng.randrange(125))
        assert ff.frobenius(x + y) == ff.frobenius(x) + ff.frobenius(y)
        assert ff.frobenius(x * y) == ff.frobenius(x) * ff.frobenius(y)


@pytest.mark.parametrize("p, e", [(3, 2), (2, 2)])
def test_embed_is_ring_hom_and_commutes_with_frobenius(p, e):
    # at p = 2 the two roots of f_1 in k_2 share their absolute trace
    t = ff.make_tower(p, e)
    t.extend(2)
    order = t.level(1).order
    rng = random.Random(3)
    for _ in range(25):
        x = t.element(1, rng.randrange(order))
        y = t.element(1, rng.randrange(order))
        assert ff.embed(x + y, 2) == ff.embed(x, 2) + ff.embed(y, 2)
        assert ff.embed(x * y, 2) == ff.embed(x, 2) * ff.embed(y, 2)
        assert ff.embed(ff.frobenius(x), 2) == ff.frobenius(ff.embed(x, 2))


def test_embeddings_compose():
    t = ff.make_tower(3)
    for r in (2, 4, 6, 12):
        t.extend(r)
    for x in t.level(2).elements():
        via4 = ff.embed(ff.embed(x, 4), 12)
        via6 = ff.embed(ff.embed(x, 6), 12)
        direct = ff.embed(x, 12)
        assert via4 == direct == via6


def test_tower_embeddings_pinned():
    # sha256 of every defpoly, frob_p and embed_from matrix; the growth
    # orders build 2 and 3 after their multiple 6, then 6 after both
    h = hashlib.sha256()
    for p in (3, 5, 7):
        for e in (1, 2):
            for growth in ((6, 2, 4, 3), (3, 2, 6, 4)):
                t = ff.make_tower(p, e)
                for r in growth:
                    t.extend(r)
                rec = [[r, list(lv.defpoly), lv.frob_p.tolist(),
                        [[s, lv.embed_from[s].tolist()]
                         for s in sorted(lv.embed_from)]]
                       for r, lv in sorted(t.levels.items())]
                h.update(json.dumps([p, e, rec]).encode())
    assert h.hexdigest() == (
        "bae13320bb25376808a1b51640e6dd7aa9ce35ec9b67a62095b344a702ec8517")


def test_scalar_product_exact_at_large_prime():
    # the unreduced convolution times the fold rows overflowed int64 here
    p = 10 ** 9 + 7
    level = ff.make_tower(p, 2).level(1)
    assert level.defpoly == (1, 0, 1)
    x = level.element([p - 1, p - 1])
    y = level.element([p - 2, p - 3])
    assert (x * y).coeffs == (p - 1, 5)


def _mul_mod_reference(a, b, f, p):
    """a b mod (f, p) in Python ints: the full product, then its terms of
    degree >= m cleared by the monic f of degree m."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    m = len(f) - 1
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        for i, fi in enumerate(f):
            prod[k - m + i] -= c * fi
    return tuple(c % p for c in prod[:m])


def test_extend_refuses_degree_past_word_size():
    # m^2 (p-1)^2 >= 2^63 for every m >= 2; at degree 3, squaring
    # (p-1)(1 + zeta + zeta^2) used to wrap silently to (2147483638,
    # 2147483644, 2147483646)
    p = 2147483647
    t = ff.make_tower(p)  # degree 1 computes in Python ints
    for r in (2, 3):
        with pytest.raises(InputError, match=r"m = %d.*2\^63" % r):
            t.extend(r)
    assert sorted(t.levels) == [1]
    with pytest.raises(InputError, match=str(p)):
        ff.make_tower(p, 2)
    # the largest prime = 1 mod 3 with 9 (p-1)^2 < 2^63 (so X^3 + c is
    # irreducible for some small c): degree 3 is built, products are exact
    p = 1012333453
    assert 9 * (p - 1) ** 2 < 1 << 63
    t = ff.make_tower(p)
    level = t.level(t.extend(3))
    x = level.element([p - 1] * 3)
    y = level.element([p - 2, 1, p - 3])
    for a, b in ((x, x), (x, y), (y, y)):
        assert (a * b).coeffs == _mul_mod_reference(
            a.coeffs, b.coeffs, level.defpoly, p)


def _candidates(p, m):
    """Monic degree-m polynomials over GF(p), little-endian, in the
    enumeration order of defining polynomials: the non-leading
    coefficients count up in base p."""
    for idx in itertools.count():
        yield ff._int_to_coeffs(idx, p, m) + (1,)


def _pow_rows(f, p, exps):
    """Row per exponent e: X^e mod f over GF(p) (sympy), little-endian."""
    m = len(f) - 1
    rows = []
    for e in exps:
        r = [int(c) for c in reversed(gf_pow_mod([1, 0], e, list(
            reversed(f)), p, ZZ))]
        rows.append(r + [0] * (m - len(r)))
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_defpoly_is_first_candidate_sympy_accepts(p):
    for m in range(1, 9):
        want = next(f for f in _candidates(p, m)
                    if gf_irreducible_p(list(reversed(f)), p, ZZ))
        t = ff.make_tower(p)
        level = t.level(t.extend(m))
        assert level.defpoly == want
        assert np.array_equal(level.powers, _pow_rows(want, p,
                                                      range(2 * m - 1)))
        assert np.array_equal(level.frob_p, _pow_rows(
            want, p, range(0, p * m, p)))


def _plain_scan(p, m):
    """The first candidate of degree m >= 2 over GF(p) that passes the
    Berlekamp test, every candidate from X^m + 1 on tested in turn."""
    plevel = ff._prime_level(p)
    return next(f for f in itertools.islice(_candidates(p, m), 1, None)
                if ff._irreducible_tables(f, plevel) is not None)


def test_defpoly_skips_reducible_binomials_as_the_plain_scan():
    # the binomials X^m + c come first; Lidl-Niederreiter Thm 3.75 skips
    # the reducible ones, which leaves the first irreducible candidate as
    # it was: none at m = 3, p = 2 mod 3, or m = 4, p = 3 mod 4, some
    # binomial at m = 2 and odd p
    primes = [p for p in range(5, 258) if ff.is_prime(p)]
    for p in primes:
        for m in range(2, 13):
            got = ff._defining_tables(ff.make_tower(p), m)[0]
            assert got == _plain_scan(p, m), (p, m)


def test_extend_skips_every_binomial_when_none_is_irreducible(monkeypatch):
    # 3 does not divide 65536 and 10007 = 3 mod 4, so no binomial of those
    # degrees is irreducible; each of the p - 1 used to be tested
    tested = []
    berlekamp = ff._irreducible_tables

    def recorded(f, plevel):
        tested.append(f)
        return berlekamp(f, plevel)

    monkeypatch.setattr(ff, "_irreducible_tables", recorded)
    for p, m in ((65537, 3), (10007, 4)):
        del tested[:]
        ff._defining_tables(ff.make_tower(p), m)
        assert tested and all(any(f[1:m]) for f in tested), (p, m)
    monkeypatch.undo()
    import langchev
    src = os.path.dirname(os.path.dirname(langchev.__file__))
    code = ("import sys, time; from langchev import ff; "
            "t = time.perf_counter(); "
            "ff.make_tower(int(sys.argv[1])).extend(int(sys.argv[2])); "
            "print(time.perf_counter() - t)")
    for p, m in ((65537, 3), (10007, 4)):
        done = subprocess.run(
            [sys.executable, "-c", code, str(p), str(m)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 0.3, (p, m, done.stdout)


def _rank_mod(rows, p):
    return DomainMatrix([[GF(p)(int(c)) for c in row] for row in rows],
                        (len(rows), len(rows[0])), GF(p)).rank()


def _power_mod(mat, n, p):
    out = np.eye(len(mat), dtype=np.int64)
    for _ in range(n):
        out = out @ mat % p
    return out


def _gf_product(factors, p):
    """Little-endian product of little-endian factors over GF(p)."""
    out = [1]
    for g in factors:
        out = gf_mul(out, list(reversed(g)), p, ZZ)
    return tuple(int(c) for c in reversed(out))


def test_berlekamp_rank_rejects_distinct_factors():
    # X (X^2+1) (X^3+2X+1) over GF(3): every factor degree divides 6, so
    # x -> x^3 has order dividing 6 on GF(3)[X]/(f), but its fixed space
    # has one dimension per factor
    p = 3
    f = _gf_product([(0, 1), (1, 0, 1), (1, 2, 0, 1)], p)
    m = len(f) - 1
    frob = _pow_rows(f, p, range(0, p * m, p))
    assert np.array_equal(_power_mod(frob, m, p), np.eye(m, dtype=np.int64))
    assert _rank_mod(frob - np.eye(m, dtype=np.int64), p) == 3
    assert ff._irreducible_tables(f, ff._prime_level(p)) is None


def test_berlekamp_power_rejects_square_of_irreducible():
    # (X^2+1)^2 over GF(3): one distinct factor gives rank m - 1, but
    # GF(3)[X]/(f) has nilpotents, so x -> x^3 has no power equal to 1
    p = 3
    f = _gf_product([(1, 0, 1), (1, 0, 1)], p)
    m = len(f) - 1
    frob = _pow_rows(f, p, range(0, p * m, p))
    assert not np.array_equal(_power_mod(frob, m, p),
                              np.eye(m, dtype=np.int64))
    assert _rank_mod(frob - np.eye(m, dtype=np.int64), p) == m - 1
    assert ff._irreducible_tables(f, ff._prime_level(p)) is None
    assert ff._irreducible_tables((1, 0, 1), ff._prime_level(p)) is not None


def test_prime_level_cache_hands_out_one_level():
    # every tower of degree >= 2 tests its candidates over the cached GF(p)
    p = 10007
    ff._prime_towers.pop(p, None)
    seen = []
    start = threading.Barrier(8)

    def get():
        start.wait(timeout=10)
        seen.append(ff._prime_level(p))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=get) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert len(seen) == 8
    assert all(level is ff._prime_level(p) for level in seen)


def test_embedding_built_for_late_divisor():
    t = ff.make_tower(5)
    t.extend(6)
    t.extend(2)  # divisor created after its multiple
    x = t.element(2, [1, 2])
    y = ff.embed(x, 6)
    assert ff.frobenius(y, 2) == y


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2),
                                 (5, 2), (11, 2)])
def test_sqrt_exhaustive_small(p, e):
    t = ff.make_tower(p, e)
    lvl = t.level(1)
    if lvl.order > 121:
        pytest.skip("beyond the exhaustive bound")
    for b in lvl.elements():
        s = ff.sqrt(b * b)
        assert s in (b, -b)


def test_sqrt_nonsquare_verdict():
    t = ff.make_tower(3)
    assert ff.sqrt(t.element(1, 2)) is None  # squares mod 3 are {0,1}
    t5 = ff.make_tower(5)
    s = ff.sqrt(t5.element(1, 4))
    assert s in (t5.element(1, 2), t5.element(1, 3))
    assert ff.sqrt(t5.element(1, 0)) == t5.element(1, 0)


def test_fixed_nonsquare():
    assert ff.fixed_nonsquare(ff.make_tower(3).level(1)).to_int() == 2
    assert ff.fixed_nonsquare(ff.make_tower(5).level(1)).to_int() == 2
    t9 = ff.make_tower(3, 2)
    d = ff.fixed_nonsquare(t9.level(1))
    assert d ** 4 != t9.level(1).one  # not in the index-2 square subgroup
    # deterministic: first nonsquare in enumeration order
    firsts = [x for x in itertools.islice(t9.level(1).elements(), 9)
              if x and not ff.is_square(x)]
    assert d == firsts[0]


def test_solve_diag_quadratic_examples():
    t = ff.make_tower(5)
    one = t.element(1, 1)
    two = t.element(1, 2)
    three = t.element(1, 3)
    a, b = ff.solve_diag_quadratic(one, one, one)
    assert a * a + b * b == one
    a, b = ff.solve_diag_quadratic(two, three, one)
    assert two * a * a + three * b * b == one
    a, b = ff.solve_diag_quadratic(one, one, t.element(1, 0), nontrivial=True)
    assert a * a + b * b == t.element(1, 0)
    assert a or b


def test_solve_diag_quadratic_all_targets_gf7():
    t = ff.make_tower(7)
    alpha = t.element(1, 3)
    beta = t.element(1, 5)
    for g in range(7):
        gamma = t.element(1, g)
        sol = ff.solve_diag_quadratic(alpha, beta, gamma)
        assert sol is not None
        a, b = sol
        assert alpha * a * a + beta * b * b == gamma


def test_element_int_roundtrip_and_order():
    t = ff.make_tower(7)
    t.extend(2)
    lvl = t.level(2)
    for idx in (0, 1, 6, 48):
        assert lvl.element(idx).to_int() == idx


# (p, e, r), absolute degree m = e r: levels on both sides of 2^16 elements
INVERSE_LEVELS = [(5, 1, 8), (3, 1, 12), (2, 1, 17), (13, 1, 5),
                  (65537, 2, 1), (10 ** 9 + 7, 1, 1), (5, 1, 2), (3, 1, 6),
                  (7, 1, 5), (2, 1, 10), (251, 1, 2), (3, 2, 3)]


@pytest.mark.parametrize("p, e, r", INVERSE_LEVELS)
def test_inverse_matches_fermat_power(p, e, r):
    tower = ff.make_tower(p, e)
    level = tower.level(tower.extend(r))
    rng = random.Random(p * 100 + r)
    for idx in [1, 2, p - 1, level.order - 1] + [
            rng.randrange(1, level.order) for _ in range(12)]:
        x = level.element(idx)
        inv = x.inverse()
        # the Fermat power x^(q-2), computed without any inverse
        assert inv.coeffs == (x ** (level.order - 2)).coeffs
        assert x * inv == level.one
    with pytest.raises(ZeroDivisionError):
        level.zero.inverse()


def test_inverse_rejects_defpoly_sharing_a_factor(monkeypatch):
    tower = ff.make_tower(5)
    level = tower.level(tower.extend(8))
    x, x1 = level.element([0, 1] + [0] * 6), level.element([1, 1] + [0] * 6)
    assert x * x.inverse() == level.one and x1 * x1.inverse() == level.one
    # X^8 + X = X (X + 1) (X^6 - X^5 + ... + 1) over GF(5): the
    # remainder sequences of X and of X + 1 against it end in zero
    monkeypatch.setattr(level, "defpoly", (0, 1, 0, 0, 0, 0, 0, 0, 1))
    for y in (x, x1):
        with pytest.raises(AssertionError, match="shares a factor"):
            y.inverse()


@functools.cache
def _prime_tower_level(p, m):
    tower = ff.make_tower(p)
    return tower.level(tower.extend(m))


def _big_endian(coeffs):
    return gf_strip([int(c) for c in reversed(coeffs)])


def _little_endian(poly, m):
    out = [int(c) for c in reversed(poly)]
    return tuple(out + [0] * (m - len(out)))


@st.composite
def _scalar_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    m = draw(st.integers(1, 8))  # 251^2 and 3^8 < 2^16 < 7^8 and 251^3
    elt = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    return p, m, draw(elt), draw(elt), draw(st.integers(-(1 << 40),
                                                        1 << 40))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scalar_case())
def test_scalar_ops_match_sympy(case):
    p, m, a, b, n = case
    level = _prime_tower_level(p, m)
    f, A = _big_endian(level.defpoly), _big_endian(a)
    x, y = level.element(a), level.element(b)
    assert (x * y).coeffs == _little_endian(
        gf_rem(gf_mul(A, _big_endian(b), p, ZZ), f, p, ZZ), m)
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    s, _, g = gf_gcdex(A, f, p, ZZ)
    assert g == [1]
    assert x.inverse().coeffs == _little_endian(s, m)
    assert (x ** n).coeffs == _little_endian(
        gf_pow_mod(A if n >= 0 else s, abs(n), f, p, ZZ), m)
