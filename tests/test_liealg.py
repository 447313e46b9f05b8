import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from langchev import ff, liealg, linalg, rootdata
from langchev.errors import BudgetExhausted, InputError, VerificationError
from langchev.liealg import (
    Mat, bracket, center, centralizer, from_root_datum,
    generalized_roots, is_regular_semisimple, is_split_toral,
    maximal_toral_subalgebra, p_power_mod_center, root_decomposition,
    split_maximal_toral_subalgebra, standard_chevalley_basis,
    verify_chevalley_basis, random_inner_automorphism, scramble_basis,
    Subalgebra, components, f_minus, gr_degree,
)

_towers = {}


def tower(p, e=1):
    if (p, e) not in _towers:
        _towers[(p, e)] = ff.make_tower(p, e)
    return _towers[(p, e)]


_rds = {}


def rd_of(t, kind="sc"):
    if (t, kind) not in _rds:
        _rds[(t, kind)] = rootdata.build(t, kind)
    return _rds[(t, kind)]


def sl2(p):
    return from_root_datum(rd_of("A1"), tower(p))


def unit(L, i):
    v = Mat.zeros(L.level, 1, L.dim)
    v.planes[0, 0, i] = 1
    return v


def test_from_root_datum_a1_gf5():
    L = sl2(5)
    assert L.dim == 3
    h, e, f = unit(L, 0), unit(L, 1), unit(L, 2)
    assert bracket(L, e, h) == e * L.level.element(2)
    assert bracket(L, f, e) == h
    assert bracket(L, e, f) == -h


def test_from_root_datum_a2_gf7():
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(7))
    i1, i2 = rd.simple_indices
    hi = rd.add_roots(i1, i2)
    e1, e2 = unit(L, rd.n + i1), unit(L, rd.n + i2)
    assert bracket(L, e1, e2) == unit(L, rd.n + hi)


def test_from_root_datum_char3_rejected():
    with pytest.raises(InputError):
        from_root_datum(rd_of("A1"), ff.make_tower(3))


def test_bracket_antisymmetry_random():
    L = from_root_datum(rd_of("B2"), tower(5))
    rng = random.Random(0)
    for _ in range(10):
        x = L.random_vector(rng)
        y = L.random_vector(rng)
        assert bracket(L, x, x).is_zero()
        assert bracket(L, x, y) == -bracket(L, y, x)


def test_ad_h_diagonal_on_sl2():
    L = sl2(5)
    A = liealg.ad_matrix(L, unit(L, 0))
    vals = sorted(A.entry(i, i).to_int() for i in range(3))
    assert vals == [0, 2, 3]  # 0, +2, -2 mod 5
    for i in range(3):
        for j in range(3):
            if i != j:
                assert not A.entry(i, j)


@pytest.mark.parametrize("p, e", [(7, 1), (5, 2)])
@pytest.mark.parametrize("k", [0, 1, 2, "d"])
def test_ad_of_k_rows_is_the_block_row_of_single_ads(p, e, k):
    L = from_root_datum(rd_of("A2"), tower(p, e))
    d, m = L.dim, L.level.m
    k = d if k == "d" else k
    rows = Mat.random(L.level, k, d, random.Random(k))
    A = L.ad(rows)
    assert (A.nrows, A.ncols) == (d, k * d)
    singles = [L.ad(rows.row(i)) for i in range(k)]
    assert A == (Mat.hstack(singles) if k else Mat.zeros(L.level, d, 0))
    # on the basis, block j is ad b_j: its row a is [b_a, b_j]
    blocks = L.ad(L.full_space()).planes.reshape(m, d, d, d)
    assert np.array_equal(blocks, L.tensor)


@pytest.mark.parametrize("p, e", [(7, 1), (5, 2)])
@pytest.mark.parametrize("t", ["A2", "B2"])
def test_is_abelian_matches_the_full_bracket_product(t, p, e):
    L = from_root_datum(rd_of(t), tower(p, e))
    d, rng = L.dim, random.Random(f"{t}{p}{e}")
    spans = [Mat.random(L.level, k, d, rng) for k in range(d + 1)
             for _ in range(3)]
    # abelian spans too: the Cartan rows, and multiples of one vector
    spans.append(Mat.identity(L.level, d).take_rows(range(L.rd.l)))
    x = Mat.random(L.level, 1, d, rng)
    spans.append(Mat.vstack([x, x * L.level.element(3)]))
    verdicts = []
    for rows in spans:
        S = Subalgebra(L, rows)
        verdicts.append(S.is_abelian())
        assert verdicts[-1] == (S.basis @ L.ad(S.basis)).is_zero()
    assert True in verdicts and False in verdicts


def test_is_abelian_of_sl2_stops_after_one_row(monkeypatch):
    L = sl2(7)
    rows_bracketed = []
    ad = L.ad
    monkeypatch.setattr(L, "ad", lambda x: rows_bracketed.append(x.nrows)
                        or ad(x))
    assert not Subalgebra(L, L.full_space()).is_abelian()
    assert rows_bracketed == [1]


def test_from_entries_over_gf3_is_refused():
    # the one characteristic gate: every algebra is built through __init__
    level = ff.make_tower(3).level(1)
    with pytest.raises(InputError, match="characteristic must exceed 3"):
        liealg.LieAlgebraFq.from_entries(level, 3, [(0, 1, 1, 2),
                                                    (1, 0, 1, 1)])


def test_from_entries_rejects_a_triple_index_past_dim():
    level = tower(5).level(1)
    for bad in [(0, 1, 3, 1), (3, 0, 1, 1), (0, -1, 2, 1)]:
        with pytest.raises(InputError, match="outside range"):
            liealg.LieAlgebraFq.from_entries(level, 3, [bad])


def test_center_examples():
    assert center(sl2(5)).dim == 0
    L = from_root_datum(rd_of("A4"), tower(5))
    assert center(L).dim == 1  # p = 5 divides rank + 1
    L7 = sl2(7)
    assert centralizer(L7, Subalgebra(L7, L7.full_space())).dim \
        == center(L7).dim


def test_p_power_examples():
    L = sl2(5)
    Z = L.center_rows()
    h, e = unit(L, 0), unit(L, 1)
    assert p_power_mod_center(L, h) == h  # Z = 0 here
    assert p_power_mod_center(L, e).is_zero()


def test_p_power_torus_rank2():
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(5))
    x = unit(L, 0) + unit(L, 1)
    assert p_power_mod_center(L, x) == x


def test_is_split_toral_h0_and_ef():
    for p, expect in [(7, False), (5, True)]:
        L = sl2(p)
        H0 = Subalgebra(L, unit(L, 0))
        assert is_split_toral(L, H0)
        x = unit(L, 1) - unit(L, 2)  # e - f
        H = Subalgebra(L, x)
        assert is_split_toral(L, H) is expect


def _split_toral_by_p_power(L, H):
    """The definition: H abelian and b^[q] = b + Z(L) on a basis, the
    q-power being the p-power taken m times."""
    if not H.is_abelian():
        return False
    Z = L.center_rows()
    for i in range(H.dim):
        b = H.basis.row(i)
        diff = p_power_mod_center(L, b, times=L.level.m) - b
        if not diff.is_zero() and (Z.nrows == 0 or not Z.in_row_space(diff)):
            return False
    return True


def _toral_candidates(L, rd, rng):
    """Seeded subspaces, conjugated by one inner automorphism: the split
    Cartan, random level multiples of Cartan combinations, sl2 elements
    e_a - t e_-a with t a square and a nonsquare, root vectors, Cartan
    elements plus a root vector, and random vectors."""
    level, n = L.level, rd.n
    g = random_inner_automorphism(L, rd, rng, word_length=4)
    square, nonsquare = level.one, next(
        t for t in level.elements() if t and t ** ((level.order - 1) // 2)
        != level.one)

    def elt():
        return level.element(rng.randrange(1, level.order))

    def cartan():
        return sum((unit(L, i) * elt() for i in range(n)),
                   Mat.zeros(level, 1, L.dim))

    out = [Mat.vstack([unit(L, i) for i in range(n)])]
    for _ in range(4):
        out.append(cartan())
        r = rng.randrange(rd.num_roots)
        for t in (square, nonsquare):
            out.append(unit(L, n + r) - unit(L, n + rd.neg(r)) * t)
        out.append(unit(L, n + r) * elt())
        out.append(cartan() + unit(L, n + r))
        out.append(L.random_vector(rng))
    if n > 1:
        out.append(Mat.vstack([cartan() for _ in range(n - 1)]))
    return [Subalgebra(L, rows @ g) for rows in out]


@pytest.mark.parametrize("t, kind, p, e", [
    ("A1", "sc", 7, 1), ("B2", "sc", 7, 1), ("G2", "sc", 7, 1),
    ("A1", "sc", 5, 2), ("A2", "ad", 5, 2), ("B2", "sc", 5, 2),
    ("A4", "sc", 5, 1)])
def test_is_split_toral_matches_the_p_power_definition(t, kind, p, e):
    rd = rd_of(t, kind)
    L = from_root_datum(rd, tower(p, e))
    if t == "A4":
        assert L.center_rows().nrows == 1
    outcomes = set()
    for H in _toral_candidates(L, rd, random.Random(f"{t}{kind}{p}{e}")):
        want = _split_toral_by_p_power(L, H)
        assert is_split_toral(L, H, expected_dim=H.dim) is want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_is_regular_semisimple_examples():
    L7 = sl2(7)
    assert is_regular_semisimple(L7, unit(L7, 0))
    assert not is_regular_semisimple(L7, unit(L7, 1))  # nilpotent e
    assert is_regular_semisimple(L7, unit(L7, 1) - unit(L7, 2))


def test_regular_h_with_repeated_eigenvalues_is_rss():
    # h with equal values on both simple roots still counts as regular
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(7))
    h = unit(L, 0) + unit(L, 1)
    vals = [sum(rd.root_X[r][i] * (1 if i < 2 else 0) for i in range(2))
            for r in range(rd.num_roots)]
    assert all(v % 7 for v in vals)  # regular: no root vanishes on h
    assert is_regular_semisimple(L, h)


def test_maximal_toral_postcondition_sweep():
    cases = [("A2", 5), ("A2", 7), ("B2", 5), ("B2", 7), ("G2", 5),
             ("G2", 7)]
    runs_per_case = 100 // len(cases) + 1
    for t, p in cases:
        L = from_root_datum(rd_of(t), tower(p))
        for seed in range(runs_per_case):
            H = maximal_toral_subalgebra(L, random.Random(seed))
            assert H.dim == L.rd.n
            assert H.is_abelian()


def test_maximal_toral_on_abelian_algebra():
    # a torus: the 2-dim abelian algebra with zero bracket
    lvl = tower(5).level(1)
    L = liealg.LieAlgebraFq(lvl, np.zeros((1, 2, 2, 2), dtype=np.int64))
    H = maximal_toral_subalgebra(L, random.Random(0))
    assert H.dim == 2


def test_generalized_roots_sl2_split():
    L = sl2(5)
    H = Subalgebra(L, unit(L, 0))
    grs, _ = generalized_roots(L, H)
    keys = sorted(g.key() for g, _ in grs)
    # eigenvalues +-2: factors X - 2 and X + 2
    assert keys == sorted(((((5 - 2), 1),), (((2), 1),)))
    assert all(sub.dim == 1 for _, sub in grs)


def test_generalized_roots_sl2_nonsplit():
    L = sl2(7)
    H = Subalgebra(L, unit(L, 1) - unit(L, 2))
    grs, _ = generalized_roots(L, H)
    assert len(grs) == 1
    f, sub = grs[0]
    assert sub.dim == 2
    assert f.polys[0].degree == 2
    assert [c.to_int() for c in f.polys[0].coeffs()] == [4, 0, 1]  # X^2+4
    assert f_minus(f).key() == f.key()
    assert gr_degree(f) == 2


def test_generalized_root_minus_and_degree():
    L = sl2(5)
    H = Subalgebra(L, unit(L, 0))
    grs, _ = generalized_roots(L, H)
    by_key = {g.key(): g for g, _ in grs}
    xm2 = ((3, 1),)  # X - 2
    xp2 = ((2, 1),)  # X + 2
    assert f_minus(by_key[xm2]).key() == xp2
    assert gr_degree(by_key[xm2]) == 1


def test_degree_one_roots_are_single_lines():
    for t, p in [("A2", 7), ("B2", 5)]:
        L = from_root_datum(rd_of(t), tower(p))
        H = Subalgebra(L, Mat.vstack([unit(L, i) for i in range(L.rd.n)]))
        grs, _ = generalized_roots(L, H)
        for f, sub in grs:
            if gr_degree(f) == 1:
                assert sub.dim == 1


def test_components_simple_and_product():
    L = from_root_datum(rd_of("A2"), tower(7))
    comps = components(L, rng=random.Random(0))
    assert len(comps) == 1 and comps[0].dim == L.dim
    Lp = from_root_datum(rd_of("A1xA1"), tower(7))
    comps = components(Lp, rng=random.Random(0))
    assert sorted(c.dim for c in comps) == [3, 3]
    # pairwise brackets vanish
    a, b = comps
    for i in range(a.dim):
        prods = b.basis @ Lp.ad(a.basis.row(i))
        assert prods.is_zero()


def test_split_toral_sl2_gf7_nonsplit_start():
    L = sl2(7)
    for seed in range(10):
        H = split_maximal_toral_subalgebra(L, rng=random.Random(seed))
        assert H.dim == 1
        assert is_split_toral(L, H)


@pytest.mark.parametrize("t", ["A2", "B2", "G2"])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_split_toral_postcondition_sweep(t, p):
    L = from_root_datum(rd_of(t), tower(p))
    for seed in range(8):
        H = split_maximal_toral_subalgebra(L, rng=random.Random(seed))
        assert H.dim == L.rd.n
        assert is_split_toral(L, H)


def _mixed_sl2_cubed():
    """sl2^3 over GF(7) in a basis whose first three rows span the
    nonsplit toral span{e_k - f_k}, each row x_1 +- x_2 +- x_3: every root
    pair then has the generalized root (X^2 + 4)^3, one self-negative
    degree-2 block of six dimensions whose closure is the whole algebra."""
    rd = rd_of("A1xA1xA1")
    L0 = from_root_datum(rd, tower(7))
    x = [unit(L0, rd.n + i) - unit(L0, rd.n + rd.neg(i))
         for i in rd.simple_indices]
    ys = [x[0] + x[1] + x[2], x[0] - x[1] + x[2], x[0] + x[1] - x[2]]
    es = [unit(L0, rd.n + i) for i in rd.simple_indices]
    hs = [unit(L0, i) for i in range(rd.n)]
    return scramble_basis(L0, Mat.vstack(ys + es + hs))


@pytest.mark.parametrize("r", [1, 3])
def test_split_search_makes_one_toral_draw_per_split_draw(monkeypatch, r):
    # a draw that runs out of budget anywhere, in the toral search or in
    # the k_2 factorization of the fallback, is one draw: the search makes
    # exactly max(12, ceil(8 r log(r + 1))) of them, then gives up
    L = sl2(7) if r == 1 else _mixed_sl2_cubed()
    assert liealg._rank(L) == r
    draws, k2_fails = [], []
    factor = liealg.factor

    def toral(M, rng):
        draws.append(M)
        if r == 1 or len(draws) % 2:
            raise BudgetExhausted("no toral draw")
        return Subalgebra(M, Mat.identity(M.level, M.dim).take_rows(
            range(3)))

    def factor_k2(f, rng):
        if f.level.r > 1:
            k2_fails.append(f)
            raise BudgetExhausted("no factorization over k_2")
        return factor(f, rng)

    monkeypatch.setattr(liealg, "maximal_toral_subalgebra", toral)
    monkeypatch.setattr(liealg, "factor", factor_k2)
    with pytest.raises(BudgetExhausted, match="exhausted its budget"):
        split_maximal_toral_subalgebra(L, rng=random.Random(0))
    budget = max(12, math.ceil(8 * r * math.log(r + 1)))
    assert len(draws) == budget == (12 if r == 1 else 34)
    assert len(k2_fails) == (0 if r == 1 else len(draws) // 2)


def test_root_decomposition_sl2():
    L = sl2(5)
    H = Subalgebra(L, unit(L, 0))
    lines = root_decomposition(L, H)
    vals = sorted(w[0].to_int() for w in lines)
    assert vals == [2, 3]
    assert all(W.nrows == 1 for W in lines.values())


def test_root_decomposition_counts_a2():
    L = from_root_datum(rd_of("A2"), tower(7))
    H = Subalgebra(L, Mat.vstack([unit(L, 0), unit(L, 1)]))
    lines = root_decomposition(L, H)
    assert len(lines) == 6
    for w in lines:
        assert any(w)


def test_root_decomposition_refuses_a_nilpotent_h():
    # span{e} is abelian, but ad e is nilpotent: its one weight is 0, and
    # that weight space is all of L rather than H
    L = sl2(5)
    e = unit(L, 1)
    assert Subalgebra(L, e).is_abelian() and (L.ad(e) ** 3).is_zero()
    # without its root datum no root count is there to catch it
    bare = liealg.LieAlgebraFq(L.level, L.tensor, check="none")
    for M in (L, bare):
        with pytest.raises(VerificationError):
            root_decomposition(M, Subalgebra(M, e))


def test_root_decomposition_refuses_a_nonsplit_h():
    # ad(e - f) on sl2(GF(7)) has the irreducible factor X^2 + 4
    L = sl2(7)
    with pytest.raises(InputError, match="not split"):
        root_decomposition(L, Subalgebra(L, unit(L, 1) - unit(L, 2)))


def test_restricted_algebra_needs_a_closed_subspace():
    L = sl2(5)
    h, e, f = unit(L, 0), unit(L, 1), unit(L, 2)
    borel = Subalgebra(L, Mat.vstack([h, e])).restricted_algebra()
    assert borel.dim == 2 and borel.tensor.any()
    with pytest.raises(InputError):
        Subalgebra(L, Mat.vstack([e, f])).restricted_algebra()


def test_chevalley_fixed_point():
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(7))
    basis = standard_chevalley_basis(L, rd, random.Random(1))
    ok, witness = verify_chevalley_basis(L, rd, basis)
    assert ok, witness


def test_chevalley_roundtrip_general_scramble():
    # a random invertible change of basis genuinely changes the tensor
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(7))
    rng = random.Random(5)
    while True:
        P = Mat.random(L.level, L.dim, L.dim, rng)
        if P.try_inverse() is not None:
            break
    Ls = scramble_basis(L, P)
    assert not (Ls.tensor == L.tensor).all()
    basis = standard_chevalley_basis(Ls, rd, random.Random(7))
    ok, witness = verify_chevalley_basis(Ls, rd, basis)
    assert ok, witness


def test_chevalley_rejects_wrong_datum():
    from langchev.errors import RecognitionError
    L = from_root_datum(rd_of("A2"), tower(7))
    with pytest.raises(RecognitionError):
        standard_chevalley_basis(L, rd_of("B2"), random.Random(0))


def test_verify_witness_on_negated_vector():
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(7))
    basis = standard_chevalley_basis(L, rd, random.Random(1))
    xi = next(iter(rd.extraspecial))
    bad = basis.e.copy()
    bad.planes[:, xi, :] = (-bad.planes[:, xi, :]) % 7
    broken = liealg.ChevalleyBasisFq(L, rd, basis.h, bad)
    ok, witness = verify_chevalley_basis(L, rd, broken)
    assert not ok
    assert "extraspecial" in witness


def test_verify_allows_simple_rescale():
    # scaling e_a by t and e_-a by 1/t preserves the coroot bracket
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(7))
    basis = standard_chevalley_basis(L, rd, random.Random(1))
    j = rd.simple_indices[0]
    t = L.level.element(3)
    scaled = basis.e.copy()
    e = Mat(L.level, scaled.planes[:, j:j + 1, :].copy()) * t
    f = Mat(L.level, scaled.planes[:, rd.neg(j):rd.neg(j) + 1, :].copy()) \
        * t.inverse()
    scaled.planes[:, j, :] = e.planes[:, 0, :]
    scaled.planes[:, rd.neg(j), :] = f.planes[:, 0, :]
    # rebuild the nonsimple vectors so the extraspecial relations track
    rebuilt = liealg.ChevalleyBasisFq(L, rd, basis.h, scaled)
    ok, witness = verify_chevalley_basis(L, rd, rebuilt)
    # the coroot bracket for the rescaled simple pair must still hold
    got = bracket(L, Mat(L.level, scaled.planes[:, rd.neg(j):rd.neg(j) + 1,
                                                :].copy()),
                  Mat(L.level, scaled.planes[:, j:j + 1, :].copy()))
    want = Mat.zeros(L.level, 1, L.dim)
    for i in range(rd.n):
        want = want + basis.h.row(i) * L.level.element(
            rd.coroot_Y[j][i] % 7)
    assert got == want


def _verify_by_brackets(L, rd, basis):
    """Reference verifier: one bracket per relation, in the order and with
    the witnesses of verify_chevalley_basis."""
    level = L.level
    n = rd.n
    h, e = basis.h, basis.e
    if basis.stacked().row_space().nrows != L.dim:
        return False, "candidate basis does not span the algebra"

    def expect_h(ridx):
        out = Mat.zeros(level, 1, L.dim)
        for i in range(n):
            out = out + h.row(i) * level.element(
                rd.coroot_Y[ridx][i] % level.p)
        return out

    for j in range(rd.l):
        ridx = rd.simple_indices[j]
        got = bracket(L, e.row(rd.neg(ridx)), e.row(ridx))
        if got != expect_h(ridx):
            return False, f"[e_-a, e_a] != h_a for simple root {j + 1}"
    for xi, (a, b) in rd.extraspecial.items():
        na = rd.structure_constant_by_index(a, b)
        if bracket(L, e.row(a), e.row(b)) != \
                e.row(xi) * level.element(na % level.p):
            return False, f"extraspecial relation fails at root {xi}"
        nneg = rd.structure_constant_by_index(rd.neg(a), rd.neg(b))
        if bracket(L, e.row(rd.neg(a)), e.row(rd.neg(b))) != \
                e.row(rd.neg(xi)) * level.element(nneg % level.p):
            return False, f"negative extraspecial relation fails at {xi}"

    for i in range(n):
        for j in range(n):
            if not bracket(L, h.row(i), h.row(j)).is_zero():
                return False, f"[h_{i + 1}, h_{j + 1}] != 0"
    for r in range(rd.num_roots):
        for i in range(n):
            want = e.row(r) * level.element(rd.root_X[r][i] % level.p)
            if bracket(L, e.row(r), h.row(i)) != want:
                return False, f"[e_{r}, h_{i + 1}] mismatch"
        got = bracket(L, e.row(rd.neg(r)), e.row(r))
        if got != expect_h(r):
            return False, f"[e_-r, e_r] mismatch at root {r}"
        for s in range(rd.num_roots):
            if s == rd.neg(r):
                continue
            t = rd.add_roots(r, s)
            got = bracket(L, e.row(r), e.row(s))
            if t is None:
                if not got.is_zero():
                    return False, f"[e_{r}, e_{s}] should vanish"
            else:
                want = e.row(t) * level.element(
                    rd.structure_constant_by_index(r, s) % level.p)
                if got != want:
                    return False, f"[e_{r}, e_{s}] != N e at pair ({r},{s})"
    return True, None


def _perturbed_candidates(planes, n, p, rng):
    """(name, planes) pairs: the candidate itself and row-operation
    corruptions of it, three random draws of each kind."""
    d = planes.shape[1]
    out = [("unchanged", planes)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        a, b = rng.sample(range(n, d), 2)
        h = rng.randrange(n)
        neg = planes.copy()
        neg[:, i] = (-neg[:, i]) % p
        swap = planes.copy()
        swap[:, [a, b]] = swap[:, [b, a]]
        scale = planes.copy()
        scale[:, h] = (2 * scale[:, h]) % p
        add = planes.copy()
        add[:, i] = (add[:, i] + add[:, j]) % p
        out += [(f"negate {i}", neg), (f"swap {a} {b}", swap),
                (f"scale h {h}", scale), (f"add {j} to {i}", add)]
    singular = planes.copy()
    singular[:, 0] = singular[:, n]
    out.append(("singular", singular))
    return out


@pytest.mark.parametrize("t,p,e,r", [
    ("A2", 5, 1, 1), ("A2", 7, 1, 1), ("B2", 5, 1, 1), ("B2", 7, 1, 1),
    ("G2", 5, 1, 1), ("G2", 7, 1, 1), ("B3", 5, 1, 1), ("B3", 7, 1, 1),
    ("A2", 5, 2, 1), ("A2", 5, 1, 2),
])
def test_verify_matches_bracket_oracle(t, p, e, r):
    # in Ls = scramble_basis(L, P) the standard basis of L has coordinates
    # P^-1, so the rows of P^-1 are a Chevalley basis of Ls
    rd = rd_of(t)
    L = from_root_datum(rd, tower(p, e), r, check="none")
    assert L.level.m == e * r
    rng = random.Random(f"{t}:{p}:{e}:{r}")
    while True:
        P = Mat.random(L.level, L.dim, L.dim, rng)
        if P.try_inverse() is not None:
            break
    Ls = scramble_basis(L, P)
    good = P.inverse().planes
    n = rd.n
    verdicts = []
    for name, planes in _perturbed_candidates(good, n, p, rng):
        cand = liealg.ChevalleyBasisFq(
            Ls, rd, Mat(L.level, planes[:, :n].copy()),
            Mat(L.level, planes[:, n:].copy()))
        got = verify_chevalley_basis(Ls, rd, cand)
        assert got == _verify_by_brackets(Ls, rd, cand), name
        verdicts.append((name, got))
    assert verdicts[0] == ("unchanged", (True, None))
    assert verdicts[-1] == ("singular", (
        False, "candidate basis does not span the algebra"))
    assert not any(ok for _, (ok, _w) in verdicts[1:])


@pytest.mark.parametrize("t,p,e,r", [
    ("A2", 5, 1, 1), ("B2", 7, 1, 1), ("G2", 5, 1, 1), ("B3", 7, 1, 1),
    ("A2", 5, 1, 2),
])
def test_verify_matches_bracket_oracle_on_corrupted_tensor(t, p, e, r):
    # one corrupted structure constant of the standard algebra fails one
    # slice [b_i, b_j], so the full grid's witnesses are reached too; the
    # slices [h_i, e_r] are not checked and leave the verdict True
    rd = rd_of(t)
    L = from_root_datum(rd, tower(p, e), r, check="none")
    n, N = rd.n, rd.num_roots
    rng = random.Random(f"{t}:{p}:{e}:{r}")
    root = rng.randrange(N)
    slices = [(rng.randrange(n), rng.randrange(n)),
              (n + rng.randrange(N), rng.randrange(n)),
              (rng.randrange(n), n + rng.randrange(N)),
              (n + rd.neg(root), n + root)]
    slices += [(rng.randrange(L.dim), rng.randrange(L.dim))
               for _ in range(8)]
    ident = Mat.identity(L.level, L.dim)
    for i, j in slices:
        planes = L.tensor.copy()
        k = rng.randrange(L.dim)
        planes[0, i, j, k] = (planes[0, i, j, k] + 1) % p
        Lc = liealg.LieAlgebraFq(L.level, planes, check="none")
        cand = liealg.ChevalleyBasisFq(
            Lc, rd, ident.take_rows(range(n)),
            ident.take_rows(range(n, L.dim)))
        got = verify_chevalley_basis(Lc, rd, cand)
        assert got == _verify_by_brackets(Lc, rd, cand), (i, j, k)


def test_random_inner_automorphism_properties():
    rd = rd_of("A1")
    L = from_root_datum(rd, tower(7))
    g0 = random_inner_automorphism(L, rd, random.Random(0), word_length=0)
    assert g0 == Mat.identity(L.level, L.dim)
    g = random_inner_automorphism(L, rd, random.Random(3), word_length=4)
    assert g.try_inverse() is not None
    # bracket preservation on all basis pairs
    for i in range(L.dim):
        for j in range(L.dim):
            lhs = bracket(L, unit(L, i) @ g, unit(L, j) @ g)
            rhs = bracket(L, unit(L, i), unit(L, j)) @ g
            assert lhs == rhs


def test_inner_scramble_leaves_tensor_invariant():
    # inner automorphisms transport the bracket to the same constants
    rd = rd_of("B2")
    L = from_root_datum(rd, tower(5))
    g = random_inner_automorphism(L, rd, random.Random(9), word_length=5)
    Ls = scramble_basis(L, g)
    assert (Ls.tensor == L.tensor).all()


def test_jacobi_check_rejects_bad_tensor():
    lvl = tower(5).level(1)
    planes = np.zeros((1, 3, 3, 3), dtype=np.int64)
    # [b0,b1] = b0 and [b0,b2] = b2 with [b1,b2] = 0 violates Jacobi:
    # the cyclic sum on (b0,b1,b2) comes out to b2
    planes[0, 0, 1, 0] = 1
    planes[0, 1, 0, 0] = 4
    planes[0, 0, 2, 2] = 1
    planes[0, 2, 0, 2] = 4
    with pytest.raises(InputError):
        liealg.LieAlgebraFq(lvl, planes)


def _jacobi_dense(T, level):
    """Oracle: every cyclic sum of T[i,j,n] T[n,k,l], formed densely as a
    (2m-1, d, d, d, d) array of plane products and folded by
    `Level.powers`."""
    m, d, p = level.m, T.shape[1], level.p
    acc = np.zeros((2 * m - 1, d, d, d, d), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            prod = np.tensordot(T[a], T[b], axes=([2], [0])) % p
            acc[a + b] += (prod + prod.transpose(1, 2, 0, 3)
                           + prod.transpose(2, 0, 1, 3))
            acc[a + b] %= p
    return not (np.einsum("k...,kc->c...", acc, level.powers) % p).any()


def _jacobi_verdict(T, level):
    try:
        liealg.LieAlgebraFq(level, T)
    except InputError:
        return False
    return True


def _corruptions(T, level, rng, count=6):
    """Tensors that differ from T in one antisymmetric pair of constants,
    half of them at a zero of T, so that only the Jacobi check decides."""
    m, d, p = level.m, T.shape[1], level.p
    nz = list(zip(*np.nonzero(T.any(axis=0))))
    out = []
    for c in range(count):
        if c % 2 and nz:
            i, j, k = nz[rng.randrange(len(nz))]
        else:
            i, j = rng.sample(range(d), 2)
            k = rng.randrange(d)
        bad = T.copy()
        bad[rng.randrange(m), i, j, k] += rng.randrange(1, p)
        bad[:, i, j, k] %= p
        bad[:, j, i, k] = -bad[:, i, j, k] % p
        out.append(bad)
    return out


ORACLE_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (5, 2)])
@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_jacobi_matches_dense_oracle(t, p, e):
    L = from_root_datum(rd_of(t), tower(p, e), check="none")
    assert _jacobi_dense(L.tensor, L.level)
    assert _jacobi_verdict(L.tensor, L.level)
    rng = random.Random(f"{t}:{p}:{e}")
    for bad in _corruptions(L.tensor, L.level, rng):
        assert _jacobi_verdict(bad, L.level) == \
            _jacobi_dense(bad, L.level), t


def test_jacobi_dense_scramble_matches_oracle(monkeypatch):
    L = from_root_datum(rd_of("B3"), tower(7), check="none")
    rng = random.Random(3)
    while True:
        P = Mat.random(L.level, L.dim, L.dim, rng)
        if P.try_inverse() is not None:
            break
    T = scramble_basis(L, P).tensor
    assert np.count_nonzero(T) > L.dim ** 3 // 2
    # a dense tensor takes the slab route: the join would form ~d^5 products
    monkeypatch.setattr(liealg, "_jacobi_join", None)
    assert _jacobi_dense(T, L.level)
    assert _jacobi_verdict(T, L.level)
    for bad in _corruptions(T, L.level, rng, count=4):
        assert not _jacobi_dense(bad, L.level)
        assert not _jacobi_verdict(bad, L.level)


def test_jacobi_rejects_corruption_beyond_60():
    L = from_root_datum(rd_of("E7"), tower(11), check="none")
    assert L.dim == 133
    T = L.tensor.copy()
    # [e_a, e_b] for two roots whose sum is no root: make it nonzero
    rd = L.rd
    a, b = next((r, s) for r in range(rd.num_roots)
                for s in range(rd.num_roots)
                if s not in (r, rd.neg(r)) and rd.add_roots(r, s) is None)
    i, j = rd.n + a, rd.n + b
    T[0, i, j, 0], T[0, j, i, 0] = 1, 10
    with pytest.raises(InputError, match="Jacobi"):
        liealg.LieAlgebraFq(L.level, T)
    # and flipping the sign of one nonzero constant
    T = L.tensor.copy()
    i, j, k = np.argwhere(T[0])[len(np.argwhere(T[0])) // 2]
    T[0, i, j, k], T[0, j, i, k] = T[0, j, i, k], T[0, i, j, k]
    with pytest.raises(InputError, match="Jacobi"):
        liealg.LieAlgebraFq(L.level, T)


def test_e7_build_with_checks_is_fast():
    rd, tw = rd_of("E7"), tower(11)
    t0 = time.perf_counter()
    L = from_root_datum(rd, tw)
    elapsed = time.perf_counter() - t0
    assert L.dim == 133
    assert elapsed < 1.0, f"E7/GF(11) checked build took {elapsed:.2f}s"


def test_jacobi_word_size_bound():
    # (p-1)^2 >= 2^63: the check refuses instead of wrapping
    big = 4294967311
    assert ff.is_prime(big)
    with pytest.raises(InputError, match="2\\^63"):
        from_root_datum(rd_of("A1"), ff.make_tower(big))
    # the largest prime with (p-1)^2 < 2^63 still checks exactly
    p = 3037000500
    while not ff.is_prime(p):
        p -= 1
    assert (p - 1) ** 2 < 1 << 63
    L = from_root_datum(rd_of("A1"), ff.make_tower(p))
    assert L.dim == 3


def test_check_values():
    with pytest.raises(InputError):
        from_root_datum(rd_of("A1"), tower(5), check="sample")


def test_k2_root_pair_machinery():
    # exercise the deg-2 fallback directly: sl2(GF(7)) with the nonsplit
    # toral span{e-f} has the self-negative block (X^2+4); the k_2 root
    # pair recovers the k-form of L_alpha + L_-alpha, which here is the
    # span of {e, f}
    L = sl2(7)
    x = unit(L, 1) - unit(L, 2)
    H = Subalgebra(L, x)
    Q = liealg.CentralQuotient(L, L.center_rows())
    grs, _ = generalized_roots(L, H, quotient=Q)
    f, Lf = grs[0]
    assert gr_degree(f) == 2 and f_minus(f).key() == f.key()
    Hq = Q.project(H.basis).row_space()
    rows = liealg._k2_root_pair(L, Q, Hq, Q.project(Lf.basis),
                                random.Random(0))
    assert rows.nrows == 2
    lifted = Q.lift(rows)
    # the block is a single +-alpha pair, so the recovered k-form must be
    # the block itself (here span{h, e+f}, the ad(e-f) eigenplane)
    assert lifted.row_space() == Lf.basis


def _refine_by_kernels(W, ads, rng):
    """The loop _refine ran before: each factor's part is the left kernel
    of g(A|S)^mult, carried back through S."""
    parts = [((), W)]
    for A in ads:
        fresh = []
        for label, S in parts:
            Ar = S.solve_left(S @ A)
            for g, mult in linalg.factor(Ar.charpoly(), rng):
                ker = (g.eval_mat(Ar) ** mult).left_kernel()
                if ker.nrows:
                    fresh.append((label + (g,), (ker @ S).row_space()))
        parts = fresh
    return parts


def _conjugated_blocks(level, blocks, rng):
    """(P, spans, J, D) for blocks of (kind, data, label): J is
    block-diagonal, a "jordan" block (eigenvalue index, size) being
    lambda I + N and a "companion" block (coefficient indices c_0 .. c_(k-1),
    low degree first) the companion matrix of X^k + sum c_i X^i; D is
    constant, the element of index label, on each block, so it commutes
    with J.  Both come conjugated by a random invertible P, so the rows of
    P over a union of spans (not in echelon form) are invariant under
    both."""
    d = sum(data[1] if kind == "jordan" else len(data)
            for kind, data, _ in blocks)
    J = [[0] * d for _ in range(d)]
    D = [[0] * d for _ in range(d)]
    spans, at = [], 0
    for kind, data, label in blocks:
        if kind == "jordan":
            lam, size = data
            for i in range(size):
                J[at + i][at + i] = lam
        else:
            size = len(data)
            for i, c in enumerate(data):
                J[at + size - 1][at + i] = -level.element(c)
        for i in range(size - 1):
            J[at + i][at + i + 1] = 1
        for i in range(size):
            D[at + i][at + i] = label
        spans.append(range(at, at + size))
        at += size
    while True:
        P = Mat.random(level, d, d, rng)
        Pinv = P.try_inverse()
        if Pinv is not None:
            break
    return (P, spans, Pinv @ Mat.from_entries(level, J) @ P,
            Pinv @ Mat.from_entries(level, D) @ P)


def _check_refine(level, blocks, keep, order, seed):
    """_refine against the kernel oracle on the rows of P over the kept
    blocks, under J and D in the given order: the same labels, parts and
    draws."""
    rng = random.Random(seed)
    P, spans, J, D = _conjugated_blocks(level, blocks, rng)
    W = P.take_rows([i for b in sorted(keep) for i in spans[b]])
    ads = [{"J": J, "D": D}[c] for c in order]
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = liealg._refine(W, ads, got_rng)
    want = _refine_by_kernels(W, ads, want_rng)
    assert [lab for lab, _ in got] == [lab for lab, _ in want]
    assert [S for _, S in got] == [S for _, S in want]
    assert got_rng.getstate() == want_rng.getstate()
    assert sum(S.nrows for _, S in got) == W.nrows
    return got


@pytest.mark.parametrize("p,e", [(7, 1), (5, 2)])
@pytest.mark.parametrize("blocks,keep,order", [
    # one 1 x 1 part
    ([("jordan", (3, 1), 0)], {0}, "J"),
    # one factor with a nontrivial Jordan block, kept whole
    ([("jordan", (2, 3), 0)], {0}, "JD"),
    # (X - 1)^3 over two Jordan blocks beside (X - 2)^2
    ([("jordan", (1, 2), 0), ("jordan", (2, 2), 1), ("jordan", (1, 1), 2)],
     {0, 1, 2}, "J"),
    # a repeated companion block, split apart by D afterwards
    ([("companion", [3, 0], 0), ("companion", [3, 0], 1),
      ("jordan", (4, 2), 1)], {0, 1, 2}, "JD"),
    # D first: block-scalar parts, each then cut by J
    ([("jordan", (0, 2), 0), ("companion", [1, 1, 0], 1),
      ("jordan", (0, 1), 1), ("jordan", (5, 1), 2)], {0, 1, 3}, "DJ"),
    # four distinct factors: prefix and suffix products
    ([("jordan", (1, 1), 0), ("jordan", (2, 2), 0), ("jordan", (3, 1), 0),
      ("companion", [3, 0], 0)], {0, 1, 2, 3}, "J"),
])
def test_refine_matches_kernel_oracle(p, e, blocks, keep, order):
    level = tower(p, e).level(1)
    for seed in range(3):
        _check_refine(level, blocks, keep, order, seed)


@st.composite
def _refine_case(draw):
    """Up to four blocks whose eigenvalues and companion coefficients come
    from a few indices, so factors repeat across blocks; a nonempty set of
    blocks spanning W; the order of J and D."""
    p, e = draw(st.sampled_from([(7, 1), (5, 2)]))
    small = st.integers(0, 3)
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            data = (draw(small), draw(st.integers(1, 3)))
            blocks.append(("jordan", data, draw(st.integers(0, 2))))
        else:
            data = draw(st.lists(small, min_size=1, max_size=3))
            blocks.append(("companion", data, draw(st.integers(0, 2))))
    keep = draw(st.sets(st.integers(0, len(blocks) - 1), min_size=1))
    order = draw(st.sampled_from(["J", "JD", "DJ"]))
    return p, e, blocks, keep, order, draw(st.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_refine_case())
def test_refine_matches_kernel_oracle_on_random_blocks(case):
    p, e, blocks, keep, order, seed = case
    _check_refine(tower(p, e).level(1), blocks, keep, order, seed)


def test_refine_matches_kernel_oracle_on_the_k2_fallback_inputs():
    # the block _k2_root_pair refines over k_2: a quotient projection of a
    # subalgebra basis, not in echelon form
    L = sl2(7)
    H = Subalgebra(L, unit(L, 1) - unit(L, 2))
    Q = liealg.CentralQuotient(L, L.center_rows())
    grs, _ = generalized_roots(L, H, quotient=Q)
    Hq = Q.project(H.basis).row_space()
    Wq = Q.project(grs[0][1].basis)
    r2 = L.level.tower.extend(2)
    W = Wq.embed(r2)
    ads = liealg._blocks(Q.algebra().embed(r2).ad(Hq.embed(r2)), Hq.nrows)
    got = liealg._refine(W, ads, random.Random(0))
    assert got == _refine_by_kernels(W, ads, random.Random(0))
    assert [S.nrows for _, S in got] == [1, 1]


@pytest.mark.parametrize("blocks,first_mult", [
    ([("jordan", (3, 2), 0)], 2),                       # one factor
    ([("jordan", (2, 2), 0), ("jordan", (1, 1), 0)], 2),  # two factors
])
@pytest.mark.parametrize("delta", [1, -1])
def test_refine_refuses_a_wrong_multiplicity(monkeypatch, blocks,
                                             first_mult, delta):
    level = tower(7).level(1)
    P, spans, J, _ = _conjugated_blocks(level, blocks, random.Random(1))
    real = linalg.factor

    def wrong(f, rng):
        (g, mult), *rest = real(f, rng)
        assert mult == first_mult
        return [(g, mult + delta)] + rest

    monkeypatch.setattr(liealg, "factor", wrong)
    with pytest.raises(VerificationError, match="dimension"):
        liealg._refine(P, [J], random.Random(0))


def test_reference_planes_built_once_and_read_only(monkeypatch):
    rd = rd_of("B2")
    planes = liealg._reference_planes(rd, 7, 2)
    assert not planes.flags.writeable
    with pytest.raises(ValueError):
        planes[0, 0, 0, 0] = 1
    assert liealg._reference_planes(rd, 7, 2) is planes
    L = from_root_datum(rd, tower(7, 2))
    assert L.tensor.flags.writeable and L.tensor.dtype == np.int64
    assert np.array_equal(L.tensor, planes) and not planes[1:].any()
    basis = standard_chevalley_basis(L, rd, random.Random(1))

    def rebuilt(*args):
        raise AssertionError("reference tensor rebuilt")

    monkeypatch.setattr(rd, "structure_constant_by_index", rebuilt)
    for _ in range(2):
        assert verify_chevalley_basis(L, rd, basis) == (True, None)


def test_descend_roundtrip():
    t = tower(5)
    t.extend(2)
    lvl1, lvl2 = t.level(1), t.level(2)
    rng = random.Random(4)
    M = Mat.random(lvl1, 2, 3, rng)
    up = M.embed(2)
    down = linalg._descend(up, lvl1)
    assert down == M
    # an element outside the base level cannot descend
    up.planes[:, 0, 0] = lvl2.element([0, 1]).coeffs
    assert linalg._descend(up, lvl1) is None


def test_p_power_on_recovered_basis():
    # p-map values on any standard Chevalley basis: h_i -> h_i + Z and
    # e_alpha -> 0 + Z
    rd = rd_of("A2")
    L = from_root_datum(rd, tower(5))
    basis = standard_chevalley_basis(L, rd, random.Random(2))
    Z = L.center_rows()

    def mod_center_zero(v):
        return v.is_zero() or (Z.nrows > 0 and Z.in_row_space(v))

    for i in range(rd.n):
        h = basis.h.row(i)
        assert mod_center_zero(p_power_mod_center(L, h) - h)
    for r in range(rd.num_roots):
        e = basis.e.row(r)
        assert mod_center_zero(p_power_mod_center(L, e))


def _descend_per_entry(rows, level):
    """The descent _descend ran before: row-reduce [emb | I] on every call,
    then solve one entry at a time."""
    emb = rows.level.embed_from[level.r] % level.p
    p = level.p
    m_src, m_dst = emb.shape
    aug = np.concatenate([emb, np.eye(m_src, dtype=np.int64)], axis=1) % p
    r = 0
    pivots = []
    for c in range(m_dst):
        nz = [i for i in range(r, m_src) if aug[i, c] % p]
        if not nz:
            continue
        aug[[r, nz[0]]] = aug[[nz[0], r]]
        inv = pow(int(aug[r, c]), p - 2, p)
        aug[r] = aug[r] * inv % p
        for i in range(m_src):
            if i != r and aug[i, c] % p:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % p
        pivots.append(c)
        r += 1
    body = aug[:r, :m_dst]
    tail = aug[:r, m_dst:]
    out = np.zeros((level.m, rows.nrows, rows.ncols), dtype=np.int64)
    for i in range(rows.nrows):
        for j in range(rows.ncols):
            target = rows.planes[:, i, j] % p
            coeff = target[pivots]
            if ((coeff @ body) % p != target).any():
                return None
            out[:, i, j] = coeff @ tail % p
    return Mat(level, out)


@pytest.mark.parametrize("p, e, lo, hi", [
    (5, 1, 1, 4), (7, 2, 1, 3), (3, 1, 2, 6), (2, 2, 2, 4)])
def test_descend_matches_per_entry_oracle(p, e, lo, hi):
    t = ff.make_tower(p, e)
    t.extend(lo)
    t.extend(hi)
    low, high = t.level(lo), t.level(hi)
    rng = random.Random(p * 10 + hi)
    for shape in [(1, 1), (2, 3), (4, 1), (3, 5)]:
        M = Mat.random(low, *shape, rng)
        up = M.embed(hi)
        got = linalg._descend(up, low)
        assert got == M == _descend_per_entry(up, low)
        # one entry moved off the image by adding the generator zeta of the
        # high level, which lies in no proper subfield: neither descends
        bad = up.copy()
        i, j = rng.randrange(shape[0]), rng.randrange(shape[1])
        bad.planes[1, i, j] = (bad.planes[1, i, j] + 1) % p
        assert _descend_per_entry(bad, low) is None
        assert linalg._descend(bad, low) is None
        # random rows over the high level rarely descend; agree either way
        R = Mat.random(high, *shape, rng)
        want = _descend_per_entry(R, low)
        got = linalg._descend(R, low)
        assert (got is None) if want is None else (got == want)
    # the reduced system is made once per (level, lower level) pair
    solver = high._descents[lo]
    linalg._descend(M.embed(hi), low)
    assert high._descents[lo] is solver


def test_descent_solver_published_whole_to_concurrent_readers():
    t = ff.make_tower(7, 2)
    t.extend(3)
    low, high = t.level(1), t.level(3)
    M = Mat.random(low, 3, 4, random.Random(8))
    up = M.embed(3)
    results, solvers = [], []
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=10)
        solvers.append(linalg._descent_solver(high, low))
        results.append(linalg._descend(up, low))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 8 and all(r == M for r in results)
    assert len(solvers) == 8
    assert all(s is high._descents[1] for s in solvers)
