import itertools
import random

import pytest

from langchev import ff, lang
from langchev.errors import BudgetExhausted, InputError
from langchev.lang import (
    BilinearFormFq, LangInstance, Mat, canonical_gram, f_eigenspace_det,
    f_eigenspace_lv, min_field_degree, norm_and_order, normal_basis,
    random_instance, solve, solve_gl, solve_sl, solve_so, solve_sp,
    solve_torus, verify,
)

_towers = {}


def tower(p, e=1):
    if (p, e) not in _towers:
        _towers[(p, e)] = ff.make_tower(p, e)
    return _towers[(p, e)]


def test_min_field_degree():
    t = tower(3)
    t.extend(2)
    g = Mat.identity(t.level(1), 2)
    assert min_field_degree(t, g) == 1
    zeta = t.element(2, [0, 1])
    gz = Mat.diagonal(t.level(2), [zeta])
    assert min_field_degree(t, gz) == 2
    gz1 = Mat.diagonal(t.level(2), [t.level(2).scalar(2)])
    assert min_field_degree(t, gz1) == 1  # embedded base element


def test_norm_and_order_examples():
    t = tower(3)
    c = Mat.diagonal(t.level(1), [2])
    N, s = norm_and_order(t, c)
    assert N == c and s == 2
    ident = Mat.identity(t.level(1), 3)
    N, s = norm_and_order(t, ident)
    assert s == 1
    t.extend(2)
    zeta = t.element(2, [0, 1])  # zeta^2 = 2, order 4
    czeta = Mat.diagonal(t.level(2), [zeta])
    N, s = norm_and_order(t, czeta)
    assert N == Mat.identity(t.level(2), 1)  # zeta^3 * zeta = zeta^4 = 1
    assert s == 1


def test_f_eigenspace_det_identity():
    t = tower(5)
    inst = LangInstance(kind="GL", tower=t,
                        c=Mat.identity(t.level(1), 3))
    E = f_eigenspace_det(inst)
    assert E.nrows == 3
    assert E.row_space() == Mat.identity(t.level(1), 3).row_space()


def test_f_eigenspace_det_gl1_gf3():
    t = tower(3)
    inst = LangInstance(kind="GL", tower=t, c=Mat.diagonal(t.level(1), [2]))
    assert inst.r == 1 and inst.s == 2
    E = f_eigenspace_det(inst)
    v = E.entry(0, 0)  # v^3 * 2 = v, i.e. v^2 = 2
    assert v * v == v.level.scalar(2)


def test_f_eigenspace_dims_random():
    rng = random.Random(7)
    for q, e, d, t_level in [(3, 1, 2, 2), (5, 1, 3, 2), (9, 2, 2, 2)]:
        t = tower(q if e == 1 else 3, e) if q == 9 else tower(q, e)
        for _ in range(5):
            inst = random_instance(t, "GL", d, t_level, rng, max_rs=4)
            if inst is None:
                continue
            E = f_eigenspace_det(inst)
            assert E.nrows == d


def test_lv_agrees_with_det():
    rng = random.Random(13)
    t = tower(5)
    checked = 0
    while checked < 8:
        inst = random_instance(t, "GL", 2, 2, rng, max_rs=4)
        if inst is None:
            continue
        E1 = f_eigenspace_det(inst)
        basis, _ = f_eigenspace_lv(inst.c, inst.rs, rng)
        # identical k-row-spaces: compare over k via relative coordinates
        assert _k_row_space(t, E1) == _k_row_space(t, basis)
        checked += 1


def _k_row_space(t, rows):
    level1 = t.level(1)
    out = []
    for i in range(rows.nrows):
        krow = []
        for j in range(rows.ncols):
            krow.extend(lang._relative_coords(t, rows.entry(i, j)))
        out.append(krow)
    return Mat.from_entries(level1, out).row_space()


def test_solve_gl1_gf3_exhaustive_oracle():
    t = tower(3)
    c = Mat.diagonal(t.level(1), [2])
    inst = LangInstance(kind="GL", tower=t, c=c)
    cert = solve_gl(inst, random.Random(0))
    assert cert.ok
    a = cert.a.entry(0, 0)
    assert a * a == a.level.scalar(2)  # a = +-zeta with zeta^2 = 2
    # brute force over GF(9)^x: solutions are exactly the fiber
    lvl2 = t.level(2)
    fiber = [x for x in lvl2.elements()
             if x and x.frobenius(1).inverse() * x == lvl2.scalar(2)]
    assert len(fiber) == 2  # |GL_1(GF(3))| = 2
    assert a in fiber


def test_solve_gl_identity():
    t = tower(5)
    inst = LangInstance(kind="GL", tower=t, c=Mat.identity(t.level(1), 2))
    assert inst.s == 1
    cert = solve_gl(inst, random.Random(1))
    assert cert.ok and cert.level == 1


def test_solve_gl2_gf2_all_c():
    t = tower(2)
    lvl = t.level(1)
    for entries in itertools.product(range(2), repeat=4):
        c = Mat.from_int_rows(lvl, [list(entries[:2]), list(entries[2:])])
        if c.try_inverse() is None:
            continue
        inst = LangInstance(kind="GL", tower=t, c=c)
        cert = solve_gl(inst, random.Random(3))
        assert cert.ok


def test_solve_sl_diag_example():
    t = tower(5)
    c = Mat.diagonal(t.level(1), [2, 3])
    inst = LangInstance(kind="SL", tower=t, c=c)
    assert inst.s == 4  # the matrix order of diag(2, 3) mod 5
    cert = solve_sl(inst, random.Random(5))
    assert cert.ok
    assert cert.a.det() == cert.a.level.one


def test_sl_rejects_bad_det():
    t = tower(5)
    with pytest.raises(InputError):
        LangInstance(kind="SL", tower=t, c=Mat.diagonal(t.level(1), [2]))


def test_normal_basis_symplectic_standard():
    t = tower(5)
    lvl = t.level(1)
    form = BilinearFormFq("symplectic", canonical_gram(lvl, "symplectic", 2))
    rows = normal_basis(Mat.identity(lvl, 2), form)
    B = Mat.vstack(rows)
    gram = B @ form.gram @ B.transpose()
    assert gram == canonical_gram(lvl, "symplectic", 2)


def test_normal_basis_orthogonal_dim2_isotropic():
    # diag(1,1) over GF(5): delta = 2, -delta*(v,v) = 3, and 1 is not in
    # 3 * squares = {3, 2}, so the plane is isotropic: Gram becomes A_2
    t = tower(5)
    lvl = t.level(1)
    form = BilinearFormFq("orthogonal",
                          Mat.diagonal(lvl, [1, 1]))
    rows = normal_basis(Mat.identity(lvl, 2), form)
    B = Mat.vstack(rows)
    gram = B @ form.gram @ B.transpose()
    assert gram == canonical_gram(lvl, "orthogonal", 2, "split")


def test_normal_basis_orthogonal_dim3_split_class():
    # diag(1,1,1) over GF(5): det class of A_3 is -1 = 4, a square, same
    # as det = 1: the split form A_3 results
    t = tower(5)
    lvl = t.level(1)
    form = BilinearFormFq("orthogonal", Mat.diagonal(lvl, [1, 1, 1]))
    rows = normal_basis(Mat.identity(lvl, 3), form)
    B = Mat.vstack(rows)
    gram = B @ form.gram @ B.transpose()
    assert gram == canonical_gram(lvl, "orthogonal", 3, "split")


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_normal_basis_random_orthogonal(p, e, dim):
    t = tower(p, e)
    lvl = t.level(1)
    rng = random.Random(100 * p + 10 * e + dim)
    delta = ff.fixed_nonsquare(lvl)
    for _ in range(4):
        while True:
            A = Mat.random(lvl, dim, dim, rng)
            M = A + A.transpose()
            if M.try_inverse() is not None:
                break
        form = BilinearFormFq("orthogonal", M)
        rows = normal_basis(Mat.identity(lvl, dim), form)
        B = Mat.vstack(rows)
        gram = B @ M @ B.transpose()
        split = canonical_gram(lvl, "orthogonal", dim, "split")
        nonsplit = canonical_gram(lvl, "orthogonal", dim, "nonsplit")
        assert gram in (split, nonsplit)
        # the determinant square class decides which form appears
        det_in = M.det()
        got_split = gram == split
        want_split = ff.is_square(det_in / split.det())
        assert got_split == want_split


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_normal_basis_random_symplectic(dim):
    t = tower(7)
    lvl = t.level(1)
    rng = random.Random(dim)
    for _ in range(4):
        while True:
            A = Mat.random(lvl, dim, dim, rng)
            M = A - A.transpose()
            if M.try_inverse() is not None:
                break
        form = BilinearFormFq("symplectic", M)
        rows = normal_basis(Mat.identity(lvl, dim), form)
        B = Mat.vstack(rows)
        assert B @ M @ B.transpose() == canonical_gram(lvl, "symplectic",
                                                       dim)


def test_solve_sp2_matches_sl2():
    t = tower(5)
    rng = random.Random(17)
    inst_sp = random_instance(t, "Sp", 2, 2, rng, max_rs=4)
    assert inst_sp is not None
    cert = solve_sp(inst_sp, rng)
    assert cert.ok
    # Sp_2 = SL_2: the same c solves as an SL instance too
    inst_sl = LangInstance(kind="SL", tower=t, c=inst_sp.c)
    cert2 = solve_sl(inst_sl, rng)
    assert cert2.ok


def test_solve_so3():
    t = tower(5)
    rng = random.Random(19)
    done = 0
    while done < 3:
        inst = random_instance(t, "SO", 3, 2, rng, max_rs=4)
        if inst is None:
            continue
        cert = solve_so(inst, rng)
        assert cert.ok
        assert cert.checks["form_preserved"] and cert.checks["det_one"]
        done += 1


def test_so_rejects_det_minus_one():
    t = tower(5)
    lvl = t.level(1)
    # reflection: preserves the form but has det -1
    M = canonical_gram(lvl, "orthogonal", 3, "split")
    refl = Mat.diagonal(lvl, [1, 4, 1])
    refl.planes[:, [0, 2], :] = refl.planes[:, [2, 0], :]
    # build an explicit det -1 form-preserving map: swap first/last axes
    g = Mat.zeros(lvl, 3, 3)
    g.planes[0, 0, 2] = 1
    g.planes[0, 1, 1] = 1
    g.planes[0, 2, 0] = 1
    assert g @ M @ g.transpose() == M
    assert g.det() == -lvl.one
    with pytest.raises(InputError):
        LangInstance(kind="SO", tower=t, c=g,
                     form=BilinearFormFq("orthogonal", M))


def test_solve_torus():
    t = tower(3)
    one = t.level(1).one
    cert = solve_torus(LangInstance(kind="Torus", tower=t, c=[one, one]),
                       random.Random(0))
    assert cert.ok
    two = t.level(1).scalar(2)
    cert = solve_torus(LangInstance(kind="Torus", tower=t, c=[two]),
                       random.Random(0))
    assert cert.ok
    a = cert.a[0]
    assert a * a == a.level.scalar(2)
    # componentwise independence: permuting c permutes the solutions' levels
    cert2 = solve_torus(LangInstance(kind="Torus", tower=t, c=[one, two]),
                        random.Random(1))
    assert cert2.ok


def test_solve_torus_components_of_different_degrees():
    # over k_2, zeta has minimum field degree 2 and the scalars 1 and 4
    # have 1: each component descends to its own level k_(r_i s_i) for its
    # eigenspace (here k_1 and k_2) before the solutions meet in k_8
    t = tower(5)
    lvl = t.level(t.extend(2))
    zeta = lvl.element([0, 1])
    for other, a1 in ((1, [3, 0, 0, 0, 0, 0, 0, 0]),
                      (4, [0, 0, 0, 0, 4, 0, 0, 0])):
        inst = LangInstance(kind="Torus", tower=t,
                            c=[zeta, lvl.scalar(other)])
        cert = solve(inst, random.Random(0))
        assert cert.to_json() == {
            "a": [[0, 0, 0, 0, 0, 0, 0, 1], a1], "level": "5^(1*8)",
            "s": 4, "checks": {"invertible": True, "lang_equation": True,
                               "min_field_degree": {"expected": 8,
                                                    "found": 8, "ok": True}},
            "ok": True}


def test_solve_torus_trusts_the_dispatched_instance(monkeypatch):
    t = tower(5)
    lvl = t.level(t.extend(2))
    c = [lvl.element([1, 2]), lvl.element([3, 1])]
    s = LangInstance(kind="Torus", tower=t, c=c, r=2).s
    inst = LangInstance(kind="Torus", tower=t, c=c, r=2, s=s, trust_s=True)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return norm_and_order(*args, **kwargs)

    monkeypatch.setattr(lang, "norm_and_order", counting)
    cert = solve(inst, random.Random(3))
    assert cert.ok and cert.s == s
    # the instance holds each component's level and norm order
    assert len(calls) == 0


def test_torus_s_is_derived_from_the_components():
    # over k_2 of GF(5), w = 2 + zeta has w^6 = 1 and r_1 = 2, so its norm
    # w^(1+5) has s_1 = 1; 2 (order 4) has r_2 = 1, and N_2(2) = 2^2 has
    # order 4 / gcd(4, 2) = 2, so s = 2, not lcm(s_1, s_2) = 4
    t = tower(5)
    lvl = t.level(t.extend(2))
    w, two = lvl.element([2, 1]), lvl.scalar(2)
    assert w ** 6 == lvl.one
    inst = LangInstance(kind="Torus", tower=t, c=[w, two])
    assert [(ri, si) for _, ri, si in inst.components] == [(2, 1), (1, 4)]
    assert [x.level for x, _, _ in inst.components] == [lvl, t.level(1)]
    diag = Mat.diagonal(lvl, [w, two])
    assert (inst.r, inst.s) == (2, 2) == (2, norm_and_order(t, diag, 2)[1])
    assert solve(inst, random.Random(0)).ok
    # a claimed s is compared with the derived one, trusted or not
    for trust in (False, True):
        with pytest.raises(InputError, match="claimed s"):
            LangInstance(kind="Torus", tower=t, c=[w, two], s=4,
                         trust_s=trust)


def test_degree_budget_is_checked_before_any_level_is_built():
    t = ff.make_tower(5)
    lvl = t.level(1)
    two = lvl.scalar(2)  # order 4 mod 5: the solution lives in k_4
    with pytest.raises(BudgetExhausted, match="k_4 .*budget 3"):
        LangInstance(kind="GL", tower=t, c=Mat.diagonal(lvl, [two]),
                     max_degree=3)
    # a trusted s is held to the budget as well
    with pytest.raises(BudgetExhausted, match="k_100 "):
        LangInstance(kind="GL", tower=t, c=Mat.identity(lvl, 1), s=100,
                     trust_s=True)
    # a torus is held to it by the s derived from its components
    with pytest.raises(BudgetExhausted, match="k_4 "):
        LangInstance(kind="Torus", tower=t, c=[two], max_degree=3)
    assert sorted(t.levels) == [1]


def test_solve_dispatch_uses_rng_for_torus():
    t = tower(5)
    lvl = t.level(t.extend(2))
    c = [lvl.element([1, 2]), lvl.element([3, 1])]
    inst = LangInstance(kind="Torus", tower=t, c=c, r=2)
    rng = random.Random(1)
    before = rng.getstate()
    cert = solve(inst, rng)
    assert cert.ok
    assert rng.getstate() != before


def test_verify_catches_bad_entry():
    t = tower(5)
    inst = LangInstance(kind="GL", tower=t, c=Mat.identity(t.level(1), 2))
    bad = Mat.identity(t.level(1), 2)
    bad.set_entry(0, 1, 3)  # still invertible, wrong equation? no: check
    # a = [[1,3],[0,1]] over k: a^{-F}a = a^{-1}a = I: equation holds, but
    # it IS a valid solution; corrupt to break min distance instead
    cert = verify(inst, bad)
    assert cert.ok  # F-fixed left multiplications stay in the fiber
    # now a wrong entry that breaks the equation: use a non-F-fixed a for
    # the identity instance whose min field degree is 1
    t.extend(2)
    zeta = t.element(2, [0, 1])
    bad2 = Mat.diagonal(t.level(2), [zeta, t.level(2).one])
    cert2 = verify(inst, bad2)
    assert not cert2.ok
    assert not cert2.checks["lang_equation"] \
        or not cert2.checks["min_field_degree"]["ok"]


def test_verify_checks_a_equals_its_frobenius_times_c():
    # for invertible a, a^(-F) a = c exactly when a = F(a) c; the first bad
    # entry is the first (i, j), row by row, where a and F(a) c differ
    t = tower(5)
    rng = random.Random(37)
    inst = random_instance(t, "SO", 3, 2, rng)
    lvl = t.level(t.extend(inst.rs))
    c = inst.c.embed(inst.rs)
    good = solve(inst, rng).a
    singular = good.copy()
    singular.planes[:, 1, :] = singular.planes[:, 0, :]
    cert = verify(inst, singular)
    assert not cert.ok and cert.checks == {"invertible": False}
    for a in [good] + [Mat.random(lvl, 3, 3, rng) for _ in range(20)]:
        inv = a.try_inverse()
        if inv is None:
            continue
        cert = verify(inst, a)
        want = inv.frobenius(1) @ a == c
        assert cert.checks["invertible"]
        assert cert.checks["lang_equation"] == want
        rhs = a.frobenius(1) @ c
        bad = [[i, j] for i in range(3) for j in range(3)
               if a.entry(i, j) != rhs.entry(i, j)]
        assert cert.checks.get("first_bad_entry") == (bad[0] if bad
                                                       else None)
        assert cert.checks["det_one"] == (a.det() == lvl.one)


def test_torus_component_orders_divide_q_minus_one(monkeypatch):
    # N_(r_i)(c_i) lies in k^*, so its order comes from the factors of
    # q - 1, with no characteristic polynomial: against brute force
    def no_charpoly(self):
        raise AssertionError("charpoly called")

    rng = random.Random(41)
    monkeypatch.setattr(Mat, "charpoly", no_charpoly)
    for p, e in [(5, 1), (7, 1), (3, 2)]:
        t = tower(p, e)
        q = t.level(1).order
        lvl = t.level(t.extend(2))
        for _ in range(8):
            c = [lvl.element(rng.randrange(1, lvl.order)) for _ in range(2)]
            inst = LangInstance(kind="Torus", tower=t, c=c)
            for x, ri, si in inst.components:
                N = x.entry(0, 0) ** ((q ** ri - 1) // (q - 1))
                assert N.frobenius(1) == N
                orders = [n for n in range(1, q) if N ** n == N.level.one]
                assert si == orders[0] and (q - 1) % si == 0
            assert solve(inst, rng).ok


def test_torus_order_bound_missing_a_prime_raises(monkeypatch):
    # 2 has order 4 in GF(5)^*: the bound q - 1 = 4 without its 2s misses
    from langchev import linalg
    factor_int = linalg._factor_int
    monkeypatch.setattr(linalg, "_factor_int",
                        lambda n, rng: {ell: v for ell, v in
                                        factor_int(n, rng).items()
                                        if ell != 2})
    t = tower(5)
    with pytest.raises(AssertionError, match="order bound violated"):
        LangInstance(kind="Torus", tower=t, c=[t.level(1).scalar(2)])


def test_verify_fiber_invariance():
    # left multiplication by an F-fixed group element stays in the fiber
    t = tower(5)
    rng = random.Random(23)
    inst = random_instance(t, "GL", 2, 2, rng, max_rs=4)
    cert = solve_gl(inst, rng)
    u = lang.random_group_element(t, "GL", 2, 1, rng)
    rs = cert.a.level.r
    a2 = u.embed(rs) @ cert.a
    cert2 = verify(inst, a2)
    assert cert2.ok


def test_certificate_min_degree_is_rs():
    rng = random.Random(29)
    t = tower(3)
    for _ in range(6):
        inst = random_instance(t, "GL", 2, 2, rng, max_rs=6)
        if inst is None:
            continue
        cert = solve_gl(inst, rng)
        assert cert.ok
        mfd = min_field_degree(t, cert.a)
        assert mfd == inst.rs
        # Prop consistency both directions: no proper divisor works
        for div in range(1, inst.rs):
            if inst.rs % div == 0:
                assert not cert.a.frobenius(div) == cert.a


def _reference_normal_basis(rows, form):
    """normal_basis as it ran before Gram blocks: every pairing is one
    scalar u G v^T, descended to k on its own, and every scan and every
    complement condition is built one pairing at a time.  Returns the
    normal basis and the complement routine."""
    level1, r = form.gram.level, rows.level.r
    gram = form.gram.embed(r)

    def pair(u, v):
        val = u @ gram @ v.transpose()
        return (val if r == 1 else lang._descend(val, level1)).entry(0, 0)

    def emb(x):
        return ff.embed(x, r)

    def perp(R, spans):
        cols = [Mat.from_entries(level1, [[pair(R.row(i), w)]
                                          for i in range(R.nrows)])
                for w in spans]
        return Mat.hstack(cols).left_kernel().embed(r) @ R

    def anisotropic(R):
        for i in range(R.nrows):
            if pair(R.row(i), R.row(i)):
                return R.row(i)
        for i, j in itertools.combinations(range(R.nrows), 2):
            cand = R.row(i) + R.row(j)
            if pair(cand, cand):
                return cand
        return None

    def isotropic(R):
        d = R.nrows
        for i in range(d):
            if not pair(R.row(i), R.row(i)) and not R.row(i).is_zero():
                return R.row(i)
        if d < 2:
            return None
        u = anisotropic(R)
        uu = pair(u, u)
        v = anisotropic(perp(R, [u]))
        if v is None:
            return None
        vv = pair(v, v)
        if d == 2:
            root = ff.sqrt(-vv / uu)
            return None if root is None else u * emb(root) + v
        w = anisotropic(perp(R, [u, v]))
        a, b = ff.solve_diag_quadratic(uu, vv, -pair(w, w))
        return u * emb(a) + v * emb(b) + w

    def symplectic(R):
        if R.nrows == 0:
            return []
        u = R.row(0)
        v = next(R.row(i) for i in range(1, R.nrows) if pair(u, R.row(i)))
        v = v * emb(pair(u, v).inverse())
        inner = symplectic(perp(R, [u, v]))
        half = len(inner) // 2
        return [u] + inner[:half] + inner[half:] + [v]

    def orthogonal(R):
        d = R.nrows
        if d == 0:
            return []
        if d == 1:
            u = R.row(0)
            uu = pair(u, u)
            a = ff.sqrt(uu) or ff.sqrt(uu / form.delta)
            return [u * emb(a.inverse())]
        x = isotropic(R)
        if x is None:
            u = anisotropic(R)
            uu = pair(u, u)
            v = perp(R, [u]).row(0)
            vv = pair(v, v)
            a, b = ff.solve_diag_quadratic(uu, vv, level1.one)
            y0 = u * emb(vv * b) - v * emb(uu * a)
            t = ff.sqrt(uu * vv / (-form.delta))
            return [u * emb(a) + v * emb(b), y0 * emb(t.inverse())]
        y = next(R.row(i) for i in range(d) if pair(x, R.row(i)))
        y = y * emb(pair(x, y).inverse())
        yy = pair(y, y)
        if yy:
            y = y - x * emb(yy / (level1.one + level1.one))
        if d == 2:
            return [x, y]
        return [x] + orthogonal(perp(R, [x, y])) + [y]

    basis = symplectic(rows) if form.kind == "symplectic" \
        else orthogonal(rows)
    return basis, pair, perp


def _random_form(lvl, kind, d, rng):
    while True:
        A = Mat.random(lvl, d, d, rng)
        M = A - A.transpose() if kind == "symplectic" else A + A.transpose()
        if M.try_inverse() is not None:
            return BilinearFormFq(kind, M)


def test_find_anisotropic_scans_as_the_pairing_loop():
    # the loop _find_anisotropic replaced: rows first, then the sums
    # r_i + r_j in the order (0, 1), (0, 2), ..., (1, 2), ...
    def loop(rows, gram):
        def norm(u):
            return (u @ gram @ u.transpose()).entry(0, 0)
        for i in range(rows.nrows):
            if norm(rows.row(i)):
                return rows.row(i)
        for i, j in itertools.combinations(range(rows.nrows), 2):
            if norm(rows.row(i) + rows.row(j)):
                return rows.row(i) + rows.row(j)
        return None

    rng = random.Random(14)
    for p, e in [(5, 1), (7, 1), (3, 2)]:
        lvl = tower(p, e).level(1)
        for d in range(1, 7):
            for _ in range(12):
                # symmetric, mostly zero diagonal, sparse off it
                gram = Mat.zeros(lvl, d, d)
                for i, j in itertools.combinations_with_replacement(
                        range(d), 2):
                    if rng.random() < (0.1 if i == j else 0.3):
                        x = lvl.element(rng.randrange(1, lvl.order))
                        gram.set_entry(i, j, x)
                        gram.set_entry(j, i, x)
                rows = Mat.random(lvl, d, d, rng) if rng.random() < 0.3 \
                    else Mat.identity(lvl, d)
                G = rows @ gram @ rows.transpose()
                assert lang._find_anisotropic(rows, G) == loop(rows, gram)


def _form_preserving_basis(t, form, rs, rng):
    """U g with U invertible over k and g in the form's group over k_rs:
    rows over k_rs whose Gram matrix U (g M g^T) U^T = U M U^T is over k."""
    kind = "Sp" if form.kind == "symplectic" else "SO"
    d = form.gram.nrows
    g = lang.random_group_element(t, kind, d, rs, rng, form=form)
    while True:
        U = Mat.random(t.level(1), d, d, rng)
        if U.try_inverse() is not None:
            return U.embed(rs) @ g


@pytest.mark.parametrize("p, e", [(5, 1), (7, 1), (3, 2)])
def test_gram_blocks_match_the_pairing_at_a_time_reference(monkeypatch, p,
                                                           e):
    # the Witt recursion runs on coordinates over k; lifted through the
    # basis it normalizes, each normal basis and each complement it takes
    # is the one the level-rs reference builds a pairing at a time
    t = tower(p, e)
    lvl = t.level(1)
    rng = random.Random(1400 + 10 * p + e)
    calls, perps, bases = [], [], []
    real_lv, real_coords = lang.f_eigenspace_lv, lang._normal_coords
    real_perp_in = lang._perp_in

    def spy_lv(c, rs, rng):
        a, det_a = real_lv(c, rs, rng)
        bases.append((a, det_a))
        return a, det_a

    def spy_coords(G, form):
        perps.clear()
        C = real_coords(G, form)
        rows, det_a = bases.pop() if bases else (Mat.identity(lvl, G.nrows),
                                                 None)
        calls.append((rows, det_a, form, C, list(perps)))
        return C

    def spy_perp_in(rows, gram_of, spans):
        out = real_perp_in(rows, gram_of, spans)
        perps.append((rows, spans, out))
        return out

    monkeypatch.setattr(lang, "f_eigenspace_lv", spy_lv)
    monkeypatch.setattr(lang, "_normal_coords", spy_coords)
    monkeypatch.setattr(lang, "_perp_in", spy_perp_in)
    # the eigenbases of seeded Sp and SO solves, on canonical forms and on
    # random ones (P != I), and the normalizations of those forms
    changes_of_basis = 0
    for kind, d in [("Sp", 2), ("Sp", 4), ("SO", 3), ("SO", 4), ("SO", 5)]:
        fk = "symplectic" if kind == "Sp" else "orthogonal"
        for form in (None, _random_form(lvl, fk, d, rng)):
            inst = None
            while inst is None:
                inst = random_instance(t, kind, d, 2, rng, form=form,
                                       max_rs=4)
            assert solve(inst, rng).ok
            # P = I exactly when the given Gram matrix is canonical
            P = inst.form.normalized[0]
            assert (P is None) == lang._is_canonical_gram(lvl, fk,
                                                          inst.form.gram)
            changes_of_basis += P is not None
    assert changes_of_basis
    # canonical and random forms on bases over k_rs, rs = 1 .. 4
    for rs in (1, 2, 3, 4):
        for kind, d in [("symplectic", 4), ("orthogonal", 2),
                        ("orthogonal", 3), ("orthogonal", 6)]:
            for form in (BilinearFormFq(kind, canonical_gram(lvl, kind, d)),
                         _random_form(lvl, kind, d, rng)):
                rows = _form_preserving_basis(t, form, rs, rng)
                bases.append((rows, None))
                out = normal_basis(rows, form)
                assert Mat.vstack(out) == calls[-1][3].embed(rs) @ rows
    assert {rows.level.r for rows, *_ in calls} == {1, 2, 3, 4}
    assert any(det_a is not None for _, det_a, *_ in calls)
    for rows, det_a, form, C, coords_perps in calls:
        r = rows.level.r
        want, pair, perp = _reference_normal_basis(rows, form)
        B = C.embed(r) @ rows
        assert B.rows() == want
        # SO solves take the volume det B as det C det a
        if det_a is not None and form.kind == "orthogonal":
            assert B.det() == ff.embed(C.det(), r) * det_a
        # every complement, lifted, is the one built entry by entry
        def lift(X):
            return X.embed(r) @ rows

        for sub, spans, got in coords_perps:
            assert lift(got) == perp(lift(sub), [lift(w) for w in spans])
    assert sum(len(call[-1]) for call in calls) > len(calls)


# ---------------------------------------------------------------------------
# Input contract: invertibility by one determinant
# ---------------------------------------------------------------------------

def _so3_reflection(lvl):
    """Swapping the first and last axes preserves the split form A_3 and
    has determinant -1."""
    g = Mat.zeros(lvl, 3, 3)
    g.planes[0, 0, 2] = g.planes[0, 1, 1] = g.planes[0, 2, 0] = 1
    return g


@pytest.mark.parametrize("kind", ["GL", "SL", "Sp", "SO"])
def test_singular_c_is_refused_before_any_other_check(kind):
    t = tower(5)
    c = Mat.from_int_rows(t.level(1), [[1, 2], [2, 4]])
    with pytest.raises(InputError, match="c must be invertible"):
        LangInstance(kind=kind, tower=t, c=c)


def test_det_and_form_messages_are_kept():
    t = tower(5)
    lvl = t.level(1)
    t.extend(2)
    for r in (1, 2):  # c given over k_2 descends to k after its det
        with pytest.raises(InputError, match=r"SL requires det\(c\) = 1"):
            LangInstance(kind="SL", tower=t,
                         c=Mat.diagonal(lvl, [2, 2]).embed(r))
        inst = LangInstance(kind="SL", tower=t,
                            c=Mat.diagonal(lvl, [2, 3]).embed(r))
        assert inst.c.level is lvl
    M = canonical_gram(lvl, "orthogonal", 3, "split")
    with pytest.raises(InputError, match="no solution in this group"):
        LangInstance(kind="SO", tower=t, c=_so3_reflection(lvl),
                     form=BilinearFormFq("orthogonal", M))
    for kind, gram in (("orthogonal", [[1, 2], [2, 4]]),
                       ("symplectic", [[0, 0], [0, 0]])):
        with pytest.raises(InputError, match="form is degenerate"):
            BilinearFormFq(kind, Mat.from_int_rows(lvl, gram))


def test_form_must_be_of_the_kinds_form_kind():
    # the identity preserves every form and has det 1, so only the form's
    # kind can refuse these instances
    t = tower(7)
    lvl = t.level(1)
    ident = Mat.identity(lvl, 2)
    forms = {fk: BilinearFormFq(fk, canonical_gram(lvl, fk, 2))
             for fk in ("symplectic", "orthogonal")}
    for kind, fk in (("SO", "symplectic"), ("Sp", "orthogonal")):
        with pytest.raises(InputError, match=f"{kind} needs a form of kind"):
            LangInstance(kind=kind, tower=t, c=ident, form=forms[fk])
    for kind, c in (("GL", ident), ("SL", ident),
                    ("Torus", [lvl.one, lvl.one])):
        for form in forms.values():
            with pytest.raises(InputError, match=f"{kind} takes no form"):
                LangInstance(kind=kind, tower=t, c=c, form=form)
    for kind, fk in (("Sp", "symplectic"), ("SO", "orthogonal")):
        inst = LangInstance(kind=kind, tower=t, c=ident, form=forms[fk])
        assert solve(inst, random.Random(0)).ok


@pytest.mark.parametrize("name", ["r", "s"])
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("trust_s", [False, True])
def test_claimed_degree_below_one_is_named(name, value, trust_s):
    t = tower(5)
    c = Mat.diagonal(t.level(1), [2])
    with pytest.raises(InputError,
                       match=f"^claimed {name} = {value} must be >= 1$"):
        LangInstance(kind="GL", tower=t, c=c, trust_s=trust_s,
                     **{name: value})


@pytest.mark.parametrize("p, e", [(5, 1), (7, 1), (3, 2)],
                         ids=["q5", "q7", "q9"])
@pytest.mark.parametrize("kind", list(lang.GROUP_KINDS))
def test_every_table_kind_round_trips(kind, p, e):
    t = tower(p, e)
    group = lang.GROUP_KINDS[kind]
    lvl = t.level(1)
    form = group.default_form(lvl, 2)
    if group.form_kind is None:
        assert form is None
    else:
        assert form.kind == group.form_kind
        assert form.gram == canonical_gram(lvl, group.form_kind, 2)
    rng = random.Random(7)
    inst = random_instance(t, kind, 2, 2, rng)
    assert inst.kind == kind
    cert = solve(inst, rng)
    assert cert.ok and verify(inst, cert.a, strict=True).ok


@pytest.mark.parametrize("kind, d", [("Sp", 2), ("Sp", 4), ("SO", 2),
                                     ("SO", 3)])
def test_random_group_element_defaults_to_the_canonical_form(kind, d):
    # without form=, the element preserves the kind's canonical Gram matrix
    t = tower(7)
    M = canonical_gram(t.level(1), lang.GROUP_KINDS[kind].form_kind, d)
    rng = random.Random(11)
    for r in (1, 2):
        g = lang.random_group_element(t, kind, d, r, rng)
        Mr = M.embed(r)
        assert g.level.r == r and g @ Mr @ g.transpose() == Mr
        if kind == "SO":
            assert g.det() == g.level.one


def test_instance_and_eigenspace_run_no_inverse(monkeypatch):
    # invertibility is one det of c, which SL and SO reuse; the eigenspace
    # accumulate is accepted on its determinant too
    t = tower(5)
    cases = [("GL", random_instance(t, "GL", 2, 2, random.Random(1))),
             ("SL", random_instance(t, "SL", 2, 2, random.Random(2))),
             ("Sp", random_instance(t, "Sp", 2, 2, random.Random(3))),
             ("SO", random_instance(t, "SO", 3, 2, random.Random(4)))]
    calls = []

    def no_inverse(self):
        raise AssertionError("try_inverse called")

    det = Mat.det

    def counted_det(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Mat, "try_inverse", no_inverse)
    monkeypatch.setattr(Mat, "det", counted_det)
    for kind, inst0 in cases:
        del calls[:]
        inst = LangInstance(kind=kind, tower=t, c=inst0.c, form=inst0.form)
        assert len(calls) == 1 and calls[0] is inst0.c
        f_eigenspace_lv(inst.c, inst.rs, random.Random(5))

    # a solve validates nothing again and, on these canonical forms, takes
    # no inverse: it builds no instance, and beyond one determinant per
    # eigenspace draw it takes verify's one det at k_rs (invertibility, and
    # det = 1 for SL and SO) and, for SO, det C of the normal coordinates
    # over k, whose product with the accumulate's det is the eigenbasis
    # volume.  The Witt recursion runs over k: a form solve descends one
    # matrix, the restricted Gram, and takes every complement at level 1
    built, draws, descents, perps = [], [], [], []
    post_init, rand = LangInstance.__post_init__, Mat.random
    descend, perp_in = lang._descend, lang._perp_in

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_random(*args):
        draws.append(args)
        return rand(*args)

    def counted_descend(rows, level):
        descents.append(rows.level.r)
        return descend(rows, level)

    def leveled_perp_in(rows, gram_of, spans):
        perps.append(rows.level.r)
        return perp_in(rows, gram_of, spans)

    cases.append(("Torus", random_instance(t, "Torus", 2, 2,
                                           random.Random(6))))
    monkeypatch.setattr(LangInstance, "__post_init__", counted_post_init)
    monkeypatch.setattr(Mat, "random", counted_random)
    monkeypatch.setattr(lang, "_descend", counted_descend)
    monkeypatch.setattr(lang, "_perp_in", leveled_perp_in)
    dets = {}
    for kind, inst in cases:
        assert inst.rs > 1
        for seed in (5, 6):
            del calls[:], built[:], draws[:], descents[:], perps[:]
            assert solve(inst, random.Random(seed)).ok
            assert built == [] and draws
            # the draws' dets come first, one each
            dets.setdefault(kind, []).append(
                ["rs" if M.level.r == inst.rs else M.level.r
                 for M in calls[len(draws):]])
            assert descents == ([inst.rs] if kind in ("Sp", "SO") else [])
            assert set(perps) == ({1} if kind in ("Sp", "SO") else set())
    assert dets == {"GL": [["rs"]] * 2, "SL": [["rs"]] * 2,
                    "Sp": [["rs"]] * 2, "SO": [[1, "rs"]] * 2,
                    "Torus": [["rs"]] * 2}
