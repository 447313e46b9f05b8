import itertools
import random

import pytest

from langchev import ff, lang
from langchev.errors import InputError
from langchev.lang import (
    BilinearFormFq, LangInstance, Mat, canonical_gram, f_eigenspace_det,
    f_eigenspace_lv, min_field_degree, norm_and_order, normal_basis,
    random_instance, solve, solve_gl, solve_sl, solve_so, solve_sp,
    solve_torus, verify, volume,
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
        basis, a = f_eigenspace_lv(inst, rng)
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


def test_volume_examples():
    t = tower(5)
    assert volume(Mat.identity(t.level(1), 4)) == t.level(1).one
    M = Mat.from_int_rows(t.level(1), [[0, 1], [1, 0]])
    assert volume(M) == -t.level(1).one


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
    # one norm order per GL_1 component; the trusted s is not recomputed
    assert len(calls) == len(c)


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
