"""Acceptance criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line (run pytest with -s to see them all);
tolerances and counts are pinned here, not configurable.  Criterion 6 checks
the library's F4 and E6 reflection-derangement statistics against an
enumeration of the Weyl groups on explicit root coordinates that shares no
code with rootdata.  The source table's entries for those two types (1/4 and
1409/2592) are errata; the true proportions are 71/288 and 1183/2592.
"""

import itertools
import math
import random
import time
import zlib
from fractions import Fraction

import pytest

from langchev import ff, lang, liealg, rootdata
from langchev.errors import BudgetExhausted
from langchev.linalg import Mat

_towers = {}


def tower(p, e=1):
    if (p, e) not in _towers:
        _towers[(p, e)] = ff.make_tower(p, e)
    return _towers[(p, e)]


QS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]  # q in {3, 5, 7, 9, 25}


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" +
          (f" -- {detail}" if detail else ""))
    return ok


def test_criterion_1_lang_exactness():
    """500 seeded instances across GL/SL/Sp/SO, r <= 3: a^(-F) a = c
    exactly and min_field_degree(a) = rs."""
    t0 = time.time()
    kinds = [("GL", 1), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5),
             ("SL", 2), ("SL", 3), ("SL", 4), ("Sp", 4), ("SO", 3),
             ("SO", 4)]
    levels = [1, 2, 3, 2, 3, 6]
    count = 0
    seed = 0
    combos = itertools.cycle(itertools.product(kinds, QS))
    while count < 500:
        (kind, d), (p, e) = next(combos)
        tw = tower(p, e)
        rng = random.Random(10_000 + seed)
        seed += 1
        target = levels[seed % len(levels)]
        inst = lang.random_instance(tw, kind, d, target, rng, max_rs=6)
        if inst is None or inst.r > 3:
            continue
        cert = lang.solve(inst, rng)
        assert cert.ok, (kind, d, p, e, cert.checks)
        assert cert.checks["lang_equation"]
        assert cert.checks["min_field_degree"]["ok"]
        count += 1
    elapsed = time.time() - t0
    assert _report("criterion 1: Lang exactness",
                   count == 500, f"500 instances in {elapsed:.1f}s")
    assert elapsed < 300


def _all_invertible(level, d):
    order = level.order
    for idx in itertools.product(range(order), repeat=d * d):
        M = Mat.zeros(level, d, d)
        for k, v in enumerate(idx):
            M.planes[:, k // d, k % d] = level.element(v).coeffs
        if M.try_inverse() is not None:
            yield M


def _gl_order(q, d):
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def test_criterion_2_oracle_equivalence():
    """Exhaustive fiber checks for every c in small general linear
    groups."""
    t0 = time.time()
    cases = [(3, 1, 1), (5, 1, 1), (2, 1, 2), (3, 1, 2)]
    solved = 0
    fiber_checked = 0
    for p, e, d in cases:
        tw = tower(p, e)
        q = p ** e
        lvl1 = tw.level(1)
        for c in _all_invertible(lvl1, d):
            inst = lang.LangInstance(kind="GL", tower=tw, c=c)
            cert = lang.solve_gl(inst, random.Random(77))
            assert cert.ok
            solved += 1
            big = tw.level(tw.extend(inst.rs))
            if big.order ** (d * d) > 200_000:
                continue
            cinv = c.embed(big.r).inverse()
            fiber = []
            amat_bytes = cert.a.planes.tobytes()
            found_self = False
            for cand in _all_invertible(big, d):
                if cand.frobenius(1) == cand @ cinv:
                    fiber.append(cand)
                    if cand.planes.tobytes() == amat_bytes:
                        found_self = True
            assert len(fiber) == _gl_order(q, d), (p, d, len(fiber))
            assert found_self
            fiber_checked += 1
    elapsed = time.time() - t0
    assert _report(
        "criterion 2: oracle equivalence", True,
        f"{solved} instances solved, {fiber_checked} fibers enumerated "
        f"in {elapsed:.1f}s")
    assert elapsed < 120


def _k_row_space(tw, rows):
    level1 = tw.level(1)
    out = []
    for i in range(rows.nrows):
        krow = []
        for j in range(rows.ncols):
            krow.extend(lang._relative_coords(tw, rows.entry(i, j)))
        out.append(krow)
    return Mat.from_entries(level1, out).row_space()


def test_criterion_3_eigenspace_agreement():
    """Deterministic and Las Vegas eigenspaces span the same k-space on
    200 seeded instances with d*r*s <= 12."""
    t0 = time.time()
    count = 0
    seed = 0
    combos = itertools.cycle(itertools.product([1, 2, 3, 4], QS, [1, 2, 3]))
    while count < 200:
        d, (p, e), target = next(combos)
        seed += 1
        rng = random.Random(31_000 + seed)
        tw = tower(p, e)
        inst = lang.random_instance(tw, "GL", d, target, rng, max_rs=12)
        if inst is None or d * inst.rs > 12:
            continue
        E_det = lang.f_eigenspace_det(inst)
        E_lv, _ = lang.f_eigenspace_lv(inst.c, inst.rs, rng)
        assert _k_row_space(tw, E_det) == _k_row_space(tw, E_lv)
        count += 1
    elapsed = time.time() - t0
    assert _report("criterion 3: eigenspace agreement", count == 200,
                   f"200 instances in {elapsed:.1f}s")


def test_criterion_4_normal_basis_canonical():
    """300 random nondegenerate forms land bit-exactly on a canonical
    Gram matrix, with the determinant class selecting the orthogonal
    variant."""
    t0 = time.time()
    count = 0
    seed = 0
    qs = [(5, 1), (7, 1), (3, 2)]
    combos = itertools.cycle(itertools.product(range(2, 8), qs))
    while count < 300:
        dim, (p, e) = next(combos)
        seed += 1
        rng = random.Random(47_000 + seed)
        tw = tower(p, e)
        lvl = tw.level(1)
        symplectic = (dim % 2 == 0) and (seed % 2 == 0)
        while True:
            A = Mat.random(lvl, dim, dim, rng)
            M = (A - A.transpose()) if symplectic else (A + A.transpose())
            if M.try_inverse() is not None:
                break
        kind = "symplectic" if symplectic else "orthogonal"
        form = lang.BilinearFormFq(kind, M)
        rows = lang.normal_basis(Mat.identity(lvl, dim), form)
        B = Mat.vstack(rows)
        gram = B @ M @ B.transpose()
        if symplectic:
            assert gram == lang.canonical_gram(lvl, kind, dim)
        else:
            split = lang.canonical_gram(lvl, kind, dim, "split")
            nonsplit = lang.canonical_gram(lvl, kind, dim, "nonsplit")
            assert gram in (split, nonsplit)
            want_split = ff.is_square(M.det() / split.det())
            assert (gram == split) == want_split
        count += 1
    elapsed = time.time() - t0
    assert _report("criterion 4: normal-basis canonical forms",
                   count == 300, f"300 forms in {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_5_chevalley_roundtrip():
    """25 seeded scrambles per type and field; output always verifies;
    Las Vegas failures < 5% of runs."""
    t0 = time.time()
    types = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]
    fields = [(5, 1), (7, 1), (11, 1), (5, 2)]
    runs = 0
    failures = 0
    for tname in types:
        rd = rootdata.build(tname)
        for p, e in fields:
            tw = tower(p, e)
            L = liealg.from_root_datum(rd, tw)
            for seedling in range(25):
                rng = random.Random(zlib.crc32(
                    f"{tname}:{p}:{e}:{seedling}".encode()))
                g = liealg.random_inner_automorphism(L, rd, rng,
                                                     word_length=5)
                Ls = liealg.scramble_basis(L, g)
                runs += 1
                try:
                    basis = liealg.standard_chevalley_basis(Ls, rd, rng)
                except BudgetExhausted:
                    failures += 1
                    continue
                ok, witness = liealg.verify_chevalley_basis(Ls, rd, basis)
                assert ok, (tname, p, e, seedling, witness)
    elapsed = time.time() - t0
    rate = failures / runs
    ok = rate < 0.05
    assert _report(
        "criterion 5: Chevalley roundtrip", ok,
        f"{runs} runs, {failures} clean Las Vegas failures "
        f"({100 * rate:.2f}%), {elapsed:.0f}s")
    assert elapsed < 900


def _expand_product(factors):
    out = [1]
    for f in factors:
        out = rootdata._ipoly_mul(out, f)
    return out


def _omx(d):
    v = [0] * (d + 1)
    v[0], v[d] = 1, -1
    return v


def _opx(*ds):
    v = [0] * (max(ds) + 1)
    v[0] = 1
    for d in ds:
        v[d] = 1
    return v


# Reflection-derangement proportions printed in the source table for F4 and
# E6.  Both are errata and are not expected values: 1409/2592 is the
# complement 1 - 1183/2592 of the true E6 proportion, and 1/4 = 288/1152 is
# four elements away from the true F4 count 284/1152.
SOURCE_TABLE_ERRATA = {"F4": Fraction(1, 4), "E6": Fraction(1409, 2592)}


def _f4_coordinates():
    """Roots and simple roots of F4 in Bourbaki's R^4, doubled to integers:
    +-2e_i, +-2e_i+-2e_j and (+-1, +-1, +-1, +-1)."""
    roots = set()
    for i in range(4):
        for s in (2, -2):
            v = [0] * 4
            v[i] = s
            roots.add(tuple(v))
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0] * 4
            v[i], v[j] = si, sj
            roots.add(tuple(v))
    roots.update(itertools.product((1, -1), repeat=4))
    simple = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    return sorted(roots), simple


def _e6_coordinates():
    """Roots and simple roots of E6 in Bourbaki's R^8, doubled to integers:
    +-2e_i+-2e_j (i < j <= 5) and +-(e8 - e7 - e6 + sum_{i<=5} +-e_i) with an
    even number of minus signs among the first five."""
    roots = set()
    for i, j in itertools.combinations(range(5), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            roots.add(tuple(v))
    for signs in itertools.product((1, -1), repeat=5):
        if signs.count(-1) % 2 == 0:
            v = signs + (-1, -1, 1)
            roots.add(v)
            roots.add(tuple(-x for x in v))
    simple = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0),
              (-2, 2, 0, 0, 0, 0, 0, 0), (0, -2, 2, 0, 0, 0, 0, 0),
              (0, 0, -2, 2, 0, 0, 0, 0), (0, 0, 0, -2, 2, 0, 0, 0)]
    return sorted(roots), simple


def _enumerate_derangements(roots, simple):
    """(count, total, proportion) of Weyl elements w with w(a) != +-a for
    every root a, by closing the simple reflections -- permutations of the
    explicit roots -- under composition.  Independent of rootdata."""
    index = {r: k for k, r in enumerate(roots)}

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    gens = []
    for a in simple:
        c = [divmod(2 * dot(v, a), dot(a, a)) for v in roots]
        assert all(rem == 0 for _, rem in c), "non-integral Cartan number"
        gens.append(tuple(index[tuple(x - n * y for x, y in zip(v, a))]
                          for v, (n, _) in zip(roots, c)))
    neg = [index[tuple(-x for x in r)] for r in roots]
    group = {tuple(range(len(roots)))}
    frontier = list(group)
    while frontier:
        grown = []
        for w in frontier:
            for g in gens:
                u = tuple(g[k] for k in w)
                if u not in group:
                    group.add(u)
                    grown.append(u)
        frontier = grown
    count = sum(all(w[k] != k and w[k] != neg[k] for k in range(len(roots)))
                for w in group)
    return count, len(group), Fraction(count, len(group))


def test_criterion_6_reference_tables():
    """Derangement proportions, Coxeter Q_w rows, and the constants table.

    The F4 and E6 derangement statistics must equal, as exact
    (count, total, proportion), those of an enumeration of W(F4) and W(E6)
    acting on explicit Bourbaki root coordinates, which shares no code with
    rootdata: 284/1152 = 71/288 and 23660/51840 = 1183/2592.  The source
    table's 1/4 and 1409/2592 are errata (SOURCE_TABLE_ERRATA) and are not
    asserted.
    """
    t0 = time.time()
    failures = []

    # --- Coxeter Q_w product forms, coefficientwise -----------------------
    for l in range(1, 9):
        rd = rootdata.build(f"A{l}")
        got = rootdata.qw_polynomial(rd, rootdata.coxeter_element(rd))
        want = _expand_product([_omx(i) for i in range(1, l + 1)])
        if got != want:
            failures.append(f"Qw A{l}")
    for l in range(2, 9):
        for letter in ("B", "C"):
            rd = rootdata.build(f"{letter}{l}")
            got = rootdata.qw_polynomial(rd, rootdata.coxeter_element(rd))
            want = _expand_product([_omx(l)] + [_omx(2 * i)
                                                for i in range(1, l)])
            if got != want:
                failures.append(f"Qw {letter}{l}")
    for l in range(3, 9):
        rd = rootdata.build(f"D{l}")
        got = rootdata.qw_polynomial(rd, rootdata.coxeter_element(rd))
        want = _expand_product([_omx(i) for i in (1, l - 1, l)]
                               + [_omx(2 * i) for i in range(2, l - 1)])
        if got != want:
            failures.append(f"Qw D{l}")
    g2 = rootdata.build("G2")
    if rootdata.qw_polynomial(g2, rootdata.coxeter_element(g2)) != \
            _expand_product([_omx(2), _omx(3), [1, 1]]):
        failures.append("Qw G2")
    f4 = rootdata.build("F4")
    if rootdata.qw_polynomial(f4, rootdata.coxeter_element(f4)) != \
            _expand_product([_omx(6), _omx(4), _omx(6), _omx(8)]):
        failures.append("Qw F4")
    e6 = rootdata.build("E6")
    if rootdata.qw_polynomial(e6, rootdata.coxeter_element(e6)) != \
            _expand_product([_omx(6)] + [_omx(i) for i in (1, 4, 5, 6, 8)]
                            + [_opx(3, 6)]):
        failures.append("Qw E6")
    qw_ok = not failures

    # --- constants table rows through rank 6 ------------------------------
    table = {
        "A1": (2, 1), "A2": (2, 1, 2), "B2": (8, 4, 0), "G2": (4, 3, 4),
        "A3": (8, 2, 4, 0), "B3": (8, 1, 2, 2), "A4": (6, 1, 2, 0, 2),
        "B4": (12, 1, 1, 4, 0), "D4": (16, 5, 8, 0, 0),
        "F4": (36, 3, 1, 6, 0), "A5": (8, 1, 1, 2, 4, 0),
        "B5": (16, 1, 0, 0, 4, 2), "D5": (16, 3, 5, 2, 4, 0),
        "A6": (10, 1, 0, 0, 4, 0, 2), "B6": (20, 1, 0, 0, 2, 5, 0),
        "D6": (24, 3, 5, 3, 4, 0, 0), "E6": (36, 3, 0, 3, 2, 6, 0),
    }
    cis_bad = []
    for tname, want in table.items():
        got = rootdata.constants_table_row(rootdata.build(tname))
        if got != want:
            cis_bad.append(tname)
    failures.extend(f"constants {t}" for t in cis_bad)

    # --- derangement proportions: G2 tabulated, F4/E6 enumerated ----------
    oracle = {"F4": _enumerate_derangements(*_f4_coordinates()),
              "E6": _enumerate_derangements(*_e6_coordinates())}
    assert (oracle["F4"][1], oracle["E6"][1]) == (1152, 51840)
    der_bad = []
    got = rootdata.reflection_derangement_stats(rootdata.build("G2"))[2]
    if got != Fraction(1, 3):
        der_bad.append(f"G2: computed {got}, table says 1/3")
    for tname, want in oracle.items():
        got = rootdata.reflection_derangement_stats(rootdata.build(tname))
        if got != want:
            der_bad.append(f"{tname}: computed {got}, enumeration gives "
                           f"{want}")
    failures.extend(der_bad)

    elapsed = time.time() - t0
    detail = (f"Qw rows ok={qw_ok}, constants rows ok={not cis_bad}, "
              f"derangement mismatches: {der_bad or 'none'}; "
              f"{elapsed:.0f}s")
    ok = not failures
    _report("criterion 6: reference tables reproduced exactly", ok, detail)
    assert elapsed < 300
    assert ok, f"table mismatches: {failures}"


def test_criterion_7_rss_density():
    """Sampled regular-semisimple-with-split-centralizer fraction for
    A2 over GF(7) against the exact hyperplane-complement value."""
    t0 = time.time()
    rd = rootdata.build("A2")
    tw = tower(7)
    L = liealg.from_root_datum(rd, tw)

    # independent oracle: enumerate the split toral subalgebra's k-points
    # and count those off every root hyperplane
    n = rd.n
    regular = 0
    total_h = 0
    for t1 in range(7):
        for t2 in range(7):
            total_h += 1
            vals = [(t1 * rd.root_X[r][0] + t2 * rd.root_X[r][1]) % 7
                    for r in range(rd.num_roots)]
            if all(vals):
                regular += 1
    assert total_h == 49 and regular == 30

    qw1 = rootdata.qw_polynomial(rd, rd.identity_weyl())
    q1_at = sum(Fraction(c, 7 ** k) for k, c in enumerate(qw1))
    w_order = rd.weyl_order()
    exact = q1_at * Fraction(regular, 7 ** n) / w_order
    assert exact == Fraction(2280, 16807)

    rng = random.Random(424242)
    hits = 0
    samples = 20_000
    for _ in range(samples):
        x = L.random_vector(rng)
        if not liealg.is_regular_semisimple(L, x):
            continue
        C = liealg.centralizer(L, x)
        if liealg.is_split_toral(L, C):
            hits += 1
    frac = hits / samples
    err = abs(frac - float(exact))
    ok = err <= 0.02
    elapsed = time.time() - t0
    assert _report(
        "criterion 7: regular-semisimple density",
        ok, f"sampled {frac:.4f} vs exact {float(exact):.4f} "
            f"(|err| = {err:.4f}), {elapsed:.0f}s")


def test_criterion_8_no_superlinear_blowup():
    """Doubling rs in the deterministic eigenspace method stays within a
    cubic-growth envelope (the claims are not reproduced as measured
    asymptotics)."""
    tw = tower(5)
    rng = random.Random(999)

    def instance_at(level):
        while True:
            inst = lang.random_instance(tw, "GL", 2, level, rng,
                                        max_rs=level)
            if inst is not None and inst.rs == level:
                return inst

    small = instance_at(2)
    big = instance_at(4)

    def best_time(inst):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            lang.f_eigenspace_det(inst)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = best_time(small)
    t_big = best_time(big)
    ratio = t_big / t_small
    # doubling rs in an O((d e r s)^3) method predicts ~8x; allow slack
    # for constant factors and timer noise
    ok = ratio < 20
    assert _report("criterion 8: no superlinear blowup", ok,
                   f"rs 2 -> 4 runtime ratio {ratio:.1f}x")
