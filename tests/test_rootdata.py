import itertools
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from langchev import rootdata as rdm
from langchev.errors import EnumerationGate, InputError


def test_build_root_counts():
    assert rdm.build("A1").num_roots == 2
    assert rdm.build("A1").num_pos == 1
    rd = rdm.build("A2")
    assert rd.num_roots == 6
    g2 = rdm.build("G2")
    assert g2.num_roots == 12 and g2.num_pos == 6
    assert rdm.build("B2").num_roots == 8
    assert rdm.build("F4").num_roots == 48
    assert rdm.build("D4").num_roots == 24


def test_build_rejects_unknown_type():
    with pytest.raises(InputError):
        rdm.build("H3")
    with pytest.raises(InputError):
        rdm.build("E9")


def test_pairing_normalization():
    for t in ("A2", "B2", "G2", "F4", "C3", "D4"):
        rd = rdm.build(t)
        for i in range(rd.num_roots):
            assert rd.pairing(i, i) == 2
            for j in range(rd.num_roots):
                assert abs(rd.pairing(i, j)) <= 3


ORACLE_TYPES = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
                + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "G2", "F4",
                                                    "E6", "E7", "E8", "B3xA1"])


def _root_form_reference(rd):
    """Half-norms, pairings, root_X and coroot_Y one root at a time, in
    Python ints, from (alpha_i, alpha_j) = A[i][j] d_j on simple roots."""
    l, A, d = rd.l, rd.cartan.tolist(), rd.halfnorms

    def form(c, c2):
        return sum(c[i] * c2[j] * A[i][j] * d[j]
                   for i in range(l) for j in range(l))

    half = []
    for c in rd.coords:
        assert form(c, c) % 2 == 0
        half.append(form(c, c) // 2)
    pairing = []
    for c in rd.coords:
        row = []
        for j, c2 in enumerate(rd.coords):
            assert form(c, c2) % half[j] == 0
            row.append(form(c, c2) // half[j])
        pairing.append(row)
    root_X, coroot_Y = [], []
    for c, h in zip(rd.coords, half):
        assert all(c[j] * d[j] % h == 0 for j in range(l))
        u = [c[j] * d[j] // h for j in range(l)]   # in simple coroots
        if rd.lattice_kind == "sc":
            root_X.append(tuple(sum(c[i] * A[i][j] for i in range(l))
                                for j in range(l)))
            coroot_Y.append(tuple(u))
        else:
            root_X.append(tuple(c))
            coroot_Y.append(tuple(sum(A[j][a] * u[a] for a in range(l))
                                  for j in range(l)))
    return half, pairing, root_X, coroot_Y


@pytest.mark.parametrize("kind", ["sc", "ad"])
@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_root_form_matches_per_root_reference(t, kind):
    rd = rdm.build(t, kind)
    half, pairing, root_X, coroot_Y = _root_form_reference(rd)
    assert rd._halfnorm_of_root == half
    assert [[rd.pairing(i, j) for j in range(rd.num_roots)]
            for i in range(rd.num_roots)] == pairing
    assert rd.root_X == root_X and rd.coroot_Y == coroot_Y
    # Python ints throughout: ymat concatenates the coroot tuples
    assert all(type(x) is int for v in rd.root_X + rd.coroot_Y for x in v)
    assert all(sum(x * y for x, y in zip(rd.root_X[i], rd.coroot_Y[i])) == 2
               for i in range(rd.num_roots))


def test_roots_closed_under_reflection_and_negation():
    rd = rdm.build("G2")
    for i in range(rd.num_roots):
        assert rd.coords[rd.neg(i)] == tuple(-x for x in rd.coords[i])
        for j in range(rd.l):
            s = rd.simple_reflection(j)
            assert 0 <= s.perm[i] < rd.num_roots


def test_extraspecial_a2():
    rd = rdm.build("A2")
    xi = rd.root_index((1, 1))
    a, b = rdm.extraspecial_pair(rd, xi)
    assert rd.coords[a] == (1, 0) and rd.coords[b] == (0, 1)
    with pytest.raises(InputError):
        rdm.extraspecial_pair(rd, rd.simple_indices[0])


def test_extraspecial_b2():
    rd = rdm.build("B2")  # alpha_1 long, highest root alpha_1 + 2 alpha_2
    xi = rd.root_index((1, 2))
    a, b = rdm.extraspecial_pair(rd, xi)
    assert rd.coords[a] == (0, 1)
    assert rd.coords[b] == (1, 1)


def test_structure_constants_a2():
    rd = rdm.build("A2")
    i1, i2 = rd.simple_indices
    assert rdm.structure_constant(rd, i1, i2) == 1
    assert rdm.structure_constant(rd, i2, i1) == -1
    # alpha + beta not a root -> 0
    hi = rd.root_index((1, 1))
    assert rdm.structure_constant(rd, i1, hi) == 0
    with pytest.raises(InputError):
        rdm.structure_constant(rd, i1, rd.neg(i1))


@pytest.mark.parametrize("t", ["A3", "B2", "B3", "C3", "G2", "D4", "F4"])
def test_structure_constants_properties(t):
    rd = rdm.build(t)
    for (i, j), n in rd._N.items():
        assert n == -rd._N[(j, i)]
        assert n != 0
        assert abs(n) <= 3
    for xi, (a, b) in rd.extraspecial.items():
        assert 0 < rd._N[(a, b)] <= 3


def test_structure_constants_published_whole_to_concurrent_readers():
    rd = rdm.build("E6")
    want = dict(rdm.build("E6")._N)
    seen = []
    start = threading.Barrier(8)

    def read():
        start.wait(timeout=10)
        table = rd._N
        seen.append(len(table) == len(want) and table == want)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert seen == [True] * 8


def test_coxeter_orders():
    assert rdm.coxeter_element(rdm.build("A1")).order() == 2
    assert rdm.coxeter_element(rdm.build("A2")).order() == 3
    g2 = rdm.build("G2")
    w = rdm.coxeter_element(g2)
    assert w.order() == 6
    # every orbit of a Coxeter element on the roots has size h
    seen = [False] * g2.num_roots
    for s in range(g2.num_roots):
        if seen[s]:
            continue
        n, i = 0, s
        while not seen[i]:
            seen[i] = True
            i = w.perm[i]
            n += 1
        assert n == 6


def test_coxeter_rejects_products():
    with pytest.raises(InputError):
        rdm.coxeter_element(rdm.build("A1xA1"))


def test_weyl_element_perm_matrix_consistency():
    for t in ("A2", "B3", "G2"):
        for kind in ("sc", "ad"):
            rd = rdm.build(t, kind)
            w = rdm.coxeter_element(rd)
            M = w.ymat()
            for i in range(rd.num_roots):
                img = np.array(rd.coroot_Y[i], dtype=np.int64) @ M
                assert tuple(int(x) for x in img) == rd.coroot_Y[w.perm[i]]


def test_weyl_preserves_pairing():
    rd = rdm.build("B2")
    w = rdm.subcoxeter_element(rd)
    for i in range(rd.num_roots):
        for j in range(rd.num_roots):
            assert rd.pairing(w.perm[i], w.perm[j]) == rd.pairing(i, j)


def test_weyl_enumeration_orders():
    for t, order in [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24),
                     ("B3", 48), ("D4", 192), ("F4", 1152)]:
        rd = rdm.build(t)
        assert rd.weyl_elements_array().shape[0] == order


def test_derangements_small():
    assert rdm.reflection_derangement_stats(rdm.build("A2"))[2] \
        == Fraction(1, 3)
    assert rdm.reflection_derangement_stats(rdm.build("B2"))[2] \
        == Fraction(1, 4)
    assert rdm.reflection_derangement_stats(rdm.build("G2"))[2] \
        == Fraction(1, 3)
    # hand count for A3 = Sym_4: the 6 four-cycles and 8 three-cycles
    assert rdm.reflection_derangement_stats(rdm.build("A3"))[2] \
        == Fraction(14, 24)


def test_derangements_product_multiplies():
    c, t, prop = rdm.reflection_derangement_stats(rdm.build("A2xA2"))
    assert prop == Fraction(1, 9)
    c, t, prop = rdm.reflection_derangement_stats(rdm.build("A1xA2"))
    assert prop == 0  # A1 has no reflection derangements


def test_derangement_proportion_below_two_thirds():
    # D4 is the lone counterexample to the 2/3 bound: 37/48, confirmed by
    # the type-D inclusion-exclusion formula (136 - 24 + 12 + 24 = 148
    # derangements out of 192)
    for t in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D5", "D6",
              "G2", "F4"):
        prop = rdm.reflection_derangement_stats(rdm.build(t))[2]
        assert prop < Fraction(2, 3)
    assert rdm.reflection_derangement_stats(rdm.build("D4"))[2] \
        == Fraction(37, 48)


def test_enumeration_gate():
    rd = rdm.build("E7")
    with pytest.raises(EnumerationGate):
        rdm.reflection_derangement_stats(rd)


def _weyl_bfs(rd):
    """All Weyl elements as root permutations, by breadth-first closure
    under the simple reflections: the oracle for the chain stream."""
    gens = np.array([rd.simple_reflection(j).perm for j in range(rd.l)],
                    dtype=np.int32)
    ident = np.arange(rd.num_roots, dtype=np.int32)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = ident.reshape(1, -1)
    while frontier.size:
        fresh = []
        for g in gens:
            for row in g[frontier]:  # (w then s_g)(i) = g[w[i]]
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    fresh.append(row)
        frontier = np.array(fresh, dtype=np.int32).reshape(-1, rd.num_roots)
        rows.extend(fresh)
    return np.array(rows, dtype=np.int32)


ORACLE_TYPES = ("A3", "B3", "F4", "D5", "E6", "A1xA2")


def test_streaming_chain_matches_bfs():
    for t in ORACLE_TYPES:
        rd = rdm.build(t)
        ref = {tuple(r) for r in _weyl_bfs(rd).tolist()}
        assert len(ref) == rd.weyl_order()
        rows = [tuple(r) for ch in rd.iter_weyl_chunks()
                for r in ch.tolist()]
        assert len(rows) == len(ref)
        assert set(rows) == ref
        assert {tuple(r) for r in rd.weyl_elements_array().tolist()} == ref


def _sample_elements(rd):
    rng = np.random.default_rng(7)
    out = [rd.weyl_from_word(rng.integers(1, rd.l + 1, size=size).tolist())
           for size in (3, 6, 11)]
    if len(rd.components) == 1:
        out += [rdm.coxeter_element(rd), rdm.subcoxeter_element(rd)]
    return out


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_column_restricted_stats_match_full_permutations(t):
    rd = rdm.build(t)
    full = _weyl_bfs(rd)
    idx = np.arange(rd.num_roots)
    neg = np.array([rd.neg(i) for i in idx])
    deranged = int((~((full == idx) | (full == neg)).any(axis=1)).sum())
    count, total, _ = rdm.reflection_derangement_stats(rd)
    assert (count, total) == (deranged, full.shape[0])
    for w in _sample_elements(rd):
        wp = np.array(w.perm)
        commuting = int((wp[full] == full[:, wp]).all(axis=1).sum())
        assert rdm.centralizer_order(rd, w) == commuting


def test_qw_a1_coxeter():
    rd = rdm.build("A1")
    assert rdm.qw_polynomial(rd, rdm.coxeter_element(rd)) == [1, -1]


def _det_leibniz(w):
    """det_Y(1 - wX) by the Leibniz expansion over all n! permutations:
    the oracle for the Faddeev-LeVerrier recurrence."""
    M = w.ymat()
    n = M.shape[0]
    out = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        poly = [1]
        for i, j in enumerate(perm):
            poly = rdm._ipoly_mul(poly, [int(i == j), -int(M[i, j])])
        for k, c in enumerate(poly):
            out[k] += (-1) ** inversions * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("t", ["A6", "B6", "D5", "F4", "E6", "E7", "E8",
                               "A2xB3"])
def test_det_one_minus_xw_matches_leibniz(t):
    rd = rdm.build(t)
    if len(rd.components) == 1:
        elements = [rdm.coxeter_element(rd), rdm.subcoxeter_element(rd)]
    else:
        elements = [rd.weyl_from_word([1, 3, 2, 4, 5, 3, 1])]
    for w in elements:
        assert rdm.det_one_minus_xw(w) == _det_leibniz(w)


def test_qw_al_coxeter_product_form():
    for l in range(1, 9):
        rd = rdm.build(f"A{l}")
        got = rdm.qw_polynomial(rd, rdm.coxeter_element(rd))
        want = [1]
        for i in range(1, l + 1):
            want = rdm._ipoly_mul(want, rdm.one_minus_x_power(i))
        assert got == want


def test_qw_g2_coxeter():
    rd = rdm.build("G2")
    want = rdm._ipoly_mul(rdm._ipoly_mul(
        rdm.one_minus_x_power(2), rdm.one_minus_x_power(3)), [1, 1])
    assert rdm.qw_polynomial(rd, rdm.coxeter_element(rd)) == want


def test_qw_consistency_identity():
    # Q_w(1/q) * det_Y(qI - w) / q^n = prod (1 - q^-d_i), exact rationals
    q = 7
    for t in ("A2", "B3", "G2", "D4"):
        rd = rdm.build(t)
        for w in (rdm.coxeter_element(rd), rdm.subcoxeter_element(rd),
                  rd.identity_weyl()):
            qw = rdm.qw_polynomial(rd, w)
            qw_at = sum(Fraction(c, q ** k) for k, c in enumerate(qw))
            den = rdm.det_one_minus_xw(w)
            det_qw = sum(Fraction(c * q ** (rd.n - k))
                         for k, c in enumerate(den))
            lhs = qw_at * det_qw / q ** rd.n
            rhs = Fraction(1)
            for d in rd.degrees():
                rhs *= (1 - Fraction(1, q ** d))
            assert lhs == rhs


def test_orbit_constants_examples():
    rd = rdm.build("A1")
    assert rdm.orbit_constants(rd, rdm.coxeter_element(rd)) == (1,)
    assert rdm.orbit_constants(rd, rd.identity_weyl()) == (2,)
    b2 = rdm.build("B2")
    assert rdm.constants_table_row(b2) == (8, 4, 0)


def test_orbit_constants_sum_is_orbit_count():
    for t in ("A3", "B3", "G2", "D4"):
        rd = rdm.build(t)
        for w in (rdm.coxeter_element(rd), rdm.subcoxeter_element(rd)):
            cs = rdm.orbit_constants(rd, w)
            orbits = 0
            seen = [False] * rd.num_roots
            for s in range(rd.num_roots):
                if not seen[s]:
                    orbits += 1
                    i = s
                    while not seen[i]:
                        seen[i] = True
                        i = w.perm[i]
            assert sum(cs) == orbits


def test_coxeter_ci_vanish_low_for_classical():
    for t in ("A4", "A5", "B4", "B5", "D5", "D6"):
        rd = rdm.build(t)
        cs = rdm.orbit_constants(rd, rdm.coxeter_element(rd))
        for i in range(1, rd.l + 1):
            if i < rd.l / 2:
                assert cs[i - 1] == 0


def test_subcoxeter_shapes():
    assert rdm.subcoxeter_element(rdm.build("A1")).is_identity()
    g2 = rdm.build("G2")
    w = rdm.subcoxeter_element(g2)
    assert w.order() == 2  # a reflection
    for t in ("A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "E6"):
        rd = rdm.build(t)
        w = rdm.subcoxeter_element(rd)
        if not w.is_identity():
            assert w.fixes_some_reflection()


def test_constants_table_rows_small():
    # tabulated small-rank rows (c, c_1..c_l)
    expected = {
        "A1": (2, 1), "A2": (2, 1, 2), "B2": (8, 4, 0), "G2": (4, 3, 4),
        "A3": (8, 2, 4, 0), "B3": (8, 1, 2, 2), "D4": (16, 5, 8, 0, 0),
        "F4": (36, 3, 1, 6, 0),
    }
    for t, want in expected.items():
        assert rdm.constants_table_row(rdm.build(t)) == want
