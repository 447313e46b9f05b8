"""Solvers for the twisted conjugation equation a^(-F) a = c in GL, SL,
Sp, SO and split tori over finite fields, with exact verification.

The minimum field degree r of c and the order s of the norm element
c^(F^(r-1)) ... c^F c determine the level k_rs where a solution lives; the
returned element always has minimum field degree exactly rs.  A
`LangInstance` validates c once.  Two F-eigenspace routines are provided:
a deterministic one over the prime field, and the randomized summation
method whose accumulate is itself the GL solution (the telescoping identity
a^F c = a is checked on every success).  `GROUP_KINDS` holds what each
group kind adds: every solve is that accumulate at k_rs (a torus, per
component at its own level), the kind's normaliser (SL scales by the
volume; Sp and SO take Witt coordinates over k against the eigenbasis's
Gram matrix) and `verify`.

Everything returns verified certificates; verification is exact, entrywise,
reports the first failing relation on bad input, and is the one det = 1
check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, InputError, VerificationError
from .ff import FqElement, _mult_matrix, _poly_mul_reduce, embed, \
    fixed_nonsquare, sqrt, solve_diag_quadratic
from .linalg import Mat, _descend, fixed_space, matrix_order

__all__ = [
    "BilinearFormFq", "LangInstance", "LangCertificate", "GroupKind",
    "GROUP_KINDS", "group_kind", "min_field_degree", "norm_and_order",
    "f_eigenspace_det", "f_eigenspace_lv", "solve_gl", "solve_sl",
    "solve_sp", "solve_so", "solve_torus", "solve", "verify",
    "normal_basis", "canonical_gram", "random_instance",
    "random_group_element",
]

_LV_RETRY_CAP = 64
# largest level k_rs a solve may build: the bench and test instances reach
# rs = 12, and building GF(q^rs) costs time that grows with e * rs
MAX_DEGREE = 64


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------

def _antidiag(level, n):
    M = Mat.zeros(level, n, n)
    for i in range(n):
        M.planes[0, i, n - 1 - i] = 1
    return M


def canonical_gram(level, kind, d, variant="split"):
    """The reference Gram matrices: the antidiagonal A_d, its delta
    variants, and the symplectic block form."""
    if kind == "symplectic":
        if d % 2:
            raise InputError("symplectic forms need even dimension")
        half = d // 2
        M = Mat.zeros(level, d, d)
        A = _antidiag(level, half)
        M.planes[:, :half, half:] = A.planes
        M.planes[:, half:, :half] = (-A.planes) % level.p
        return M
    if kind != "orthogonal":
        raise InputError(f"unknown form kind {kind!r}")
    if variant == "split":
        return _antidiag(level, d)
    delta = fixed_nonsquare(level)
    M = Mat.zeros(level, d, d)
    half = (d - 1) // 2 if d % 2 else d // 2 - 1
    for i in range(half):
        M.planes[:, i, d - 1 - i] = level.one.coeffs
        M.planes[:, d - 1 - i, i] = level.one.coeffs
    if d % 2:
        M.planes[:, half, half] = delta.coeffs
    else:
        M.planes[:, half, half] = level.one.coeffs
        M.planes[:, half + 1, half + 1] = (-delta).coeffs
    return M


def _is_canonical_gram(level, kind, M):
    d = M.nrows
    if kind == "symplectic":
        return M == canonical_gram(level, kind, d)
    return M == canonical_gram(level, kind, d, "split") \
        or M == canonical_gram(level, kind, d, "nonsplit")


@dataclass
class BilinearFormFq:
    """A nondegenerate symplectic or orthogonal form over the base level."""
    kind: str
    gram: Mat
    delta: FqElement = None

    def __post_init__(self):
        level = self.gram.level
        if level.p == 2:
            raise InputError("forms require odd characteristic")
        if self.kind not in ("symplectic", "orthogonal"):
            raise InputError(f"unknown form kind {self.kind!r}")
        Mt = self.gram.transpose()
        if self.kind == "symplectic":
            # in odd characteristic, M^T = -M puts zeros on the diagonal
            if not (self.gram + Mt).is_zero():
                raise InputError("symplectic Gram must be alternating")
        elif not self.gram == Mt:
            raise InputError("orthogonal Gram must be symmetric")
        if not self.gram.det():
            raise InputError("form is degenerate")
        if self.delta is None:
            self.delta = fixed_nonsquare(level)

    @functools.cached_property
    def normalized(self):
        """(P, P^-1, the form in the basis P) for a normal basis P of the
        whole space, in which the Gram matrix is canonical; built on first
        use and kept.  When P = I, as for every canonical Gram matrix, this
        is (None, None, self): there is no change of basis to make."""
        level1 = self.gram.level
        P = _normal_coords(self.gram, self)
        M0 = P @ self.gram @ P.transpose()
        if not _is_canonical_gram(level1, self.kind, M0):
            raise VerificationError("normal basis Gram not canonical")
        if P == Mat.identity(level1, P.nrows):
            return None, None, self
        return P, P.inverse(), BilinearFormFq(self.kind, M0, self.delta)


# ---------------------------------------------------------------------------
# Instances and certificates
# ---------------------------------------------------------------------------

@dataclass
class LangInstance:
    """(group kind, c, r, s) with the invariants validated up front.  A
    torus keeps each component as (c_i over k_(r_i) as a 1 x 1 matrix, r_i,
    s_i); s comes from them, as N_r(c_i) = N_(r_i)(c_i)^(r/r_i)."""
    kind: str
    tower: object
    c: object                  # Mat for matrix groups, list for Torus
    r: int = None
    s: int = None
    form: BilinearFormFq = None
    trust_s: bool = False
    order_cap: int = 10 ** 6
    max_degree: int = MAX_DEGREE

    def __post_init__(self):
        kind, tower = self.kind, self.tower
        group = group_kind(kind, "group kind")
        if self.form is not None and self.form.kind != group.form_kind:
            raise InputError(
                f"{kind} takes no form" if group.form_kind is None else
                f"{kind} needs a form of kind {group.form_kind!r}, not "
                f"{self.form.kind!r}")
        for name, value in (("r", self.r), ("s", self.s)):
            if value is not None and value < 1:
                raise InputError(f"claimed {name} = {value} must be >= 1")
        if group.components:
            if not isinstance(self.c, (list, tuple)) or not self.c:
                raise InputError("torus instance needs a component list")
            if any(not x for x in self.c):
                raise InputError("torus entries must be invertible")
            self.d = len(self.c)
            ones = [Mat.diagonal(self.c[0].level, [x]) for x in self.c]
            degrees = [min_field_degree(tower, x) for x in ones]
            r_true = math.lcm(*degrees)
        else:
            cmat = self.c
            self.d = cmat.nrows
            if cmat.nrows != cmat.ncols:
                raise InputError("c must be square")
            det = cmat.det()
            if not det:
                raise InputError("c must be invertible")
            r_true = min_field_degree(tower, cmat)
        if self.r is None:
            self.r = r_true
        elif self.r != r_true:
            raise InputError(
                f"claimed r = {self.r} but the minimum field degree is "
                f"{r_true}")
        if group.components:
            # a claimed torus s is always compared: the solve needs the s_i
            lows = [_at_level(tower, x, ri) for x, ri in zip(ones, degrees)]
            self.components = [
                (x, ri, norm_and_order(tower, x, ri, cap=self.order_cap)[1])
                for x, ri in zip(lows, degrees)]
            s_true = math.lcm(*(si // math.gcd(si, r_true // ri)
                                for _, ri, si in self.components))
            if self.c[0].level.r != r_true:
                self.c = [embed(x.entry(0, 0), r_true) for x in lows]
        else:
            if cmat.level.r != r_true:
                # normalize the carrier to the minimal level
                cmat = self.c = _at_level(tower, cmat, r_true)
            if group.form_kind:
                if self.form is None:
                    self.form = group.default_form(tower.level(1), self.d)
                G = self.form.gram.embed(cmat.level.r)
                if not cmat @ G @ cmat.transpose() == G:
                    raise InputError("c does not preserve the form")
            # det was taken of c as given, before any descent
            if group.det_one and det != det.level.one:
                raise InputError(group.det_one)
            s_true = None  # a trusted s skips the norm order
            if self.s is None or not self.trust_s:
                s_true = norm_and_order(tower, cmat, self.r,
                                        cap=self.order_cap)[1]
        if self.s is None:
            self.s = s_true
        elif s_true is not None and self.s != s_true:
            raise InputError(
                f"claimed s = {self.s} but the norm order is {s_true}")
        self.rs = self.r * self.s
        # k_rs must fit the int64 products (an input error, as in
        # tower.extend) and the degree budget, before any level is built
        tower.check_degree(self.rs)
        if self.rs > self.max_degree:
            raise BudgetExhausted(
                f"a solution needs the level k_{self.rs} (r = {self.r}, "
                f"s = {self.s}), past the degree budget {self.max_degree}")


def _at_level(tower, cmat, r):
    """cmat over k_r, which holds its entries."""
    if cmat.level.r == r:
        return cmat
    low = _descend(cmat, tower.level(tower.extend(r)))
    if low is None:
        raise VerificationError("F^r-fixed entries must descend")
    return low


@dataclass
class LangCertificate:
    """A verified solution with its check record."""
    instance: LangInstance
    a: object
    level: int
    s: int
    checks: dict
    ok: bool

    def to_json(self):
        a = self.a
        return {"a": a.to_json() if isinstance(a, Mat)
                else [x.to_json() for x in a],
                "level": self.instance.tower.level(self.level).spec_string(),
                "s": self.s, "checks": self.checks, "ok": self.ok}


# ---------------------------------------------------------------------------
# Minimum field degree and norms
# ---------------------------------------------------------------------------

def min_field_degree(tower, g):
    """Least r dividing the carrier level with g^(F^r) = g."""
    t = g.level.r
    for r in range(1, t + 1):
        if t % r == 0 and g.frobenius(r) == g:
            return r
    raise VerificationError("F^level must fix the element")  # pragma: no cover


def norm_and_order(tower, c, r=None, cap=10 ** 6):
    """(N, s) with N = c^(F^(r-1)) ... c^F c and s its matrix order."""
    if r is None:
        r = min_field_degree(tower, c)
    N = c
    for i in range(1, r):
        N = c.frobenius(i) @ N
    if not N.frobenius(r) == N:
        raise VerificationError("norm not fixed by F^r")
    # a nonzero 1 x 1 norm fixed by F lies in k^*: its order divides q - 1
    multiple = None
    if N.nrows == 1 and N.planes.any() and N.frobenius(1) == N:
        multiple = tower.level(1).order - 1
    s = matrix_order(N, cap=cap, multiple=multiple)
    return N, s


# ---------------------------------------------------------------------------
# F-eigenspaces
# ---------------------------------------------------------------------------

def f_eigenspace_det(instance):
    """Deterministic eigenspace: fixed points of S^(+d) C over GF(p).

    Views k_rs^d as a GF(p)-space of dimension d*e*r*s and returns a
    k-basis of {v : v^F c = v} (d rows over level rs)."""
    tower = instance.tower
    rs = tower.extend(instance.rs)
    level = tower.level(rs)
    c = GROUP_KINDS[instance.kind].as_matrix(instance.c).embed(rs)
    d, m, p, S = instance.d, level.m, level.p, level.frob_q
    big = np.zeros((d * m, d * m), dtype=np.int64)
    for j in range(d):
        for j2 in range(d):
            e = c.entry(j, j2)
            if e:
                big[j * m:(j + 1) * m, j2 * m:(j2 + 1) * m] = \
                    S @ _mult_matrix(e.coeffs, level) % p
    plevel = tower.prime_level()
    fixed = fixed_space(Mat.from_int_rows(plevel, big % p))
    if fixed.nrows != d * tower.e:
        raise VerificationError("eigenspace dimension mismatch")
    # row i of fixed holds entry j of vector i in columns j*m .. j*m + m - 1
    vectors = Mat(level, fixed.planes[0].reshape(-1, d, m)
                  .transpose(2, 0, 1).copy()).rows()
    basis = _select_k_basis(tower, vectors, d)
    for v in basis.rows():
        if v.frobenius(1) @ c != v:
            raise VerificationError("basis vector not F-fixed")
    return basis


def _relative_coords(tower, x):
    """Coordinates of a level element over k, on the basis of theta-powers
    times a basis of k."""
    level, sub = x.level, tower.level(1)
    ratio = level.m // sub.m
    inv = level.__dict__.get("_rel_inv")
    if inv is None:
        rows = []
        theta_pow = (1,) + (0,) * (level.m - 1)
        theta = tuple(int(i == 1) for i in range(level.m))
        for j in range(ratio):
            for a in range(sub.m):
                base_elt = embed(sub.element([int(i == a)
                                              for i in range(sub.m)]),
                                 level.r)
                rows.append(_poly_mul_reduce(base_elt.coeffs, theta_pow,
                                             level))
            theta_pow = _poly_mul_reduce(theta_pow, theta, level)
        mat = Mat.from_int_rows(tower.prime_level(),
                                np.array(rows, dtype=np.int64))
        inv = level._rel_inv = mat.inverse().planes[0]
    sol = np.array(x.coeffs, dtype=np.int64) @ inv % level.p
    return [sub.element(sol[j * sub.m:(j + 1) * sub.m])
            for j in range(ratio)]


def _select_k_basis(tower, vectors, want):
    """Pick a k-linearly independent subset spanning the k-span."""
    level1 = tower.level(1)
    chosen = []
    stacked = None
    for v in vectors:
        cand = Mat.from_entries(level1, [[
            x for j in range(v.ncols)
            for x in _relative_coords(tower, v.entry(0, j))]])
        trial = cand if stacked is None else Mat.vstack([stacked, cand])
        if trial.rank() > (0 if stacked is None else stacked.nrows):
            stacked = trial.row_space()
            chosen.append(v)
        if len(chosen) == want:
            break
    if len(chosen) != want:
        raise VerificationError("could not extract a k-basis")
    return Mat.vstack(chosen)


def f_eigenspace_lv(c, rs, rng):
    """Las Vegas eigenspace of the carrier matrix c (over a level dividing
    rs) at k_rs: a = sum_i x^(F^i) c^(F^(i-1)) ... c for random x, accepted
    when invertible, accumulated by Horner's rule as a <- x + a^F c.
    Returns (a, det a); the rows of a are a k-basis of the F-eigenvectors
    E(k), and a itself is the GL solution."""
    tower = c.level.tower
    level = tower.level(tower.extend(rs))
    c = c.embed(rs)
    d = c.nrows
    for _ in range(_LV_RETRY_CAP):
        x = Mat.random(level, d, d, rng)
        a = x
        for _ in range(1, rs):
            a = x + a.frobenius(1) @ c
        det = a.det()
        if not det:
            continue
        if a.frobenius(1) @ c != a:
            raise VerificationError("telescoping identity failed")
        return a, det
    raise BudgetExhausted(
        f"no invertible accumulate in {_LV_RETRY_CAP} draws")


# ---------------------------------------------------------------------------
# Normalisers: from the eigenspace accumulates to the solution
# ---------------------------------------------------------------------------

def _normalise_gl(instance, accumulates):
    """The accumulate is the GL solution."""
    return accumulates[0][0]


def _unit_det(g, det):
    """g, with row 0 divided by det = det g: det 1, in place."""
    g.planes[:, 0, :] = (g.row(0) * det.inverse()).planes[:, 0, :]
    return g


def _normalise_sl(instance, accumulates):
    """The accumulate scaled by its volume, which lies in k."""
    (a, vol), = accumulates
    if vol.frobenius(1) != vol:
        raise VerificationError("volume must lie in the base field")
    return _unit_det(a, vol)


def _normalise_form(instance, accumulates):
    """The Witt coordinates of the eigenbasis a, taken in the basis P in
    which the form is canonical, all over k: the recursion runs on
    coordinates against G_E = descend(a M0 a^T), so B = C a for the normal
    coordinates C, its Gram matrix is C G_E C^T and, for SO, det B = det C
    det a."""
    (a, det_a), = accumulates
    form = instance.form
    d, rs = instance.d, instance.rs
    # P and P^-1 live over level 1; the form in the basis P is canonical
    P, Pinv, norm_form = form.normalized
    M0 = norm_form.gram
    # rows of a form a k-basis of E(k); the restricted form is over k
    G_E = _restricted_gram(a, norm_form)
    C = _normal_coords(G_E, norm_form)
    if C @ G_E @ C.transpose() != M0:
        raise VerificationError(
            "normal eigenbasis Gram differs from the reference; "
            "determinant classes forbid this for SO input"
            if form.kind == "orthogonal" else "symplectic Gram mismatch")
    B = C.embed(rs) @ a
    if form.kind == "orthogonal":
        one = a.level.one
        vol = embed(C.det(), rs) * det_a
        if vol * vol != one:
            raise VerificationError("vol^2 != 1 in SO")
        if vol != one:
            # a reflection: swap the split pair x_1, y_1, or negate the
            # middle row d // 2, of norm delta or -delta
            if M0 == canonical_gram(M0.level, "orthogonal", d, "split"):
                B.planes[:, [0, d - 1], :] = B.planes[:, [d - 1, 0], :]
            else:
                B.planes[:, d // 2, :] = (-B.planes[:, d // 2, :]) % B.level.p
    if P is not None:
        B = Pinv.embed(rs) @ B @ P.embed(rs)
    return B


def _normalise_torus(instance, accumulates):
    """Each component's GL_1 solution, from its own level k_(r_i s_i),
    which divides k_rs."""
    return [a.embed(instance.rs).entry(0, 0) for a, _ in accumulates]


# ---------------------------------------------------------------------------
# Normal bases for forms (Witt-style recursion, odd characteristic)
# ---------------------------------------------------------------------------

def normal_basis(rows, form):
    """A basis of the row space whose Gram matrix is bit-exactly one of the
    canonical matrices.  The construction is rational over the base field:
    all quadratic equations are solved in k and only k-linear combinations
    of the input rows are taken, so it runs on their coordinates over k
    against the restricted Gram matrix."""
    C = _normal_coords(_restricted_gram(rows, form), form)
    return (C.embed(rows.level.r) @ rows).rows()


def _restricted_gram(rows, form):
    """The Gram matrix of the form on the rows, over k: the rows span the
    k-points of a space the form is defined on over k."""
    G = rows @ form.gram.embed(rows.level.r) @ rows.transpose()
    if rows.level.r == 1:
        return G
    low = _descend(G, form.gram.level)
    if low is None:
        raise VerificationError("restricted Gram not over the base field")
    return low


def _normal_coords(G, form):
    """C over k with C G C^T canonical, for a nondegenerate Gram matrix G
    over k of the form's kind: the Witt recursion on the coordinate rows
    of the standard basis, where every pairing is a block of U G V^T."""
    def gram_of(U, V):
        """The pairings of the rows of U with the rows of V."""
        return U @ G @ V.transpose()

    rows = Mat.identity(G.level, G.nrows)
    if form.kind == "symplectic":
        out = _symplectic_normal_basis(rows, gram_of)
    else:
        out = _orthogonal_normal_basis(rows, gram_of, form.delta)
    return Mat.vstack(out)


def _pair(gram_of, u, v):
    return gram_of(u, v).entry(0, 0)


def _first_nonzero(block, start=0):
    """Index of the first nonzero entry of a 1 x n block from `start`."""
    nz = np.flatnonzero(block.planes[:, 0, start:].any(axis=0))
    return int(nz[0]) + start if nz.size else None


def _perp_in(rows, gram_of, spans):
    """Rows of the subspace orthogonal to the given vectors."""
    return gram_of(rows, Mat.vstack(spans)).left_kernel() @ rows


def _symplectic_normal_basis(rows, gram_of):
    d = rows.nrows
    if d == 0:
        return []
    if d % 2:
        raise InputError("odd-dimensional symplectic space")
    u = rows.row(0)
    pairs = gram_of(u, rows)
    i = _first_nonzero(pairs, 1)
    if i is None:
        raise InputError("degenerate symplectic form")
    v = rows.row(i) * pairs.entry(0, i).inverse()
    rest = _perp_in(rows, gram_of, [u, v])
    if rest.nrows != d - 2:
        raise VerificationError("complement has the wrong dimension")
    inner = _symplectic_normal_basis(rest, gram_of) if d > 2 else []
    half_inner = len(inner) // 2
    xs = [u] + inner[:half_inner]
    ys = inner[half_inner:] + [v]
    # Gram([x_1..x_l, y_1..y_l]) = [[0, A_l], [-A_l, 0]] with pairs
    # (x_i, y_(l+1-i)) hyperbolic
    return xs + ys


def _find_anisotropic(rows, G):
    """The first row, else the first sum r_i + r_j (i < j), of nonzero
    norm; G is the symmetric Gram block of the rows.  Once every G_ii is
    0, (r_i + r_j, r_i + r_j) = 2 G_ij, nonzero exactly when G_ij is in
    odd characteristic."""
    planes = G.planes
    d = rows.nrows
    nz = np.flatnonzero(planes[:, range(d), range(d)].any(axis=0))
    if nz.size:
        return rows.row(int(nz[0]))
    nz = np.argwhere(np.triu(planes.any(axis=0), 1))
    if not nz.size:
        return None
    i, j = (int(x) for x in nz[0])
    return rows.row(i) + rows.row(j)


def _find_isotropic(rows, gram_of):
    """A nonzero isotropic vector, or None for anisotropic spaces."""
    d = rows.nrows
    G = gram_of(rows, rows)
    for i in range(d):
        if not G.planes[:, i, i].any() and not rows.row(i).is_zero():
            return rows.row(i)
    if d < 2:
        return None
    u = _find_anisotropic(rows, G)
    uu = _pair(gram_of, u, u)
    rest = _perp_in(rows, gram_of, [u])
    v = _find_anisotropic(rest, gram_of(rest, rest))
    if v is None:
        return None
    vv = _pair(gram_of, v, v)
    if d == 2:
        # isotropic iff -vv/uu is a square
        root = sqrt(-vv / uu)
        if root is None:
            return None
        return u * root + v
    w_rows = _perp_in(rows, gram_of, [u, v])
    w = _find_anisotropic(w_rows, gram_of(w_rows, w_rows))
    if w is None:
        # degenerate tail cannot happen for nondegenerate forms
        raise InputError("degenerate form detected mid-recursion")
    ww = _pair(gram_of, w, w)
    # (u,u)a^2 + (v,v)b^2 = -(w,w), always solvable over a finite field
    sol = solve_diag_quadratic(uu, vv, -ww)
    if sol is None:
        raise VerificationError("isotropic vector equation unsolved")
    a, b = sol
    return u * a + v * b + w


def _orthogonal_normal_basis(rows, gram_of, delta):
    d = rows.nrows
    if d == 0:
        return []
    if d == 1:
        u = rows.row(0)
        uu = _pair(gram_of, u, u)
        if not uu:
            raise InputError("degenerate form detected mid-recursion")
        a = sqrt(uu)
        if a is None:
            a = sqrt(uu / delta)
            if a is None:
                raise VerificationError("anisotropic line has no unit vector")
        return [u * a.inverse()]
    x = _find_isotropic(rows, gram_of)
    if x is None:
        # anisotropic: only possible for d <= 2
        if d != 2:
            raise VerificationError("anisotropic space of dimension > 2")
        u = _find_anisotropic(rows, gram_of(rows, rows))
        uu = _pair(gram_of, u, u)
        rest = _perp_in(rows, gram_of, [u])
        v = rest.row(0)
        vv = _pair(gram_of, v, v)
        sol = solve_diag_quadratic(uu, vv, rows.level.one)
        if sol is None:
            raise VerificationError("anisotropic plane does not represent 1")
        a, b = sol
        x1 = u * a + v * b
        # y0 = (v,v)b u - (u,u)a v is orthogonal to x1 with norm
        # (u,u)(v,v); anisotropy makes (u,u)(v,v)/(-delta) a square, so y0
        # rescales to norm exactly -delta
        y0 = u * (vv * b) - v * (uu * a)
        t = sqrt(uu * vv / (-delta))
        if t is None:
            raise VerificationError("plane is not anisotropic after all")
        y1 = y0 * t.inverse()
        if _pair(gram_of, y1, y1) != -delta or _pair(gram_of, x1, y1):
            raise VerificationError("anisotropic plane basis not normal")
        return [x1, y1]
    # split off a hyperbolic pair through x
    pairs = gram_of(x, rows)
    i = _first_nonzero(pairs)
    if i is None:
        raise VerificationError("degenerate form detected mid-recursion")
    y = rows.row(i) * pairs.entry(0, i).inverse()
    yy = _pair(gram_of, y, y)
    if yy:
        two_inv = (rows.level.one + rows.level.one).inverse()
        y = y - x * (yy * two_inv)
        if _pair(gram_of, y, y):
            raise VerificationError("hyperbolic partner not isotropic")
    if d == 2:
        return [x, y]
    rest = _perp_in(rows, gram_of, [x, y])
    if rest.nrows != d - 2:
        raise VerificationError("complement has the wrong dimension")
    inner = _orthogonal_normal_basis(rest, gram_of, delta)
    return [x] + inner + [y]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify(instance, a, strict=False):
    """Exact verification; returns a certificate (ok flag, check record)."""
    group = GROUP_KINDS[instance.kind]
    amat = group.as_matrix(a)
    level = amat.level
    rs = instance.rs
    # for invertible a, a^(-F) a = c is a = F(a) c: one det decides
    # invertibility and det = 1, and no inverse is taken
    det = amat.det()
    checks = {"invertible": bool(det)}
    if det:
        rhs = amat.frobenius(1) @ group.as_matrix(instance.c).embed(level.r)
        checks["lang_equation"] = amat == rhs
        if not checks["lang_equation"]:
            bad = np.argwhere((amat.planes != rhs.planes).any(axis=0))
            checks["first_bad_entry"] = [int(x) for x in bad[0]]
        mfd = min_field_degree(instance.tower, amat)
        checks["min_field_degree"] = {"expected": rs, "found": mfd,
                                      "ok": mfd == rs}
        if group.det_one:
            checks["det_one"] = det == level.one
        if group.form_kind:
            G = instance.form.gram.embed(level.r)
            checks["form_preserved"] = amat @ G @ amat.transpose() == G
    ok = bool(det) and checks["lang_equation"] and mfd == rs \
        and checks.get("det_one", True) and checks.get("form_preserved", True)
    cert = LangCertificate(instance=instance, a=a, level=level.r,
                           s=instance.s, checks=checks, ok=ok)
    if strict and not ok:
        raise VerificationError(f"verification failed: {checks}")
    return cert


# ---------------------------------------------------------------------------
# Random elements and seeded instances (used by the test suites and the CLI
# demos)
# ---------------------------------------------------------------------------

def _random_linear(group, level, d, rng, form):
    """A uniform invertible matrix, scaled to det 1 when the group needs
    it."""
    while True:
        g = Mat.random(level, d, d, rng)
        det = g.det()
        if det:
            return _unit_det(g, det) if group.det_one else g


def _random_isometry(group, level, d, rng, form):
    """A Cayley transform (I - K)(I + K)^-1, K = A M^-1 for A symmetric
    (symplectic M) or alternating (orthogonal M)."""
    M = form.gram.embed(level.r)
    Minv = M.inverse()
    while True:
        A = Mat.random(level, d, d, rng)
        A = A + A.transpose() if group.form_kind == "symplectic" \
            else A - A.transpose()
        K = A @ Minv
        I = Mat.identity(level, d)
        IKinv = (I + K).try_inverse()
        if IKinv is None:
            continue
        g = (I - K) @ IKinv
        if g @ M @ g.transpose() != M:
            raise VerificationError("Cayley transform leaves the form")
        if group.det_one and g.det() != level.one:
            raise VerificationError("Cayley transform not in SO")
        return g


def _random_units(group, level, d, rng, form):
    return [level.element(rng.randrange(1, level.order)) for _ in range(d)]


def random_group_element(tower, kind, d, level_r, rng, form=None):
    """A random element of the group over k_(level_r): uniform invertible
    for GL, volume-normalized for SL, Cayley transforms for Sp/SO."""
    group = group_kind(kind)
    level = tower.level(tower.extend(level_r))
    return group.random_element(group, level, d, rng, form)


def random_instance(tower, kind, d, target_level, rng, form=None,
                    max_rs=None, order_cap=10 ** 6):
    """c := a0^(-F) a0 for a random group element a0 at the target level,
    which guarantees solvability with rs dividing the target level."""
    group = group_kind(kind)
    if form is None:
        form = group.default_form(tower.level(1), d)
    a0 = random_group_element(tower, kind, d, target_level, rng, form=form)
    c = [x.frobenius(1).inverse() * x for x in a0] if group.components \
        else a0.frobenius(1).inverse() @ a0
    inst = LangInstance(kind=kind, tower=tower, c=c, form=form,
                        order_cap=order_cap)
    if max_rs is not None and inst.rs > max_rs:
        return None
    return inst


# ---------------------------------------------------------------------------
# Group kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupKind:
    """What one group kind adds to the GL solve.  Every solve is the
    eigenspace accumulate of the kind's carriers, its normaliser, then
    `verify`; the other fields say what `LangInstance` and `verify` check
    and how `random_group_element` draws."""
    solver: str             # the public solve_<kind>, looked up by name at
                            # call time, so that a rebinding of it runs
    normalise: object       # (instance, [(accumulate, det)]) -> solution
    random_element: object  # (group kind, level, d, rng, form) -> element
    form_kind: str = None   # the kind of the form kept; None: no form
    det_one: str = None     # the InputError for det(c) != 1; None: any det
    components: bool = False  # c and a are lists of units: a split torus

    def as_matrix(self, x):
        """The carrier as a matrix: a component list is its diagonal."""
        return Mat.diagonal(x[0].level, list(x)) if self.components else x

    def default_form(self, level1, d):
        """The canonical form of the kind over k, or None without one."""
        if self.form_kind is None:
            return None
        return BilinearFormFq(self.form_kind,
                              canonical_gram(level1, self.form_kind, d))

    def carriers(self, instance):
        """(matrix, n) for each eigenspace, taken at k_n, that the
        normaliser reads: each torus component at k_(r_i s_i), else c at
        k_rs, in the basis P in which the form is canonical."""
        if self.components:
            return [(c, r * s) for c, r, s in instance.components]
        c = instance.c
        if self.form_kind:
            P, Pinv, _ = instance.form.normalized
            if P is not None:
                c = P.embed(c.level.r) @ c @ Pinv.embed(c.level.r)
        return [(c, instance.rs)]


def _solver(kind, message):
    """The public solve_<kind>: eigenspace, normalise, verify."""
    def solve_kind(instance, rng):
        if instance.kind != kind:
            raise InputError(message)
        group = GROUP_KINDS[kind]
        carriers = group.carriers(instance)
        instance.tower.extend(instance.rs)
        accumulates = [f_eigenspace_lv(c, n, rng) for c, n in carriers]
        return verify(instance, group.normalise(instance, accumulates),
                      strict=True)
    return solve_kind


GROUP_KINDS = {
    "GL": GroupKind("solve_gl", _normalise_gl, _random_linear),
    "SL": GroupKind("solve_sl", _normalise_sl, _random_linear,
                    det_one="SL requires det(c) = 1"),
    "Sp": GroupKind("solve_sp", _normalise_form, _random_isometry,
                    form_kind="symplectic"),
    # det(c) != 1 is the disconnected coset of O: no solution exists
    "SO": GroupKind("solve_so", _normalise_form, _random_isometry,
                    form_kind="orthogonal",
                    det_one="det(c) != 1; the twisted equation has no "
                            "solution in this group"),
    "Torus": GroupKind("solve_torus", _normalise_torus, _random_units,
                       components=True),
}
# `solve` reaches these through the table's solver names, at call time
solve_gl = _solver("GL", "solve_gl needs a GL instance")
solve_sl = _solver("SL", "solve_sl needs an SL instance")
solve_sp = _solver("Sp", "solve_sp needs an Sp instance")
solve_so = _solver("SO", "solve_so needs an SO instance")
solve_torus = _solver("Torus", "solve_torus needs a Torus instance")


def group_kind(kind, what="kind"):
    """The table entry of a group kind; InputError for an unknown one."""
    group = GROUP_KINDS.get(kind) if isinstance(kind, str) else None
    if group is None:
        raise InputError(f"unknown {what} {kind!r}")
    return group


def solve(instance, rng):
    """Dispatch on the instance kind to its solve_<kind>, looked up by name
    at call time."""
    return globals()[group_kind(instance.kind).solver](instance, rng)
