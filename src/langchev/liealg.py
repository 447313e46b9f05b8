"""Structure-constant p-Lie algebras over tower levels and the split
maximal toral subalgebra machinery: toral searches, generalized roots,
direct-sum components, and standard Chevalley basis construction and
recognition.  `LieAlgebraFq` refuses characteristic <= 3, so every algebra
here, and every search on one, has p > 3.

Vectors are coordinate rows; the structure tensor T satisfies
[b_i, b_j] = sum_k T[i,j,k] b_k, and ad(x) is the matrix with
y @ ad(x) = [y, x].  ad of a basis of k rows is one d x kd block row, so
abelian tests, centralizers and the center (the left kernel of ad L) are
each one product or one kernel, and one closure loop yields both the
subalgebra and the ideal a span generates.  The p-power map is only ever
used modulo the center, through ad(y) = (ad x)^p, so no s_i terms are
needed anywhere.

All searches are Las Vegas: they take an explicit RNG, verify their
candidate before returning, and raise BudgetExhausted rather than ever
returning an unverified answer.  Their budgets are constants of the
algorithm, scaled by the rank r of `_rank`: 64 r toral draws, and
max(12, ceil(8 r log(r + 1))) split draws, each of which either returns a
verified split torus or is redrawn.
"""

from __future__ import annotations

import logging
import math
import random
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExhausted, InputError, RecognitionError,
                     VerificationError)
from .ff import FqElement, _check_word_size
from .linalg import Mat, _descend, _planes_matmul, factor

log = logging.getLogger(__name__)

__all__ = [
    "LieAlgebraFq", "Subalgebra", "GeneralizedRoot", "ChevalleyBasisFq",
    "from_root_datum", "bracket", "ad_matrix", "center",
    "centralizer", "is_abelian", "p_power_mod_center", "is_split_toral",
    "is_regular_semisimple", "maximal_toral_subalgebra", "generalized_roots",
    "f_minus", "gr_degree", "components", "split_maximal_toral_subalgebra",
    "root_decomposition", "standard_chevalley_basis",
    "verify_chevalley_basis", "random_inner_automorphism", "scramble_basis",
]


# toral draws per unit of rank; fewest split draws and split draws per
# unit of r log(r + 1); deepest split-search recursion; and whole Chevalley
# constructions tried before giving up
_TORAL_DRAWS = 64
_SPLIT_FLOOR = 12
_SPLIT_DRAWS = 8
_RECURSION_LIMIT = 64
_CHEVALLEY_TRIES = 3


def _rank(L):
    """The rank the search budgets scale with: that of L's root datum, else
    the estimate floor(sqrt(dim)); at least 1."""
    return max(1, L.rd.n if L.rd is not None else math.isqrt(L.dim))


class LieAlgebraFq:
    """Lie algebra given by a sparse-in-spirit structure tensor (stored as
    dense coefficient planes) over one tower level.

    The characteristic must exceed 3 (else InputError).  check="full" (the
    default) verifies antisymmetry and the Jacobi identity on every triple
    of basis vectors and raises InputError if either fails; check="none"
    trusts the tensor, for algebras derived from one already checked.
    """

    def __init__(self, level, tensor_planes, rd=None, check="full"):
        if level.p <= 3:
            raise InputError("characteristic must exceed 3 for Lie algebras")
        self.level = level
        self.dim = tensor_planes.shape[1]
        self.tensor = tensor_planes % level.p
        self.rd = rd              # originating RootDatum, if any
        self._center = None
        self._ad_rep = None
        if check not in ("full", "none"):
            raise InputError(f"check = {check!r} is not 'full' or 'none'")
        if check == "full":
            self._check_antisymmetry()
            self._check_jacobi()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_entries(cls, level, dim, triples, rd=None, check="full"):
        """triples: iterable of (i, j, k, value), each index in
        range(dim)."""
        planes = np.zeros((level.m, dim, dim, dim), dtype=np.int64)
        for i, j, k, v in triples:
            if not all(isinstance(t, (int, np.integer)) and 0 <= t < dim
                       for t in (i, j, k)):
                raise InputError(f"triple index ({i}, {j}, {k}) outside "
                                 f"range({dim})")
            planes[:, i, j, k] = level.element(v).coeffs
        return cls(level, planes, rd=rd, check=check)

    def triples(self):
        out = []
        nz = np.nonzero(self.tensor.any(axis=0))
        for i, j, k in zip(*nz):
            e = FqElement(self.level, tuple(int(c) for c in
                                            self.tensor[:, i, j, k]))
            out.append((int(i), int(j), int(k), e))
        return out

    def _check_antisymmetry(self):
        p = self.level.p
        if ((self.tensor + self.tensor.transpose(0, 2, 1, 3)) % p).any():
            raise InputError("structure tensor is not antisymmetric")
        d = self.dim
        if self.tensor[:, range(d), range(d), :].any():
            raise InputError("structure tensor has [x,x] != 0")

    def _check_jacobi(self):
        """Every cyclic sum of [[b_i,b_j],b_k]_l = sum_n T[i,j,n] T[n,k,l]
        over (i,j,k) is zero.  The nonzero pattern counts the products a
        join on n would form; up to d^3 of them, the memory of one slab of
        the dense route, the join runs, else the slab route (a dense tensor
        would need about d^5)."""
        d = self.dim
        nz = np.nonzero(self.tensor.any(axis=0))
        firsts = np.bincount(nz[0], minlength=d)
        joined = int(np.bincount(nz[2], minlength=d) @ firsts)
        ok = (_jacobi_join(self.tensor, self.level, nz, firsts)
              if joined <= d ** 3 else _jacobi_slabs(self.tensor, self.level))
        if not ok:
            raise InputError("Jacobi identity fails")

    # -- core linear structure ----------------------------------------------

    def ad(self, x):
        """The d x kd block row [ad x_1 | ... | ad x_k] for the k rows x_i
        of x, y @ ad x_i = [y, x_i]; for one row, the matrix ad x.  Every
        block comes out of one product with `ad_rep_matrix`."""
        level, d = self.level, self.dim
        prod = _planes_matmul(x.planes, self.ad_rep_matrix().planes, level)
        return Mat(level, prod.reshape(level.m, x.nrows, d, d).transpose(
            0, 2, 1, 3).reshape(level.m, d, x.nrows * d))

    def ad_rep_matrix(self):
        """d x d^2 matrix R with row i = vec(ad(b_i)); y @ R = vec(ad(y))."""
        if self._ad_rep is None:
            d = self.dim
            planes = self.tensor.transpose(0, 2, 1, 3).reshape(
                self.level.m, d, d * d).copy()
            self._ad_rep = Mat(self.level, planes)
        return self._ad_rep

    def center_rows(self):
        """Z(L), the left kernel of ad L."""
        if self._center is None:
            self._center = self.ad(self.full_space()).left_kernel()
        return self._center

    def full_space(self):
        return Mat.identity(self.level, self.dim)

    def random_vector(self, rng):
        return Mat.random(self.level, 1, self.dim, rng)

    def embed(self, r):
        """Scalar extension to a higher tower level (same tensor)."""
        dst = self.level.tower.level(r)
        emb = dst.embed_from[self.level.r]
        planes = np.einsum("j...,jk->k...", self.tensor, emb) % self.level.p
        return LieAlgebraFq(dst, planes, rd=self.rd, check="none")

    def to_json(self):
        return {
            "dim": self.dim,
            "level": self.level.spec_string(),
            "triples": [[i, j, k, v.to_json()]
                        for i, j, k, v in self.triples()],
        }

    def __repr__(self):
        return (f"LieAlgebraFq(dim={self.dim} @ "
                f"{self.level.spec_string()})")


def _jacobi_join(T, level, nz, firsts):
    """Join the nonzeros T[i,j,n] (nz, in lexicographic order) with the
    firsts[n] nonzeros T[n,k,l].  The cyclic sum at (i,j,k,l) is the one at
    (k,i,j,l) and (j,k,i,l), so each product, reduced mod p and folded, is
    filed under the smallest of the three keys.  A key sums at most 3d
    residues, so only the products need the word-size check."""
    _check_word_size(1, level.p, level.m)
    m, d, p = level.m, T.shape[1], level.p
    i, j, n = nz
    reps = firsts[n]
    left = np.repeat(np.arange(len(n)), reps)
    if not len(left):
        return True
    ends = np.cumsum(reps)
    right = np.repeat(np.cumsum(firsts)[n] - ends, reps) + np.arange(ends[-1])
    a, b = T[:, i[left], j[left], n[left]], T[:, i[right], j[right], n[right]]
    prods = (a[:, None] * b[None] % p).reshape(m * m, -1).T @ level.fold % p
    i, j, k, l = i[left], j[left], j[right], n[right]
    keys = np.minimum(np.minimum(((i * d + j) * d + k) * d + l,
                                 ((k * d + i) * d + j) * d + l),
                      ((j * d + k) * d + i) * d + l)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return not (np.add.reduceat(prods[order], starts) % p).any()


def _jacobi_slabs(T, level):
    """Jacobi check of a dense tensor one output coordinate l at a time, in
    O(d^3) memory: P[i,j,k] = [[b_i,b_j],b_k]_l for all (i,j,k) is one plane
    product, and its cyclic sum is two transposes."""
    m, d, p = level.m, T.shape[1], level.p
    pairs = T.reshape(m, d * d, d)
    for l in range(d):
        P = _planes_matmul(pairs, T[:, :, :, l], level).reshape(m, d, d, d)
        if ((P + P.transpose(0, 2, 3, 1) + P.transpose(0, 3, 1, 2))
                % p).any():
            return False
    return True


def _brackets(L, rows, A, k):
    """rows @ A for the block row A = ad(g) of k rows g_j, restacked so
    that [rows_i, g_j] is row i k + j."""
    return Mat(L.level, (rows @ A).planes.reshape(
        L.level.m, rows.nrows * k, L.dim))


def _bracket_in(L, rows, coords):
    """Structure tensor planes of L's bracket on the span of the rows:
    [:, i, j, :] = coords([rows_i, rows_j]), where coords writes rows of L
    in the coordinates of the span."""
    k = rows.nrows
    return coords(_brackets(L, rows, L.ad(rows), k)).planes.reshape(
        L.level.m, k, k, k)


def _blocks(A, k):
    """The k square blocks of a block row [A_1 | ... | A_k]."""
    d = A.nrows
    return [A.take_cols(range(i * d, (i + 1) * d)) for i in range(k)]


class Subalgebra:
    """A subspace of a parent algebra given by a row basis (kept in reduced
    echelon form so equal spans compare equal)."""

    def __init__(self, parent, basis):
        self.parent = parent
        self.basis = basis.row_space()

    @property
    def dim(self):
        return self.basis.nrows

    def contains_space(self, other):
        return self.basis.solve_left(other.basis) is not None

    def is_abelian(self):
        """Every bracket of two basis rows vanishes.  The first row is
        bracketed with the basis before the rest, so a span whose first
        row is not central in it is refused at one row's cost."""
        B, L = self.basis, self.parent
        head = min(1, B.nrows)
        parts = B.take_rows(range(head)), B.take_rows(range(head, B.nrows))
        return all((B @ L.ad(x)).is_zero() for x in parts)

    def restricted_algebra(self):
        """The bracket restricted to this subspace, as its own algebra.

        Requires closure (else InputError); coordinates are with respect
        to self.basis rows.
        """
        L = self.parent
        return LieAlgebraFq(L.level, _bracket_in(L, self.basis, self.project),
                            rd=None, check="none")

    def lift(self, rows):
        """Rows in restricted coordinates -> rows in parent coordinates."""
        return rows @ self.basis

    def project(self, rows):
        coords = self.basis.solve_left(rows)
        if coords is None:
            raise InputError("vector outside the subspace")
        return coords

    def __eq__(self, other):
        return (isinstance(other, Subalgebra)
                and self.parent is other.parent
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subalgebra(dim={self.dim} of {self.parent!r})"


def sum_spaces(a, b):
    return Mat.vstack([a, b]).row_space()


def intersect_spaces(a, b):
    """Row-space intersection via the kernel of the stacked matrix."""
    if a.nrows == 0 or b.nrows == 0:
        return Mat.zeros(a.level, 0, a.ncols)
    stacked = Mat.vstack([a, b])
    ker = stacked.left_kernel()
    if ker.nrows == 0:
        return Mat.zeros(a.level, 0, a.ncols)
    left = ker.take_cols(range(a.nrows))
    return (left @ a).row_space()


class CentralQuotient:
    """Bookkeeping for L/Z with a fixed linear section phi.

    The basis of L extending a basis of Z is fixed once: the section places
    quotient coordinates at the non-pivot columns of Z's echelon basis.
    phi is linear but (deliberately) not a Lie algebra map.
    """

    def __init__(self, L, z_rows):
        self.L = L
        R, pivots = z_rows.rref()
        self.z = R.take_rows(range(len(pivots)))
        self.pivots = pivots
        self.comp = [c for c in range(L.dim) if c not in pivots]
        self._alg = None

    @property
    def dim(self):
        return len(self.comp)

    def project(self, rows):
        """Quotient coordinates of parent rows."""
        if self.z.nrows:
            coeff = rows.take_cols(self.pivots)
            rows = rows - coeff @ self.z
        return rows.take_cols(self.comp)

    def lift(self, qrows):
        """The section phi: quotient coordinates -> parent rows."""
        level = self.L.level
        out = Mat.zeros(level, qrows.nrows, self.L.dim)
        out.planes[:, :, self.comp] = qrows.planes
        return out

    def algebra(self):
        if self._alg is None:
            level = self.L.level
            lifted = self.lift(Mat.identity(level, self.dim))
            self._alg = LieAlgebraFq(
                level, _bracket_in(self.L, lifted, self.project), rd=None,
                check="none")
        return self._alg


# ---------------------------------------------------------------------------
# Construction from a root datum
# ---------------------------------------------------------------------------

def from_root_datum(rd, tower, level_r=1, check="full"):
    """Chevalley-basis structure constants reduced mod p.  Characteristic
    > 3 only."""
    level = tower.level(tower.extend(level_r))
    planes = _reference_planes(rd, tower.p, level.m).astype(np.int64)
    return LieAlgebraFq(level, planes, rd=rd, check=check)


# (p, m) -> read-only reference planes, per root datum
_REFERENCE_PLANES = weakref.WeakKeyDictionary()


def _reference_planes(rd, p, m):
    """The structure tensor of rd's Chevalley basis mod p as a read-only
    (m, d, d, d) plane stack, built once per (rd, p, m).  The constants lie
    in GF(p), in plane 0, so the tower does not matter, and they are held
    in the narrowest integer type that fits p - 1 (int8 up to p = 127),
    which keeps F4's at 140 kB."""
    cache = _REFERENCE_PLANES.setdefault(rd, {})
    planes = cache.get((p, m))
    if planes is not None:
        return planes
    n = rd.n
    d = n + rd.num_roots
    planes = np.zeros((m, d, d, d), dtype=np.min_scalar_type(1 - p))

    def eidx(r):
        return n + r

    for r in range(rd.num_roots):
        # [e_alpha, h_i] = <alpha, f_i> e_alpha
        for i in range(n):
            v = rd.root_X[r][i] % p
            planes[0, eidx(r), i, eidx(r)] = v
            planes[0, i, eidx(r), eidx(r)] = (-v) % p
        # [e_{-alpha}, e_alpha] = sum <e_i, alpha^*> h_i
        nr = rd.neg(r)
        for i in range(n):
            v = rd.coroot_Y[r][i] % p
            planes[0, eidx(nr), eidx(r), i] = v
        # [e_alpha, e_beta] = N e_{alpha+beta}
        for s in range(rd.num_roots):
            if s == nr:
                continue
            t = rd.add_roots(r, s)
            if t is not None:
                planes[0, eidx(r), eidx(s), eidx(t)] = \
                    rd.structure_constant_by_index(r, s) % p
    planes.flags.writeable = False
    return cache.setdefault((p, m), planes)


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------

def bracket(L, x, y):
    return x @ L.ad(y)


def ad_matrix(L, x):
    return L.ad(x)


def center(L):
    return Subalgebra(L, L.center_rows())


def _rows(L, S):
    """The rows of S: a Subalgebra's basis, a row Mat itself, or Z(L) for
    None."""
    if S is None:
        return L.center_rows()
    return S.basis if isinstance(S, Subalgebra) else S


def centralizer(L, S):
    """Joint ad-kernel of the generators of S (Subalgebra or row Mat)."""
    return Subalgebra(L, L.ad(_rows(L, S)).left_kernel())


def is_abelian(S):
    return S.is_abelian()


def p_power_mod_center(L, x, times=1):
    """y with ad(y) = (ad x)^(p^times), unique modulo Z(L)."""
    p = L.level.p
    R = L.ad_rep_matrix()
    cur = x
    for _ in range(times):
        target = L.ad(cur) ** p
        flat = Mat(L.level,
                   target.planes.reshape(L.level.m, 1, L.dim * L.dim))
        sol = R.solve_left(flat)
        if sol is None:
            raise VerificationError(
                "ad(y) = (ad x)^p has no solution; input is not p-closed")
        cur = sol
    return cur


def is_split_toral(L, H, expected_dim=None):
    """Abelian, correct dimension, and h^[q] = h mod Z(L) on a basis, q the
    size of L's level.  Z(L) is the kernel of ad and ad(x^[p]) = (ad x)^p
    (Jacobson, Lie Algebras, ch. V), so that is (ad h)^q = ad h."""
    if expected_dim is None and L.rd is not None:
        expected_dim = L.rd.n
    if expected_dim is not None and H.dim != expected_dim:
        return False
    A = L.ad(H.basis)
    if not (H.basis @ A).is_zero():
        return False
    q = L.level.order
    return all(B ** q == B for B in _blocks(A, H.dim))


def is_regular_semisimple(L, x, expected_dim=None):
    """Centralizer is a maximal toral subalgebra: dimension n, abelian, and
    ad x diagonalizable over the closure (squarefree minimal polynomial)."""
    if expected_dim is None:
        if L.rd is None:
            raise InputError("need the rank for a regular-semisimple test")
        expected_dim = L.rd.n
    C = centralizer(L, x.row_space() if isinstance(x, Mat) else x)
    if C.dim != expected_dim or not C.is_abelian():
        return False
    return L.ad(x).minpoly_squarefree()


def maximal_toral_subalgebra(L, rng):
    """Random semisimple elements and centralizer descent, in 64 r draws."""
    M = Subalgebra(L, L.full_space())
    if not L.tensor.any():
        return M
    for _ in range(_TORAL_DRAWS * _rank(L)):
        coeff = Mat.random(L.level, 1, M.dim, rng)
        x = coeff @ M.basis
        if x.is_zero():
            continue
        if not L.ad(x).minpoly_squarefree():
            continue
        C = centralizer(L, x)
        inter = intersect_spaces(C.basis, M.basis)
        Mnew = Subalgebra(L, inter)
        if Mnew.is_abelian():
            return Mnew
        if Mnew.dim < M.dim:
            M = Mnew
    raise BudgetExhausted("maximal toral subalgebra search ran out of draws")


# ---------------------------------------------------------------------------
# Generalized roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedRoot:
    """Tuple of monic irreducible polynomials aligned with a basis of H."""
    polys: tuple

    def degree(self):
        out = 1
        for f in self.polys:
            out = out * f.degree // math.gcd(out, f.degree)
        return out

    def minus(self):
        return GeneralizedRoot(tuple(f.substitute_neg().monic()
                                     for f in self.polys))

    def is_all_x(self):
        return all(f.degree == 1 and not f.coeff(0) for f in self.polys)

    def key(self):
        return tuple(tuple(f.coeff_ints()) for f in self.polys)

    def __repr__(self):
        return f"GeneralizedRoot({self.key()})"


def f_minus(f):
    return f.minus()


def gr_degree(f):
    return f.degree()


def _refine(W, ads, rng):
    """Primary decomposition of the row space W under the matrices in ads,
    one after another: each part S is cut into the row spaces
    ker g(A|S)^mult @ S over the factors g^mult of the characteristic
    polynomial of A|S.  Returns (labels, part) pairs, the labels being the
    tuple of factors that cut the part.

    A single factor leaves S whole.  Over k >= 2 factors, with
    G_j = g_j(A|S)^(m_j), the part of g_i is the image of the product of
    the other G_j (Bezout over pairwise coprime factors; Hoffman-Kunze,
    Linear Algebra, 6.8), so it costs one elimination of rank
    deg(g_i) m_i instead of a kernel of all of S.  The image always lies in
    the kernel of G_i, so a part of dimension deg(g_i) m_i is the whole
    generalized eigenspace; any other dimension raises VerificationError."""
    parts = [((), W)]
    for A in ads:
        fresh = []
        for label, S in parts:
            Ar = S.solve_left(S @ A)  # A on the invariant part S
            if Ar is None:
                raise VerificationError("subspace not invariant")
            factors = factor(Ar.charpoly(), rng)
            if len(factors) == 1:
                images = [S.row_space()]
            else:
                images = [(P @ S).row_space() for P in _complements(
                    [g.eval_mat(Ar) ** mult for g, mult in factors])]
            for (g, mult), part in zip(factors, images):
                if part.nrows != g.degree * mult:
                    raise VerificationError(
                        "primary part dimension differs from its factor's")
                fresh.append((label + (g,), part))
        parts = fresh
    return parts


def _complements(mats):
    """For k >= 2 commuting matrices M_0, ..., M_(k-1), the k products of
    all but one of them, in order, from prefix and suffix products: 3k - 6
    products in all, none for k = 2."""
    pre = [mats[0]]  # pre[j] = M_0 ... M_j
    for M in mats[1:-1]:
        pre.append(pre[-1] @ M)
    suf = [mats[-1]]
    for M in mats[-2:0:-1]:
        suf.append(M @ suf[-1])
    suf.reverse()  # suf[j] = M_(j+1) ... M_(k-1)
    return ([suf[0]] + [pre[i - 1] @ suf[i] for i in range(1, len(mats) - 1)]
            + [pre[-1]])


def generalized_roots(L, H, Z=None, rng=None, quotient=None):
    """Iterated factorization of characteristic polynomials of ad(h_i).

    Returns (list of (GeneralizedRoot, Subalgebra), quotient) where each
    subalgebra is the pullback phi((L/Z)_f) and the quotient carries the
    fixed section used.  H must contain Z.
    """
    rng = rng or random.Random(0)
    Q = quotient or CentralQuotient(L, _rows(L, Z))
    if not H.contains_space(Subalgebra(L, Q.z)) and Q.z.nrows:
        raise InputError("H must contain Z")
    Qalg = Q.algebra()
    Hq = Q.project(H.basis).row_space()
    spaces = _refine(Mat.identity(L.level, Qalg.dim),
                     _blocks(Qalg.ad(Hq), Hq.nrows), rng)
    out = []
    total = 0
    for fpref, W in spaces:
        f = GeneralizedRoot(fpref)
        if f.is_all_x():
            # this block should be exactly H/Z
            if W != Hq:
                raise BudgetExhausted("H is not its own null block; retry")
            continue
        total += W.nrows
        out.append((f, Subalgebra(L, Q.lift(W))))
    if total + H.dim != L.dim:
        raise BudgetExhausted("generalized root decomposition miscount")
    return out, Q


# ---------------------------------------------------------------------------
# Components and the split search
# ---------------------------------------------------------------------------

def _closure(L, rows, gens=None):
    """Closure of a row space under bracketing with the rows of gens: the
    subalgebra it generates when gens is None (the space itself each
    round), the ideal when gens = L.full_space()."""
    cur = rows.row_space()
    fixed = None if gens is None else (L.ad(gens), gens.nrows)
    while True:
        A, k = fixed or (L.ad(cur), cur.nrows)
        nxt = Mat.vstack([cur, _brackets(L, cur, A, k)]).row_space()
        if nxt.nrows == cur.nrows:
            return nxt
        cur = nxt


def components(L, H=None, Z=None, rng=None):
    """Direct-sum decomposition through the M_f intersection graph.

    M_f is taken to be the ideal generated by the generalized root space;
    the subalgebra closure alone leaves the graph edgeless whenever the
    toral subalgebra happens to be split, which would shred a simple
    algebra into root lines.  Z defaults to the part of Z(L) in H.
    """
    rng = rng or random.Random(0)
    if H is None:
        H = maximal_toral_subalgebra(L, rng)
    zrows = _rows(L, Z)
    if Z is None:
        zrows = intersect_spaces(zrows, H.basis)
    H = Subalgebra(L, sum_spaces(H.basis, zrows))
    grs, _ = generalized_roots(L, H, Z=zrows, rng=rng)
    if not grs:
        return [Subalgebra(L, L.full_space())]
    msubs = [_closure(L, gr[1].basis, L.full_space()) for gr in grs]
    k = len(msubs)
    adj = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            inter = intersect_spaces(msubs[i], msubs[j])
            outside = any(not H.basis.in_row_space(inter.row(t))
                          for t in range(inter.nrows))
            adj[i][j] = adj[j][i] = outside
    seen = [False] * k
    out = []
    for s in range(k):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v in range(k):
                if adj[u][v] and not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        rows = Mat.vstack([msubs[c] for c in comp])
        out.append(Subalgebra(L, _closure(L, rows)))
    return out


def _k2_root_pair(L, Q, Hq, Wq, rng):
    """Quadratic-extension fallback: locate a single root alpha of the
    block over k_2 and
    return the k-form of (L/Z)_alpha + (L/Z)_{-alpha} as quotient rows."""
    log.debug("deg-2 fallback over k_2 triggered (block dim %d)", Wq.nrows)
    tower = L.level.tower
    r2 = tower.extend(2 * L.level.r)
    Q2 = Q.algebra().embed(r2)
    spaces = _refine(Wq.embed(r2), _blocks(Q2.ad(Hq.embed(r2)), Hq.nrows),
                     rng)
    if any(g.degree != 1 for label, _ in spaces for g in label):
        raise VerificationError("nonlinear eigenvalue over k_2")
    # any eigenline is a root space; its Frobenius conjugate spans the
    # opposite root's line, and their span is F-stable hence has a k-form
    v = spaces[0][1].row(0)
    vf = v.frobenius(L.level.r)
    lvl2 = v.level
    gen = lvl2.element([0, 1] + [0] * (lvl2.m - 2)) if lvl2.m > 1 \
        else lvl2.one
    u1 = v + vf
    u2 = v * gen + (v * gen).frobenius(L.level.r)
    base = _descend(Mat.vstack([u1, u2]), L.level)
    if base is None or base.row_space().nrows != 2:
        raise VerificationError("no k-form found for the root pair")
    return base.row_space()


def split_maximal_toral_subalgebra(L, Z=None, rng=None, _depth=0):
    """Randomized descent to a split maximal toral subalgebra, in
    max(12, ceil(8 r log(r + 1))) draws of `_split_draw`.

    Las Vegas: the result always passes is_split_toral; on budget
    exhaustion a BudgetExhausted is raised, never a wrong answer.
    """
    rng = rng or random.Random(0)
    if _depth > _RECURSION_LIMIT:
        raise BudgetExhausted("split toral recursion too deep")
    zrows = _rows(L, Z).row_space()
    Q = CentralQuotient(L, zrows)
    r = _rank(L)
    for _ in range(max(_SPLIT_FLOOR,
                       math.ceil(_SPLIT_DRAWS * r * math.log(r + 1)))):
        try:
            H = _split_draw(L, Q, zrows, rng, _depth)
        except BudgetExhausted:
            continue
        if H is not None:
            return H
    raise BudgetExhausted("split maximal toral search exhausted its budget")


def _split_draw(L, Q, zrows, rng, depth):
    """One draw of the split search: a split toral subalgebra, or None.

    A maximal toral H of L/Z is kept when it is split.  Else the root
    pair of one generalized root (degree 1, or self-negative of degree 2,
    over k_2 when its block holds more than one pair) generates a proper
    subalgebra M; a split toral K_M of M, the center of its centralizer C
    and split tori of C's components sum to the candidate.  A draw that
    runs out of budget at any stage raises BudgetExhausted."""
    Hq = maximal_toral_subalgebra(Q.algebra(), rng)
    H = Subalgebra(L, sum_spaces(Q.lift(Hq.basis), zrows))
    if is_split_toral(L, H):
        return H
    grs, _ = generalized_roots(L, H, rng=rng, quotient=Q)
    deg1 = [g for g in grs if g[0].degree() == 1]
    if deg1:
        f, Lf = deg1[0]
        fm = f.minus().key()
        partner = next((S for g, S in grs if g.key() == fm), None)
        rows = Lf.basis if partner is None \
            else sum_spaces(Lf.basis, partner.basis)
        M = sum_spaces(_closure(L, rows), zrows)
    else:
        deg2 = [S for g, S in grs
                if g.degree() == 2 and g.key() == g.minus().key()]
        if not deg2:
            return None
        M = sum_spaces(_closure(L, deg2[0].basis), zrows)
        if M.nrows - zrows.nrows != 3:
            qrows = _k2_root_pair(L, Q, Q.project(H.basis).row_space(),
                                  Q.project(deg2[0].basis), rng)
            M = sum_spaces(_closure(L, Q.lift(qrows)), zrows)
    if M.nrows == L.dim:
        return None  # no proper descent available; redraw H
    Msub = Subalgebra(L, M)
    Malg = Msub.restricted_algebra()
    Km = split_maximal_toral_subalgebra(Malg, Z=Malg.center_rows(), rng=rng,
                                        _depth=depth + 1)
    C = centralizer(L, Msub.lift(Km.basis))
    Calg = C.restricted_algebra()
    K = sum_spaces(C.lift(Calg.center_rows()), zrows)
    for comp in components(Calg, Z=C.project(K), rng=rng):
        comp_alg = comp.restricted_algebra()
        Kc = split_maximal_toral_subalgebra(
            comp_alg, Z=comp_alg.center_rows(), rng=rng, _depth=depth + 1)
        K = sum_spaces(K, C.lift(comp.lift(Kc.basis)))
    K = Subalgebra(L, K)
    return K if is_split_toral(L, K) and (
        L.rd is not None or centralizer(L, K).dim == K.dim) else None


def root_decomposition(L, H):
    """Simultaneous eigenspace decomposition under a split toral H.

    The parts are generalized weight spaces; requiring every nonzero one to
    be a line and the zero one to be H (on which ad H vanishes) also shows
    that each ad h is diagonalizable."""
    A = L.ad(H.basis)
    if not (H.basis @ A).is_zero():
        raise InputError("H is not abelian")
    spaces = _refine(Mat.identity(L.level, L.dim), _blocks(A, H.dim),
                     random.Random(0))
    if any(g.degree != 1 for label, _ in spaces for g in label):
        raise InputError("H is not split: nonlinear eigenvalue")
    out = {}
    for label, W in spaces:
        weights = tuple(-g.coeff(0) for g in label)
        if all(not w for w in weights):
            if W.row_space() != H.basis:
                raise VerificationError("zero weight space exceeds H")
            continue
        if W.nrows != 1:
            raise VerificationError("root space dimension exceeds one")
        out[weights] = W
    if L.rd is not None:
        if len(out) != L.rd.num_roots:
            raise VerificationError("root line count mismatch")
    return out


# ---------------------------------------------------------------------------
# Chevalley basis construction and recognition
# ---------------------------------------------------------------------------

@dataclass
class ChevalleyBasisFq:
    """h rows (n x d) and e rows (num_roots x d, in root index order)."""
    L: object
    rd: object
    h: Mat
    e: Mat

    def stacked(self):
        return Mat.vstack([self.h, self.e])

    def to_json(self):
        return {"h": self.h.to_json(), "e": self.e.to_json()}


def _weight_tuple_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _weight_tuple_neg(a):
    return tuple(-x for x in a)


def _weight_scale(a, c):
    return tuple(x * c for x in a)


class _WeightSystem:
    def __init__(self, weights):
        self.weights = set(weights)

    def cartan_int(self, lam, mu):
        if lam == mu:
            return 2
        if lam == _weight_tuple_neg(mu):
            return -2
        down = 0
        cur = lam
        while True:
            cur = tuple(x - y for x, y in zip(cur, mu))
            if cur in self.weights:
                down += 1
            else:
                break
            if down > 4:
                raise VerificationError("runaway root string")
        up = 0
        cur = lam
        while True:
            cur = _weight_tuple_add(cur, mu)
            if cur in self.weights:
                up += 1
            else:
                break
            if up > 4:
                raise VerificationError("runaway root string")
        return down - up


def _identify_simples(rd, ws):
    """Backtracking search for weights matching the Cartan matrix."""
    weights = sorted(ws.weights,
                     key=lambda w: tuple(x.to_int() for x in w))
    l = rd.l
    assign = [None] * l

    def ok(i, cand):
        for j in range(i):
            if ws.cartan_int(cand, assign[j]) != int(rd.cartan[i, j]):
                return False
            if ws.cartan_int(assign[j], cand) != int(rd.cartan[j, i]):
                return False
        return True

    def extend_map(i):
        if i == l:
            return _extendable(rd, ws, assign)
        for cand in weights:
            if cand in assign[:i] or _weight_tuple_neg(cand) in assign[:i]:
                continue
            if ws.cartan_int(cand, cand) != 2:
                continue
            if ok(i, cand):
                assign[i] = cand
                if extend_map(i + 1):
                    return True
                assign[i] = None
        return False

    if not extend_map(0):
        raise RecognitionError(
            "no embedding of the root datum's simple system into the "
            "weight lattice of the decomposition")
    return list(assign)


def _extendable(rd, ws, assign):
    seen = set()
    for ridx in range(rd.num_roots):
        c = rd.coords[ridx]
        w = None
        for i, ci in enumerate(c):
            if ci:
                term = _weight_scale(assign[i], ci)
                w = term if w is None else _weight_tuple_add(w, term)
        if w not in ws.weights or w in seen:
            return False
        seen.add(w)
    return len(seen) == len(ws.weights)


def standard_chevalley_basis(L, rd, rng=None):
    """Full construction pipeline; output always passes
    verify_chevalley_basis or a clean failure is raised."""
    rng = rng or random.Random(0)
    last = None
    for _ in range(_CHEVALLEY_TRIES):
        try:
            basis = _try_chevalley(L, rd, rng)
        except BudgetExhausted as exc:
            last = exc
            continue
        ok, witness = verify_chevalley_basis(L, rd, basis)
        if ok:
            return basis
        last = BudgetExhausted(f"construction failed verification: "
                               f"{witness}")
    raise last or BudgetExhausted("chevalley basis construction failed")


def _try_chevalley(L, rd, rng):
    H = split_maximal_toral_subalgebra(L, None, rng)
    lines = root_decomposition(L, H)
    ws = _WeightSystem(lines.keys())
    simples = _identify_simples(rd, ws)
    level = L.level
    n = rd.n

    e_rows = {}
    h_alpha = {}
    two = level.element(2)
    for j in range(rd.l):
        ridx = rd.simple_indices[j]
        e = lines[simples[j]]
        f = lines[_weight_tuple_neg(simples[j])]
        t = bracket(L, e, bracket(L, f, e))
        # t = 2a e: read a off a nonzero coordinate of e
        a = None
        for c in range(L.dim):
            ec = e.entry(0, c)
            if ec:
                a = t.entry(0, c) / (two * ec)
                break
        if a is None or not a:
            raise VerificationError("degenerate sl2 normalization")
        if t != e * (two * a):
            raise VerificationError("sl2 relation failed")
        eneg = f * a.inverse()
        e_rows[ridx] = e
        e_rows[rd.neg(ridx)] = eneg
        h_alpha[j] = bracket(L, eneg, e)

    h_rows = _solve_h_basis(L, rd, H, lines, simples, h_alpha)

    # fill the remaining root vectors along the fixed order
    for ridx in sorted(range(rd.num_pos), key=lambda t: rd.height(t)):
        if ridx in e_rows or ridx in rd.simple_indices:
            continue
        a, b = rd.extraspecial[ridx]
        na = rd.structure_constant_by_index(a, b)
        e_rows[ridx] = bracket(L, e_rows[a], e_rows[b]) \
            * level.element(na % level.p).inverse()
        nneg = rd.structure_constant_by_index(rd.neg(a), rd.neg(b))
        e_rows[rd.neg(ridx)] = \
            bracket(L, e_rows[rd.neg(a)], e_rows[rd.neg(b)]) \
            * level.element(nneg % level.p).inverse()
    e_mat = Mat.vstack([e_rows[r] for r in range(rd.num_roots)])
    return ChevalleyBasisFq(L, rd, h_rows, e_mat)


def _solve_h_basis(L, rd, H, lines, simples, h_alpha):
    """Basis h_1..h_n of H with h_alpha = sum <e_i, alpha^*> h_i for the
    simple alphas and lambda_j(h_i) = <alpha_j, f_i> for the weights.

    The unknowns are the coordinates of each h_i in H's basis, rows
    i k .. i k + k - 1.  Columns j d .. j d + d - 1 equate
    sum_i C[j, i] h_i with h_alpha_j, so their entries are C[j, i] H[t, col]
    (C the simple coroots); column l d + i l + j equates lambda_j(h_i)
    with P[j, i] (P the simple roots)."""
    level = L.level
    m, p = level.m, level.p
    n, l, d = rd.n, rd.l, L.dim
    k = H.dim
    Hb = H.basis
    C = np.array([rd.coroot_Y[r] for r in rd.simple_indices],
                 dtype=np.int64).reshape(l, n) % p
    P = np.array([rd.root_X[r] for r in rd.simple_indices],
                 dtype=np.int64).reshape(l, n) % p
    base = l * d
    sysm = np.zeros((m, n * k, base + l * n), dtype=np.int64)
    sysm[:, :, :base] = np.einsum("ji,stc->sitjc", C, Hb.planes).reshape(
        m, n * k, base) % p
    # lam[:, t, j]: weight j's value on H's basis row t
    lam = np.array([[x.coeffs for x in simples[j]] for j in range(l)],
                   dtype=np.int64).reshape(l, k, m).transpose(2, 1, 0)
    for i in range(n):
        sysm[:, i * k:(i + 1) * k, base + i * l:base + (i + 1) * l] = lam
    rhs = np.zeros((m, 1, base + l * n), dtype=np.int64)
    for j in range(l):
        rhs[:, 0, j * d:(j + 1) * d] = h_alpha[j].planes[:, 0, :]
    rhs[0, 0, base:] = P.T.reshape(-1)
    sol = Mat(level, sysm).solve_left(Mat(level, rhs))
    if sol is None:
        raise VerificationError("h-basis system inconsistent")
    rows = []
    for i in range(n):
        coeff = sol.take_cols(range(i * k, (i + 1) * k))
        rows.append(coeff @ Hb)
    h_rows = Mat.vstack(rows)
    if h_rows.row_space().nrows != n:
        raise VerificationError("h_i do not form a basis")
    return h_rows


def verify_chevalley_basis(L, rd, basis):
    """Write the bracket of L in the candidate basis and compare it with
    the reference structure tensor of rd: first the minimal recognition
    relations, then the full grid.

    Returns (True, None) or (False, witness string naming the first
    violated relation).
    """
    P = basis.stacked()
    Pinv = P.try_inverse() if P.nrows == P.ncols else None
    if Pinv is None:
        return False, "candidate basis does not span the algebra"
    got = _bracket_in(L, P, lambda x: x @ Pinv)
    want = _reference_planes(rd, L.level.p, L.level.m)
    # bad[i, j] is set where [b_i, b_j] differs from the reference
    bad = (got != want).any(axis=(0, 3))
    n = rd.n

    def e(r):
        return n + r

    # minimal recognition relations: the coroot bracket on simple roots
    # and both signs of every extraspecial product
    for j in range(rd.l):
        ridx = rd.simple_indices[j]
        if bad[e(rd.neg(ridx)), e(ridx)]:
            return False, f"[e_-a, e_a] != h_a for simple root {j + 1}"
    for xi, (a, b) in rd.extraspecial.items():
        if bad[e(a), e(b)]:
            return False, f"extraspecial relation fails at root {xi}"
        if bad[e(rd.neg(a)), e(rd.neg(b))]:
            return False, f"negative extraspecial relation fails at {xi}"

    # full grid
    for i in range(n):
        for j in range(n):
            if bad[i, j]:
                return False, f"[h_{i + 1}, h_{j + 1}] != 0"
    for r in range(rd.num_roots):
        for i in range(n):
            if bad[e(r), i]:
                return False, f"[e_{r}, h_{i + 1}] mismatch"
        if bad[e(rd.neg(r)), e(r)]:
            return False, f"[e_-r, e_r] mismatch at root {r}"
        for s in range(rd.num_roots):
            if s == rd.neg(r) or not bad[e(r), e(s)]:
                continue
            if rd.add_roots(r, s) is None:
                return False, f"[e_{r}, e_{s}] should vanish"
            return False, f"[e_{r}, e_{s}] != N e at pair ({r},{s})"
    return True, None


def random_inner_automorphism(L, rd, rng, word_length=6):
    """Product of exp(t ad e_alpha) factors on an algebra in standard
    coordinates; bracket preservation is verified on all basis pairs."""
    level = L.level
    d = L.dim
    g = Mat.identity(level, d)
    inv2 = level.element(2).inverse()
    inv6 = level.element(6 % level.p).inverse()
    for _ in range(word_length):
        ridx = rng.randrange(rd.num_roots)
        t = level.element(rng.randrange(level.order))
        N = L.ad(L.full_space().row(rd.n + ridx)) * t
        N2 = N @ N
        N3 = N2 @ N
        if not (N3 @ N).is_zero():
            raise VerificationError("ad e_alpha is not 4-step nilpotent")
        expN = Mat.identity(level, d) + N + N2 * inv2 + N3 * inv6
        g = g @ expN
    # verify: transporting the bracket along g reproduces the tensor
    Lg = scramble_basis(L, g)
    if not np.array_equal(Lg.tensor, L.tensor):
        raise VerificationError("automorphism fails bracket preservation")
    return g


def scramble_basis(L, P):
    """The bracket of L expressed in the basis given by the rows of P.

    Transporting a Lie bracket along an invertible change of basis always
    yields a Lie algebra, so no Jacobi re-check is needed.
    """
    Pinv = P.inverse()
    return LieAlgebraFq(L.level, _bracket_in(L, P, lambda x: x @ Pinv),
                        rd=None, check="none")
