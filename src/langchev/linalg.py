"""Exact dense linear algebra and polynomial factorization over tower levels.

Matrices (:class:`Mat`) hold their entries as a stack of GF(p) coefficient
planes, shape (m, rows, cols) for a level of absolute degree m, so matrix
products, row reduction and entrywise Frobenius all vectorize through numpy
integer arithmetic while staying exact.  Vectors are rows throughout the
package: a vector v acts on a matrix as v @ M, kernels are left kernels
{v : v M = 0}, and solve(M, b) finds x with x M = b.

Polynomials (:class:`PolyFq`) use the same plane layout, coefficient index
ascending.  Factorization runs the standard squarefree / distinct-degree /
equal-degree pipeline with an explicit RNG handle; every returned factor is
certified irreducible before it is handed back.  The pipeline is written
once; over GF(p) itself (m = 1) it runs on :class:`_GFpPoly`, lists of
Python ints with PolyFq's methods, which PolyFq's own division and gcd
also use there.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BudgetExhausted, InputError, VerificationError
from .ff import (FqElement, _check_word_size, _list_divmod, _mult_matrix,
                 _power, _trim)

__all__ = [
    "Mat", "PolyFq", "rref", "kernel", "solve", "det", "charpoly",
    "factor", "matrix_order", "fixed_space",
]


def _planes_matmul(a, b, level):
    """Field product of plane stacks: (m, r, n) @ (m, n, c) -> (m, r, c).

    One int64 matmul forms every plane product a_i @ b_j side by side; the
    level's fold table then sends pair (i, j) to the coefficients of
    zeta^(i+j) in one more matmul.  The largest sum either step
    accumulates is max(n, m^2) (p-1)^2, which must stay below 2^63.
    """
    m, p = level.m, level.p
    _, r, n = a.shape
    c = b.shape[2]
    _check_word_size(n, p, m)
    if m == 1:
        return (a[0] @ b[0] % p)[None]
    pairs = a.reshape(m * r, n) @ b.transpose(1, 0, 2).reshape(n, m * c) % p
    pairs = pairs.reshape(m, r, m, c).transpose(0, 2, 1, 3).reshape(
        m * m, r * c)
    return (level.fold.T @ pairs % p).reshape(m, r, c)


def _planes_scale(coeffs, planes, level):
    """Every entry of a plane stack times the field element coeffs: one
    m x m GF(p) product with the matrix of x -> x c (`ff._mult_matrix`),
    whose sums have at most m terms, or one entrywise product at m = 1."""
    m, p = level.m, level.p
    _check_word_size(1, p, m)
    if m == 1:
        return planes * int(coeffs[0]) % p
    mult = _mult_matrix(coeffs, level)
    return (mult.T @ planes.reshape(m, -1) % p).reshape(planes.shape)


class Mat:
    """Dense exact matrix over one tower level."""

    __slots__ = ("level", "nrows", "ncols", "planes")

    def __init__(self, level, planes):
        self.level = level
        self.planes = planes
        self.nrows = planes.shape[1]
        self.ncols = planes.shape[2]

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, level, nrows, ncols):
        return cls(level, np.zeros((level.m, nrows, ncols), dtype=np.int64))

    @classmethod
    def identity(cls, level, n):
        planes = np.zeros((level.m, n, n), dtype=np.int64)
        planes[0] = np.eye(n, dtype=np.int64)
        return cls(level, planes)

    @classmethod
    def from_entries(cls, level, rows):
        rows = list(rows)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        planes = np.zeros((level.m, nrows, ncols), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise InputError("ragged matrix")
            for j, x in enumerate(row):
                e = level.element(x)
                planes[:, i, j] = e.coeffs
        return cls(level, planes)

    @classmethod
    def from_int_rows(cls, level, rows):
        arr = np.asarray(rows, dtype=np.int64) % level.p
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        planes = np.zeros((level.m,) + arr.shape, dtype=np.int64)
        planes[0] = arr
        return cls(level, planes)

    @classmethod
    def random(cls, level, nrows, ncols, rng):
        flat = [rng.randrange(level.p)
                for _ in range(level.m * nrows * ncols)]
        planes = np.array(flat, dtype=np.int64).reshape(
            (level.m, nrows, ncols))
        return cls(level, planes)

    @classmethod
    def diagonal(cls, level, entries):
        n = len(entries)
        out = cls.zeros(level, n, n)
        for i, x in enumerate(entries):
            out.planes[:, i, i] = level.element(x).coeffs
        return out

    def copy(self):
        return Mat(self.level, self.planes.copy())

    # -- ring operations -----------------------------------------------

    def _check(self, other):
        if self.level is not other.level:
            if self.level.tower is other.level.tower:
                ra, rb = self.level.r, other.level.r
                if rb % ra == 0:
                    return self.embed(rb)._check(other)
                if ra % rb == 0:
                    return self, other.embed(ra)
            raise InputError("matrices on incompatible levels")
        return self, other

    def __add__(self, other):
        a, b = self._check(other)
        return Mat(a.level, (a.planes + b.planes) % a.level.p)

    def __sub__(self, other):
        a, b = self._check(other)
        return Mat(a.level, (a.planes - b.planes) % a.level.p)

    def __neg__(self):
        return Mat(self.level, (-self.planes) % self.level.p)

    def __matmul__(self, other):
        a, b = self._check(other)
        if a.ncols != b.nrows:
            raise InputError(
                f"dimension mismatch {a.nrows}x{a.ncols} @ "
                f"{b.nrows}x{b.ncols}")
        return Mat(a.level, _planes_matmul(a.planes, b.planes, a.level))

    def __mul__(self, scalar):
        """Scalar multiplication by an FqElement or int (ring coercion)."""
        level = self.level
        e = level.scalar(scalar) if isinstance(scalar, (int, np.integer)) \
            else level.element(scalar)
        return Mat(level, _planes_scale(e.coeffs, self.planes, level))

    __rmul__ = __mul__

    def __pow__(self, n):
        """By `_power`; self^1 is a copy."""
        if self.nrows != self.ncols:
            raise InputError("pow needs a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Mat.identity(self.level, self.nrows)
        result = _power(self, n, operator.matmul)
        return self.copy() if result is self else result

    def frobenius(self, i=1):
        level = self.level
        mat = level.frob_q_pow(i % level.r)
        return Mat(level,
                   np.einsum("j...,jk->k...", self.planes, mat) % level.p)

    def embed(self, r):
        """Entrywise embedding into a higher tower level."""
        level = self.level
        if r == level.r:
            return self
        dst = level.tower.level(r)
        emb = dst.embed_from[level.r]
        planes = np.einsum("j...,jk->k...", self.planes, emb) % level.p
        return Mat(dst, planes)

    def transpose(self):
        return Mat(self.level, self.planes.transpose(0, 2, 1).copy())

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        try:
            a, b = self._check(other)
        except InputError:
            return False
        return (a.nrows == b.nrows and a.ncols == b.ncols
                and np.array_equal(a.planes, b.planes))

    def is_zero(self):
        return not self.planes.any()

    def entry(self, i, j):
        return FqElement(self.level,
                         tuple(int(c) for c in self.planes[:, i, j]))

    def set_entry(self, i, j, value):
        self.planes[:, i, j] = self.level.element(value).coeffs

    def row(self, i):
        return Mat(self.level, self.planes[:, i:i + 1, :].copy())

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def take_rows(self, idx):
        return Mat(self.level, self.planes[:, list(idx), :].copy())

    def take_cols(self, idx):
        return Mat(self.level, self.planes[:, :, list(idx)].copy())

    @staticmethod
    def vstack(mats):
        level = mats[0].level
        return Mat(level, np.concatenate([m.planes for m in mats], axis=1))

    @staticmethod
    def hstack(mats):
        level = mats[0].level
        return Mat(level, np.concatenate([m.planes for m in mats], axis=2))

    def to_json(self):
        return [[self.entry(i, j).to_json() for j in range(self.ncols)]
                for i in range(self.nrows)]

    def __repr__(self):
        return (f"Mat({self.nrows}x{self.ncols} @ "
                f"{self.level.spec_string()})")

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot column list)."""
        R = self.copy()
        pivots = _echelon_pivots(R.planes)
        if pivots is None:
            pivots = _eliminate(R.planes, self.level)[0]
        return R, pivots

    def rank(self):
        return len(self.rref()[1])

    def row_space(self):
        """Canonical basis (nonzero rref rows) of the row space; self
        itself when it is one already."""
        if _echelon_pivots(self.planes) is not None:
            return self
        R, pivots = self.rref()
        return R.take_rows(range(len(pivots)))

    def left_kernel(self):
        """Rows v with v @ self = 0, in reduced echelon form."""
        _, tail, rank, _ = _reduce_with_identity(self)
        return tail.take_rows(range(rank, self.nrows))

    def solve_left(self, rhs):
        """X with X @ self = rhs, or None when inconsistent.  When self is
        in reduced echelon form with no zero row, X is rhs at the pivot
        columns."""
        pivots = _echelon_pivots(self.planes)
        if pivots is not None:
            coeff = rhs.take_cols(pivots)
            return coeff if coeff @ self == rhs else None
        body, tail, rank, pivots = _reduce_with_identity(self)
        coeff = rhs.take_cols(pivots)
        if not (coeff @ body.take_rows(range(rank))) == rhs:
            return None
        return coeff @ tail.take_rows(range(rank))

    def in_row_space(self, vec):
        return self.solve_left(vec) is not None

    def try_inverse(self):
        if self.nrows != self.ncols:
            raise InputError("inverse needs a square matrix")
        _, tail, rank, _ = _reduce_with_identity(self)
        return tail if rank == self.nrows else None

    def inverse(self):
        inv = self.try_inverse()
        if inv is None:
            raise InputError("matrix is singular")
        return inv

    def det(self):
        """Signed product of the pivots met by `_eliminate`: swaps negate
        the determinant, scaling a row by 1/a divides it by a, and adding
        multiples of the pivot row leaves it alone."""
        if self.nrows != self.ncols:
            raise InputError("det needs a square matrix")
        level = self.level
        pivots, leads, swaps = _eliminate(self.planes.copy(), level)
        if len(pivots) < self.nrows:
            return level.zero
        acc = level.one
        for a in leads:
            acc = acc * a
        return -acc if swaps & 1 else acc

    def charpoly(self):
        """Monic characteristic polynomial via Hessenberg reduction.

        Each step of the reduction also scales row j+1 by the pivot's
        inverse and column j+1 by the pivot, so every subdiagonal entry of
        the Hessenberg form H is 0 or 1.  The characteristic polynomials
        p_k of its leading k x k minors then satisfy

            p_k = X p_(k-1) - sum_(start <= i < k) H[i, k-1] p_i,

        with start the last row i <= k - 1 whose subdiagonal entry
        H[i, i-1] is 0 (or 0 when there is none): one plane product of a
        column of H with the stacked coefficient planes of p_start ..
        p_(k-1) per row (Cohen, GTM 138, 2.2.4)."""
        if self.nrows != self.ncols:
            raise InputError("charpoly needs a square matrix")
        level = self.level
        p = level.p
        n = self.nrows
        planes = self.planes.copy()
        for j in range(n - 1):
            nz = planes[:, j + 1:, j].any(axis=0).nonzero()[0]
            if nz.size == 0:
                continue
            pr = j + 1 + int(nz[0])
            if pr != j + 1:
                planes[:, [j + 1, pr], :] = planes[:, [pr, j + 1], :]
                planes[:, :, [j + 1, pr]] = planes[:, :, [pr, j + 1]]
            piv = planes[:, j + 1, j].copy()
            planes[:, j + 1, :] = _planes_scale(
                FqElement(level, tuple(piv.tolist())).inverse().coeffs,
                planes[:, j + 1, :], level)
            planes[:, :, j + 1] = _planes_scale(piv, planes[:, :, j + 1],
                                                level)
            if j + 2 == n:
                break
            # rows j+2.. -= f (x) row_{j+1} with f = their column j, then
            # the similarity's column step col_{j+1} += cols_{j+2..} @ f
            fcol = planes[:, j + 2:, j:j + 1].copy()
            planes[:, j + 2:, :] = (planes[:, j + 2:, :] - _planes_matmul(
                fcol, planes[:, j + 1:j + 2, :], level)) % p
            planes[:, :, j + 1:j + 2] = (
                planes[:, :, j + 1:j + 2]
                + _planes_matmul(planes[:, :, j + 2:], fcol, level)) % p
        # polys[:, i] holds the coefficient planes of p_i, padded to n + 1
        polys = np.zeros((level.m, n + 1, n + 1), dtype=np.int64)
        polys[0, 0, 0] = 1
        start = 0
        for k in range(1, n + 1):
            if k >= 2 and not planes[:, k - 1, k - 2].any():
                start = k - 1
            polys[:, k, 1:] = polys[:, k - 1, :n]
            polys[:, k, :] = (polys[:, k, :] - _planes_matmul(
                planes[:, None, start:k, k - 1], polys[:, start:k, :],
                level)[:, 0]) % p
        return PolyFq(level, polys[:, n, :])

    def minpoly_squarefree(self):
        """True when the minimal polynomial is squarefree, i.e. the matrix
        is diagonalizable over the algebraic closure."""
        cp = self.charpoly()
        rad = cp // cp.gcd(cp.derivative())
        return rad.eval_mat(self).is_zero()


def _echelon_pivots(planes):
    """Pivot columns of a plane stack already in reduced row echelon form
    with no zero row, or None when it is not one: the leading columns
    strictly increase, every other plane is zero at them, and plane 0 is
    the identity there (r nonzero residues, all of them 1 on the diagonal,
    which also rules out a zero row)."""
    m, r, n = planes.shape
    if r > n:
        return None
    if r == 0:
        return []
    nz = planes[0] != 0 if m == 1 else planes.any(axis=0)
    lead = nz.argmax(axis=1).tolist()
    if any(a >= b for a, b in zip(lead, lead[1:])):
        return None
    at = planes[:, :, lead]
    if m > 1 and at[1:].any():
        return None
    if np.count_nonzero(at[0]) != r or np.count_nonzero(at[0].diagonal() - 1):
        return None
    return lead


def _eliminate(planes, level):
    """Gauss-Jordan elimination of a plane stack in place, leaving its
    reduced row echelon form.  Returns (pivots, leads, swaps): the pivot
    columns, each pivot's value before it was scaled to 1 (an int mod p at
    m = 1, else an FqElement) and the number of row swaps.

    Rows at or below the current rank are zero left of the current column,
    so swaps, scaling and updates touch only the columns from it on.  At
    m = 1 the inverse is one pow(a, -1, p) and the update one np.outer of
    the column's nonzero entries with the pivot row.  At m >= 2 the pivot
    row is scaled by one `_planes_scale`, and each nonzero entry f_i of the
    column is expanded into the matrix of x -> x f_i through `Level.fold`,
    so the update is one product of those R matrices with the scaled row:
    R m^3 + R m^2 k multiply-adds for R rows and k columns.  Every sum has
    at most m terms, each below (p-1)^2, so p must pass the word-size
    bound of a plane product of inner dimension 1."""
    m, nrows, ncols = planes.shape
    p = level.p
    pivots, leads, swaps = [], [], 0
    _check_word_size(1, p, m)
    a = planes[0]
    fold = level.fold.reshape(m, m * m)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        colv = planes[:, :, col].any(axis=0) if m > 1 else a[:, col]
        nz = colv[rank:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            planes[:, [rank, pr], col:] = planes[:, [pr, rank], col:]
            swaps += 1
        if m == 1:
            lead = int(a[rank, col])
            row = a[rank, col:] * pow(lead, -1, p) % p
            a[rank, col:] = row
            f = a[:, col].copy()
            f[rank] = 0
            rows = f.nonzero()[0]
            if rows.size:
                a[rows, col:] = (a[rows, col:]
                                 - np.outer(f[rows], row)) % p
        else:
            lead = FqElement(level, tuple(planes[:, rank, col].tolist()))
            row = _planes_scale(lead.inverse().coeffs, planes[:, rank, col:],
                                level)
            planes[:, rank, col:] = row
            f = planes[:, :, col].copy()
            f[:, rank] = 0
            rows = f.any(axis=0).nonzero()[0]
            if rows.size:
                # mults[i, t, s]: coefficient s of f_i zeta^t
                mults = (f[:, rows].T @ fold % p).reshape(-1, m, m)
                upd = mults.transpose(2, 0, 1).reshape(-1, m) @ row
                planes[:, rows, col:] = (planes[:, rows, col:]
                                         - upd.reshape(m, rows.size, -1)) % p
        leads.append(lead)
        pivots.append(col)
        rank += 1
    return pivots, leads, swaps


def _reduce_with_identity(A):
    """Row-reduce [A | I] once.  Returns (body, tail, rank, pivots): the
    reduced matrix split after A's columns, A's rank and its pivot columns.
    The first rank rows of the tail write A's echelon rows in A's rows;
    the others are a reduced echelon basis of A's left kernel."""
    n = A.ncols
    R, pivots = Mat.hstack([A, Mat.identity(A.level, A.nrows)]).rref()
    pivots = [c for c in pivots if c < n]
    return (R.take_cols(range(n)), R.take_cols(range(n, n + A.nrows)),
            len(pivots), pivots)


def _descend(rows, level):
    """Rows over an extension level whose entries all lie in the image of
    the base level; returns their base-level preimages (or None)."""
    pivots, body, tail = _descent_solver(rows.level, level)
    p = level.p
    targets = rows.planes.reshape(rows.level.m, -1).T % p
    coeff = targets[:, pivots]
    if not np.array_equal(coeff @ body % p, targets):
        return None
    return Mat(level, (coeff @ tail % p).T.reshape(
        level.m, rows.nrows, rows.ncols))


def _descent_solver(src, level):
    """(pivots, body, tail) of the row-reduced [emb | I], emb being the
    embedding of `level` into the level `src`: a coefficient row t of src
    lies in the image when t[pivots] @ body = t, and its preimage is
    t[pivots] @ tail.  Reduced once per pair and kept on `src`; the tuple
    is stored whole, so a concurrent reader finds it complete or absent."""
    solver = src._descents.get(level.r)
    if solver is not None:
        return solver
    body, tail, r, pivots = _reduce_with_identity(
        Mat(level.tower.prime_level(), src.embed_from[level.r][None]
            % level.p))
    solver = (np.array(pivots, dtype=np.intp), body.planes[0, :r],
              tail.planes[0, :r])
    return src._descents.setdefault(level.r, solver)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class PolyFq:
    """Dense univariate polynomial over a tower level, coefficients
    ascending."""

    __slots__ = ("level", "planes")

    def __init__(self, level, planes):
        # normalize: strip trailing zero coefficients
        nz = np.nonzero(planes.any(axis=0))[0]
        n = int(nz[-1]) + 1 if nz.size else 0
        self.level = level
        self.planes = planes[:, :n]

    @classmethod
    def from_coeffs(cls, level, coeffs):
        planes = np.zeros((level.m, len(coeffs)), dtype=np.int64)
        for i, c in enumerate(coeffs):
            planes[:, i] = level.element(c).coeffs
        return cls(level, planes)

    @classmethod
    def zero(cls, level):
        return cls(level, np.zeros((level.m, 0), dtype=np.int64))

    @classmethod
    def one_poly(cls, level):
        return cls.from_coeffs(level, [1])

    @property
    def degree(self):
        return self.planes.shape[1] - 1

    def is_zero(self):
        return self.planes.shape[1] == 0

    def coeff(self, i):
        if i >= self.planes.shape[1]:
            return self.level.zero
        return FqElement(self.level, tuple(int(c) for c in self.planes[:, i]))

    def coeffs(self):
        return [self.coeff(i) for i in range(self.planes.shape[1])]

    def coeff_ints(self):
        """Coefficients as enumeration indices, ascending: the canonical
        sort key of `factor` and of generalized roots."""
        return [c.to_int() for c in self.coeffs()]

    def leading(self):
        if self.is_zero():
            return self.level.zero
        return self.coeff(self.degree)

    def __eq__(self, other):
        if not isinstance(other, PolyFq):
            return NotImplemented
        return (self.level is other.level
                and np.array_equal(self.planes, other.planes))

    def __hash__(self):
        return hash((id(self.level), self.planes.tobytes(),
                     self.planes.shape))

    def __add__(self, other):
        n = max(self.planes.shape[1], other.planes.shape[1])
        a = np.zeros((self.level.m, n), dtype=np.int64)
        a[:, :self.planes.shape[1]] = self.planes
        a[:, :other.planes.shape[1]] += other.planes
        return PolyFq(self.level, a % self.level.p)

    def __sub__(self, other):
        n = max(self.planes.shape[1], other.planes.shape[1])
        a = np.zeros((self.level.m, n), dtype=np.int64)
        a[:, :self.planes.shape[1]] = self.planes
        a[:, :other.planes.shape[1]] -= other.planes
        return PolyFq(self.level, a % self.level.p)

    def __neg__(self):
        return PolyFq(self.level, (-self.planes) % self.level.p)

    def __mul__(self, other):
        """Product with a PolyFq, or scalar multiple by an FqElement or an
        int (ring coercion, as for Mat)."""
        level = self.level
        if isinstance(other, (int, np.integer)):
            return self.scale(level.scalar(other))
        if isinstance(other, FqElement):
            return self.scale(level.element(other))
        if self.is_zero() or other.is_zero():
            return PolyFq.zero(level)
        a, b = sorted((self.planes, other.planes), key=lambda t: t.shape[1])
        m, k, nb = level.m, a.shape[1], b.shape[1]
        n = k + nb - 1
        # Toeplitz stack: row i is b shifted right by i.  Rows of length
        # n + 1 holding b at their start, read back n wide.
        rows = np.zeros((m, k, n + 1), dtype=np.int64)
        rows[:, :, :nb] = b[:, None, :]
        rows = rows.reshape(m, k * (n + 1))[:, :k * n].reshape(m, k, n)
        return PolyFq(level, _planes_matmul(a[:, None, :], rows, level)[:, 0])

    __rmul__ = __mul__

    def scale(self, s):
        return PolyFq(self.level,
                      _planes_scale(s.coeffs, self.planes, self.level))

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        level = self.level
        if self.degree < other.degree:
            return PolyFq.zero(level), self
        m, p = level.m, level.p
        if m == 1:
            quot, rem = divmod(_GFpPoly.of(self), _GFpPoly.of(other))
            return quot.poly(), rem.poly()
        lead = other.leading()
        monic = lead == level.one
        gm = other if monic else other.scale(lead.inverse())
        g = gm.planes
        dg = gm.degree
        rem = self.planes.copy()
        n = rem.shape[1]
        qpl = np.zeros((m, n - dg), dtype=np.int64)
        for k in range(n - 1, dg - 1, -1):
            c = rem[:, k]
            if not c.any():
                continue
            qpl[:, k - dg] = c
            rem[:, k - dg:k + 1] = (rem[:, k - dg:k + 1]
                                    - _planes_scale(c, g, level)) % p
        quot = PolyFq(level, qpl)
        if not monic:
            quot = quot.scale(lead.inverse())
        return quot, PolyFq(level, rem[:, :dg])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == self.level.one:
            return self
        return self.scale(lead.inverse())

    def gcd(self, other):
        if self.level.m == 1:
            return _GFpPoly.of(self).gcd(_GFpPoly.of(other)).poly()
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        if self.degree < 1:
            return PolyFq.zero(self.level)
        n = self.planes.shape[1]
        mult = np.arange(1, n, dtype=np.int64) % self.level.p
        return PolyFq(self.level, self.planes[:, 1:] * mult % self.level.p)

    def pth_root(self):
        """g with g^p = self, for self' = 0: X^(kp) becomes X^k and each
        coefficient c its p-th root c^(q/p)."""
        level = self.level
        root_exp = level.order // level.p
        return PolyFq.from_coeffs(level, [
            self.coeff(i) ** root_exp
            for i in range(0, self.planes.shape[1], level.p)])

    def pow_mod(self, n, modulus):
        """self^n mod modulus by `_power`.  Only self % modulus divides;
        every product is reduced by one plane product with
        `_reduction_table(modulus)`."""
        base = self % modulus
        if n == 0:
            return PolyFq.one_poly(self.level)
        level = self.level
        table = _reduction_table(modulus)
        return _power(base, n, lambda a, b: PolyFq(level, _reduce_rows(
            (a * b).planes[:, None, :], table, level)[:, 0]))

    def eval_mat(self, M):
        """self(M) by Horner's rule, each coefficient added onto the
        diagonal of acc @ M; coefficients are coerced to M's level."""
        level = M.level
        coeffs = self.planes if self.level is level else np.array(
            [level.element(c).coeffs for c in self.coeffs()],
            dtype=np.int64).reshape(-1, level.m).T
        acc = Mat.zeros(level, M.nrows, M.ncols)
        diag = np.arange(M.nrows)
        for i in range(coeffs.shape[1] - 1, -1, -1):
            acc = acc @ M
            acc.planes[:, diag, diag] = (acc.planes[:, diag, diag]
                                         + coeffs[:, i, None]) % level.p
        return acc

    def substitute_neg(self):
        """f(-X), sign-adjusted by the caller as needed."""
        planes = self.planes.copy()
        planes[:, 1::2] = (-planes[:, 1::2]) % self.level.p
        return PolyFq(self.level, planes)

    def to_json(self):
        return [self.coeff(i).to_json()
                for i in range(self.planes.shape[1])]

    def __repr__(self):
        if self.is_zero():
            return "PolyFq(0)"
        terms = []
        for i in range(self.planes.shape[1]):
            c = self.coeff(i)
            if c:
                terms.append(f"({c.to_int()})X^{i}")
        return "PolyFq(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

def squarefree_decomposition(f):
    """[(g, k)] with f = lead * prod g^k, the g monic squarefree coprime.
    An f with f' = 0 is a p-th power; `pth_root` takes its root."""
    p = f.level.p
    f = f.monic()
    out = []
    e = 1
    while f.degree > 0:
        fp = f.derivative()
        if fp.is_zero():
            f = f.pth_root()
            e *= p
            continue
        g = f.gcd(fp)
        if g.degree == 0:
            out.append((f, e))
            break
        w = f // g
        i = 1
        while w.degree > 0:
            y = w.gcd(g)
            fac = w // y
            if fac.degree > 0:
                out.append((fac.monic(), i * e))
            w = y
            g = g // y
            i += 1
        f = g
    return out


def _reduce_rows(c, table, level):
    """Rows of the plane stack c, shape (m, r, n), reduced mod the modulus
    of `table`: X^k for k >= d is replaced by table row k - d, all in one
    plane product.  Needs n <= d + table rows; returns shape (m, r, d)."""
    d = table.shape[2]
    n = c.shape[2]
    if n <= d:
        out = np.zeros(c.shape[:2] + (d,), dtype=np.int64)
        out[:, :, :n] = c
        return out
    return (c[:, :, :d] + _planes_matmul(c[:, :, d:], table[:, :n - d],
                                         level)) % level.p


def _reduction_table(f):
    """Planes (m, d - 1, d) whose row k holds X^(d+k) mod f, d = deg f:
    with the identity rows X^0 .. X^(d-1) they reduce every product of two
    remainders, degree <= 2d - 2.  Built from f.monic() by doubling: X^t
    times rows 0 .. t-1 gives rows t .. 2t-1, reduced by rows 0 .. t-1."""
    level = f.level
    fm = f.monic()
    d = fm.degree
    table = (-fm.planes[:, None, :d]) % level.p
    while table.shape[1] < d - 1:
        t = table.shape[1]
        shifted = np.zeros((level.m, t, d + t), dtype=np.int64)
        shifted[:, :, t:] = table
        table = np.concatenate(
            [table, _reduce_rows(shifted, table, level)], axis=1)
    return table[:, :d - 1]


_EDF_DRAW_CAP = 64


def _distinct_degree(f):
    """[(product of irreducibles of degree d, d)] for squarefree monic f:
    step d takes h = X^(q^(d-1)) mod rem to h^q mod rem, and gcd(h - X,
    rem) is the product of the factors of degree d."""
    level = f.level
    x = type(f).from_coeffs(level, [0, 1])
    out = []
    d = 0
    rem = f
    h = x
    while rem.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(level.order, rem)
        g = (h - x).gcd(rem)
        if g.degree > 0:
            out.append((g, d))
            rem = rem // g
    if rem.degree > 0:
        out.append((rem, rem.degree))
    return out


def _equal_degree_split(f, d, rng):
    """Split a monic squarefree product of degree-d irreducibles.  Each
    draw splits such an f of degree > d with probability about 1/2 or more,
    so `_EDF_DRAW_CAP` draws without a split (skipped draws included) mean
    f is not one: raises BudgetExhausted."""
    level = f.level
    if f.degree == d:
        return [f]
    q = level.order
    one = type(f).from_coeffs(level, [1])
    for _ in range(_EDF_DRAW_CAP):
        # f.degree draws, read as enumeration indices by either arithmetic
        b = type(f).from_coeffs(level, [rng.randrange(q)
                                        for _ in range(f.degree)])
        if b.degree < 1:
            continue
        if level.p == 2:
            acc = tr = b
            for _ in range(level.m * d - 1):
                acc = acc * acc % f
                tr = tr - acc  # a sum: + and - agree mod 2
            g = tr.gcd(f)
        else:
            g = (b.pow_mod((q ** d - 1) // 2, f) - one).gcd(f)
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, d, rng)
                    + _equal_degree_split(f // g, d, rng))
    raise BudgetExhausted(f"no equal-degree split of a degree-{f.degree} "
                          f"polynomial into degree-{d} factors in "
                          f"{_EDF_DRAW_CAP} draws")


def factor(f, rng):
    """Complete factorization into (monic irreducible, multiplicity) pairs.

    The product of the returned powers times the leading coefficient
    reproduces the input; each factor is certified irreducible before
    return.  Randomness only affects the equal-degree splitting path, never
    the set of factors, which is sorted canonically.  At m = 1 the pipeline
    runs on `_GFpPoly`, with the same draws.
    """
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    level = f.level
    g = _GFpPoly.of(f) if level.m == 1 else f
    x = type(g).from_coeffs(level, [0, 1])
    out = []
    for h, mult in squarefree_decomposition(g):
        for prod, d in _distinct_degree(h):
            for irr in _equal_degree_split(prod, d, rng):
                irr = irr.monic()
                # distinct-degree residue certificate: X^(q^d) = X mod irr
                if irr.degree > 1 and not (x.pow_mod(
                        level.order ** irr.degree, irr) - x).is_zero():
                    raise VerificationError("factor failed certification")
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeff_ints()))
    if level.m == 1:
        return [(irr.poly(), mult) for irr, mult in out]
    return out


class _GFpPoly:
    """A polynomial over GF(p) itself (m = 1): a little-endian list of
    Python ints in [0, p) with no zero leading coefficient ([] is zero) and
    its level.  Its methods are PolyFq's, on the lists of `ff._list_divmod`,
    so they are exact at any p.  Most polynomials factored in the Chevalley
    stages have degree 6 or less, where numpy's cost per call outweighs the
    arithmetic."""

    __slots__ = ("level", "ints")

    def __init__(self, level, ints):
        self.level = level
        self.ints = ints

    @classmethod
    def of(cls, f):
        """The list of an m = 1 PolyFq."""
        return cls(f.level, f.planes[0].tolist())

    def poly(self):
        return PolyFq(self.level, np.array([self.ints], dtype=np.int64))

    @classmethod
    def from_coeffs(cls, level, coeffs):
        """From ints in [0, p), as `PolyFq.from_coeffs` reads them."""
        return cls(level, _trim(list(coeffs)))

    @property
    def degree(self):
        return len(self.ints) - 1

    def is_zero(self):
        return not self.ints

    def coeff_ints(self):
        return self.ints

    def monic(self):
        a = self.ints
        if not a or a[-1] == 1:
            return self
        p = self.level.p
        inv = pow(a[-1], -1, p)
        return _GFpPoly(self.level, [c * inv % p for c in a])

    def derivative(self):
        p = self.level.p
        return _GFpPoly(self.level, _trim(
            [i * c % p for i, c in enumerate(self.ints)][1:]))

    def pth_root(self):
        """Every coefficient is its own p-th power, so the root of
        f(X^p) = g^p is g = f[::p]."""
        return _GFpPoly(self.level, self.ints[::self.level.p])

    def __sub__(self, other):
        a, b = self.ints, other.ints
        out = a + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        p = self.level.p
        return _GFpPoly(self.level, _trim([c % p for c in out]))

    def __mul__(self, other):
        p = self.level.p
        return _GFpPoly(self.level,
                        [c % p for c in _list_mul(self.ints, other.ints)])

    def __divmod__(self, other):
        quot, rem = _list_divmod(self.ints, other.ints, self.level.p)
        return _GFpPoly(self.level, quot), _GFpPoly(self.level, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return _GFpPoly(self.level, _list_divmod(self.ints, other.ints,
                                                 self.level.p)[1])

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        p = self.level.p
        a, b = self.ints, other.ints
        while b:
            a, b = b, _list_divmod(a, b, p)[1]
        return _GFpPoly(self.level, a).monic()

    def pow_mod(self, n, modulus):
        """self^n mod modulus by `_power` on bare lists: each step is one
        `_list_mul`, whose coefficients `_list_divmod` reduces mod p along
        with the division."""
        if n == 0:
            return _GFpPoly(self.level, [1])
        p, f = self.level.p, modulus.ints

        def mulmod(a, b):
            prod = _list_mul(a, b)
            if len(prod) < len(f):
                return [c % p for c in prod]
            return _list_divmod(prod, f, p)[1]

        return _GFpPoly(self.level, _power((self % modulus).ints, n, mulmod))


def _list_mul(a, b):
    """The product of two coefficient lists, its coefficients left
    unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, y in enumerate(b):
                out[i + j] += c * y
    return out


# ---------------------------------------------------------------------------
# Matrix order
# ---------------------------------------------------------------------------

def _pollard_rho(n, rng, budget=200000):
    if n % 2 == 0:
        return 2
    for _ in range(24):
        x = rng.randrange(2, n - 1)
        y, c, d = x, rng.randrange(1, n - 1), 1
        count = 0
        while d == 1 and count < budget:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            count += 1
        if 1 < d < n:
            return d
    return None


def _factor_int(n, rng):
    """Prime factorization dict, or None when a cofactor resists."""
    from .ff import is_prime as _is_prime
    out = {}
    for d in range(2, 100000):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if _is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _pollard_rho(v, rng)
        if d is None:
            return None
        stack.extend([d, v // d])
    return out


def _coefficient_level(f):
    """f moved down to level 1 when all its coefficients lie there (as a
    Lang norm's do), else f itself."""
    if f.level.r == 1:
        return f
    low = _descend(Mat(f.level, f.planes[:, None, :]),
                   f.level.tower.level(1))
    return f if low is None else PolyFq(low.level, low.planes[:, 0, :])


def matrix_order(M, cap=10 ** 6, rng=None, multiple=None):
    """Least t >= 1 with M^t = I.

    Factors the characteristic polynomial over level 1 when its
    coefficients lie there (`_coefficient_level`), else over the carrier,
    to bound the order: a factor of degree k over GF(q') has its roots in
    GF(q'^k), and multiplicities do not depend on the level.  A known
    multiple of the order, such as q - 1 for an element of k^*, replaces
    that bound.  Factors the bound and finds the order's part at each of
    its primes by divide and conquer (`_order_from_multiple`), which also
    checks that M^bound = I; when the integer factorizations resist the
    budget, falls back to plain iteration up to ``cap``.
    """
    import random as _random
    rng = rng or _random.Random(0)
    n = M.nrows
    ident = Mat.identity(M.level, n)
    bound = multiple if multiple is not None else _charpoly_bound(M, rng)
    primes = _factor_int(bound, rng)
    if primes is None:
        # honest fallback: step through powers
        acc = M
        for t in range(1, cap + 1):
            if acc == ident:
                return t
            acc = acc @ M
        raise BudgetExhausted(f"matrix order exceeds cap {cap}")
    return _order_from_multiple(M, list(primes.items()), ident)


def _charpoly_bound(M, rng):
    """A multiple of the order of M from its characteristic polynomial:
    lcm(q'^deg(f) - 1) over its irreducible factors f, times the least
    power of p at least their largest multiplicity."""
    cp = M.charpoly()
    # cp(0) = (-1)^n det M
    if not cp.planes[:, 0].any():
        raise InputError("matrix_order needs an invertible matrix")
    cp = _coefficient_level(cp)
    q = cp.level.order
    facs = factor(cp, rng)
    if any(f.degree == 0 for f, _ in facs):  # pragma: no cover
        raise VerificationError("constant irreducible factor")
    bound = 1
    max_mult = max(mult for _, mult in facs)
    for f, _ in facs:
        bound = bound * (q ** f.degree - 1) // math.gcd(
            bound, q ** f.degree - 1)
    ppart = 1
    while ppart < max_mult:
        ppart *= M.level.p
    return bound * ppart


def _order_from_multiple(A, items, ident):
    """Order of A from prime powers items = [(l, v), ...] whose product B
    should be a multiple of it (Celler and Leedham-Green).

    A single prime's part is found by raising A to the l-th power until it
    is I, at most v times; more primes split into halves L and R, solved on
    A^(prod R) and A^(prod L).  Every leaf raises A^(B / l^v) to l^v, so
    each one tests A^B = I and raises VerificationError when it fails: a
    bound that misses part of the order never yields a wrong one."""
    if not items:
        if not A == ident:
            raise VerificationError("order bound violated")
        return 1
    if len(items) == 1:
        (ell, v), = items
        e = 0
        while not A == ident:
            if e == v:
                raise VerificationError("order bound violated")
            A = A ** ell
            e += 1
        return ell ** e
    half = len(items) // 2
    left, right = items[:half], items[half:]
    b_left = math.prod(ell ** v for ell, v in left)
    b_right = math.prod(ell ** v for ell, v in right)
    return (_order_from_multiple(A ** b_right, left, ident)
            * _order_from_multiple(A ** b_left, right, ident))


# ---------------------------------------------------------------------------
# Spec-facing functional wrappers
# ---------------------------------------------------------------------------

def rref(M):
    R, pivots = M.rref()
    return R, pivots, len(pivots)


def kernel(M):
    return M.left_kernel()


def solve(M, v):
    return M.solve_left(v)


def det(M):
    return M.det()


def charpoly(M):
    return M.charpoly()


def fixed_space(M):
    """Basis of {v : v M = v}."""
    return (M - Mat.identity(M.level, M.nrows)).left_kernel()
