"""Finite field towers GF(p) < GF(p^e) = k < k_r < k_rs with exact arithmetic.

A :class:`FieldTower` fixes a prime p and a base extension degree e, so the
base field is k = GF(q) with q = p^e.  Levels are indexed by their relative
degree r over k; level r is the field k_r = GF(q^r), represented absolutely
as GF(p)[X]/(f_r) for a monic irreducible f_r of degree e*r.  Defining
polynomials are chosen deterministically: the first candidate in a fixed
enumeration whose own matrix of x -> x^p passes Berlekamp's criterion, and
that matrix becomes the level's Frobenius table.  Embeddings between
divisor-related levels are computed once and kept mutually coherent, so
towers are reproducible across runs.  An embedding k_s -> k_t sends the root
of f_s to a root of f_s in k_t; the roots come from the linear factors of f_s
over k_t, found by the equal-degree split of ``linalg``, and the smallest
coherent one is chosen, so the choice does not depend on the RNG.

Elements (:class:`FqElement`) store their GF(p) coefficient vector
little-endian in the chosen root of the level's defining polynomial.  All
arithmetic is exact; nothing in this module (or the package) ever rounds.

The module also houses the small solvers needed by the bilinear-form
machinery: square roots, a fixed nonsquare per level, and the two-variable
diagonal quadratic equation over a level.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .errors import InputError, VerificationError


# ---------------------------------------------------------------------------
# Word size, matrix powers and defining polynomials
# ---------------------------------------------------------------------------

_prime_towers = {}


def _prime_level(p):
    """GF(p) as the one level of a tower cached per prime.  Towers grown in
    parallel threads share it, so the first tower stored is the one every
    caller gets."""
    tower = _prime_towers.get(p)
    if tower is None:
        tower = _prime_towers.setdefault(p, FieldTower(p))
    return tower.level(1)


def _check_word_size(n, p, m):
    """Raise InputError unless max(n, m^2) (p-1)^2 < 2^63: the largest sum
    of a product of inner dimension n followed by a fold through
    `Level.fold`, each term a product of two residues mod p."""
    bound = max(n, m ** 2) * (p - 1) ** 2
    if bound >= 1 << 63:
        raise InputError(
            f"p = {p} is too large for exact int64 products at degree "
            f"m = {m}: max(n, m^2) (p-1)^2 = {bound} reaches 2^63")


def _power(base, n, mul):
    """base^n for n >= 1 by square-and-multiply, mul being the product:
    bits(n) - 1 squarings and popcount(n) - 1 further products, none with
    the identity."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def _mat_pow(mat, n, p):
    """mat^n mod p for a square int64 matrix and n >= 1, by `_power`."""
    return _power(mat, n, lambda a, b: a @ b % p)


def _orbit(v, mat, n, p):
    """The rows v, v mat, ..., v mat^(n-1) mod p."""
    rows = [v]
    for _ in range(n - 1):
        rows.append(rows[-1] @ mat % p)
    return np.array(rows)


def _irreducible_tables(f, plevel):
    """For a monic f of degree m >= 2 over GF(p), plevel being a level equal
    to GF(p): when f is irreducible, two tables of GF(p)[X]/(f) =
    GF(p)(zeta), powers (row k = zeta^k for k < 2m - 1) and frob_p (row j =
    zeta^(p j), the matrix of x -> x^p); None otherwise.

    Both tables are orbits of 1 = e_0, under the companion matrix C of f
    (the matrix of x -> x zeta) and under C^p.  By Berlekamp's criterion
    the fixed space of x -> x^p has one dimension per distinct irreducible
    factor of f, so f is irreducible exactly when frob_p - 1 has rank
    m - 1 and frob_p^m = 1 (which rules out a power of one irreducible)."""
    from .linalg import Mat
    p, m = plevel.p, len(f) - 1
    eye = np.eye(m, dtype=np.int64)
    comp = np.eye(m, k=1, dtype=np.int64)
    comp[-1] = [(-c) % p for c in f[:m]]
    frob_p = _orbit(eye[0], _mat_pow(comp, p, p), m, p)
    if (np.array_equal(_mat_pow(frob_p, m, p), eye) and
            Mat.from_int_rows(plevel, frob_p - eye).rank() == m - 1):
        return _orbit(eye[0], comp, 2 * m - 1, p), frob_p
    return None


def _defining_tables(tower, m):
    """(f, powers, frob_p) for the first monic irreducible f of degree m over
    GF(p), enumerating its non-leading coefficients as a base-p counter.

    The first p - 1 candidates are the binomials X^m + c.  X^m - a with
    a != 0 is irreducible exactly when every prime l | m divides p - 1 and
    a is not an l-th power, a^((p-1)/l) != 1, and p = 1 mod 4 when 4 | m
    (Lidl and Niederreiter, Finite Fields, Thm 3.75).  Binomials that fail
    this are skipped untested, all of them at once when p and m alone rule
    them out, so the candidate order and its first irreducible are
    unchanged; the accepted candidate is still tested, since that test
    builds its tables."""
    if m == 1:
        return (0, 1), np.ones((1, 1), np.int64), np.ones((1, 1), np.int64)
    p = tower.p
    plevel = tower.prime_level()
    primes = [ell for ell in range(2, m + 1) if m % ell == 0 and is_prime(ell)]
    binomials = (all((p - 1) % ell == 0 for ell in primes)
                 and (m % 4 or p % 4 == 1))
    # X^m itself is reducible
    for idx in itertools.count(1 if binomials else p):
        if idx < p and any(pow(p - idx, (p - 1) // ell, p) == 1
                           for ell in primes):
            continue
        f = _int_to_coeffs(idx, p, m) + (1,)
        tables = _irreducible_tables(f, plevel)
        if tables is not None:
            return (f,) + tables


def is_prime(n):
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    # deterministic Miller-Rabin for 64-bit inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Levels and elements
# ---------------------------------------------------------------------------

class Level:
    """Data for one tower level k_r = GF(p^(e*r)).

    Immutable after construction except for the embedding dictionary, which
    the owning tower fills in while new levels are created, and the caches
    of Frobenius powers and descent solvers, whose entries are stored
    whole on first use.
    """

    _exp = None  # no exp/log tables; bench/spans.py counts products by it

    def __init__(self, tower, r, defpoly, powers, frob_p):
        self.tower = tower
        self.r = r
        self.p = tower.p
        self.m = tower.e * r            # absolute degree over GF(p)
        self.order = tower.p ** self.m  # field size
        self.defpoly = tuple(defpoly)
        p, m = self.p, self.m
        # powers[k] = coeffs of zeta^k for k < 2m - 1, and
        # fold[i*m + j] = coeffs of zeta^(i+j): folds all plane pairs at once
        self.powers = powers
        self.fold = powers[np.add.outer(np.arange(m), np.arange(m)).ravel()]
        # matrix of x -> x^p (GF(p)-linear), rows act on coefficient rows
        self.frob_p = frob_p
        self.frob_q = _mat_pow(frob_p, tower.e, p)
        self._frob_q_pows = {0: np.eye(m, dtype=np.int64)}
        self._descents = {}  # linalg._descent_solver, per lower level r
        self.embed_from = {r: np.eye(m, dtype=np.int64)}
        self.zero = FqElement(self, (0,) * m)
        self.one = FqElement(self, (1,) + (0,) * (m - 1))

    def frob_q_pow(self, i):
        i %= self.r
        mat = self._frob_q_pows.get(i)
        if mat is None:
            mat = self._frob_q_pows[i] = _mat_pow(self.frob_q, i, self.p)
        return mat

    def element(self, value):
        """Coerce an int index, coefficient sequence, or FqElement.

        Integers are treated as enumeration indices (base-p digit vectors);
        for the ring map Z -> field use :meth:`scalar`.  The two agree on
        0 <= value < p, which covers reduced structure constants.
        """
        if isinstance(value, FqElement):
            if value.level is self:
                return value
            return embed(value, self.r)
        if isinstance(value, (int, np.integer)):
            return FqElement(self, _int_to_coeffs(int(value) % self.order,
                                                  self.p, self.m))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.m:
            raise InputError(
                f"expected {self.m} coefficients, got {len(coeffs)}")
        return FqElement(self, coeffs)

    def scalar(self, value):
        """The ring map Z -> field: value mod p in the constant term."""
        return FqElement(self, (int(value) % self.p,) + (0,) * (self.m - 1))

    def elements(self):
        """Iterate all field elements in the fixed enumeration order."""
        for idx in range(self.order):
            yield self.element(idx)

    def spec_string(self):
        return f"{self.p}^({self.tower.e}*{self.r})"

    def __repr__(self):
        return f"Level(GF({self.p}^{self.m}), r={self.r})"


def _int_to_coeffs(idx, p, m):
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _coeffs_to_int(coeffs, p):
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _poly_mul_reduce(a, b, level):
    """Multiply two coefficient tuples and reduce mod the defining poly."""
    p, m = level.p, level.m
    if m == 1:
        return ((a[0] * b[0]) % p,)
    # reduce before the fold: its sums then stay below m (p-1)^2
    conv = np.convolve(np.asarray(a, dtype=np.int64),
                       np.asarray(b, dtype=np.int64)) % p
    return tuple((conv @ level.powers % p).tolist())


def _mult_matrix(coeffs, level):
    """The GF(p)-matrix of x -> x c on a level, rows acting on coefficient
    rows: row j holds c zeta^j = sum_i c_i zeta^(i+j), read off `fold`."""
    m = level.m
    c = np.asarray(coeffs, dtype=np.int64)
    return (c @ level.fold.reshape(m, m * m) % level.p).reshape(m, m)


def _trim(coeffs):
    """Drop the zero leading (highest-degree) coefficients, in place."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# GF(p) polynomials as little-endian lists of Python ints in [0, p) with no
# zero leading coefficient ([] is the zero polynomial).  Exact at any p.

def _list_divmod(a, b, p):
    """(quotient, remainder) of coefficient lists, b nonzero: one
    pow(lead, -1, p), then one row step per quotient coefficient (von zur
    Gathen and Gerhard, Modern Computer Algebra, Alg. 2.5).  Returns a
    itself as the remainder when deg a < deg b."""
    d = len(b) - 1
    n = len(a) - d
    if n <= 0:
        return [], a
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * n
    for j in range(n - 1, -1, -1):  # rem -= c X^j b
        c = rem[j + d] * inv % p
        if c:
            quot[j] = c
            for i in range(d):
                rem[j + i] -= c * b[i]
    return quot, _trim([x % p for x in rem[:d]])


def _coeffs_inverse(coeffs, level):
    """The inverse of a nonzero coefficient tuple a modulo the defining
    polynomial f, by the extended Euclidean algorithm on Python-int lists
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 3-4): rows
    keep s a = r mod f, one `_list_divmod` per step.  Raises, rather
    than return a non-inverse, unless the last nonzero remainder gcd(a, f)
    is a constant, as it is for an irreducible f."""
    p = level.p
    r0, r1 = list(level.defpoly), _trim(list(coeffs))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, rem = _list_divmod(r0, r1, p)
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for i, c in enumerate(quot):  # s = s0 - quot s1
            if c:
                for j, x in enumerate(s1):
                    s[i + j] -= c * x
        r0, r1 = r1, rem
        s0, s1 = s1, _trim([x % p for x in s])
    if not r1:
        raise VerificationError(
            "element shares a factor with the defining polynomial")
    inv = pow(r1[0], -1, p)
    return tuple([x * inv % p for x in s1] + [0] * (level.m - len(s1)))


class FqElement:
    """An element of one tower level, as a GF(p) coefficient tuple."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        self.level = level
        self.coeffs = coeffs

    # -- coercion ----------------------------------------------------------

    def _match(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.level.scalar(int(other))
        if not isinstance(other, FqElement):
            return NotImplemented, NotImplemented
        if other.level is self.level:
            return self, other
        a, b = self, other
        ra, rb = a.level.r, b.level.r
        if a.level.tower is not b.level.tower:
            raise InputError("elements from different towers")
        if rb % ra == 0:
            return embed(a, rb), b
        if ra % rb == 0:
            return a, embed(b, ra)
        raise InputError(f"incompatible levels {ra} and {rb}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        p = a.level.p
        return FqElement(a.level, tuple((x + y) % p
                                        for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        p = a.level.p
        return FqElement(a.level, tuple((x - y) % p
                                        for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        p = self.level.p
        return FqElement(self.level, tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return FqElement(a.level,
                         _poly_mul_reduce(a.coeffs, b.coeffs, a.level))

    __rmul__ = __mul__

    def inverse(self):
        level = self.level
        if not self:
            raise ZeroDivisionError("division by zero in GF")
        if level.m == 1:
            return FqElement(level, (pow(int(self.coeffs[0]), -1, level.p),))
        return FqElement(level, _coeffs_inverse(self.coeffs, level))

    def __truediv__(self, other):
        a, b = self._match(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        level = self.level
        if n == 0:
            return level.one
        return FqElement(level, _power(
            self.coeffs, n, lambda a, b: _poly_mul_reduce(a, b, level)))

    def frobenius(self, i=1):
        """x -> x^(q^i); negative i inverts (F has order r on level r)."""
        level = self.level
        mat = level.frob_q_pow(i % level.r)
        vec = np.array(self.coeffs, dtype=np.int64) @ mat % level.p
        return FqElement(level, tuple(int(c) for c in vec))

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.level.scalar(int(other))
        if not isinstance(other, FqElement):
            return NotImplemented
        if other.level is not self.level:
            try:
                a, b = self._match(other)
            except InputError:
                return False
            return a.coeffs == b.coeffs
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.level), self.coeffs))

    def to_int(self):
        return _coeffs_to_int(self.coeffs, self.level.p)

    def to_json(self):
        return list(self.coeffs)

    def __repr__(self):
        return f"Fq({list(self.coeffs)} @ {self.level.spec_string()})"


# ---------------------------------------------------------------------------
# The tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Lazily grown tower of extensions of k = GF(p^e).

    Level construction mutates shared state and must be serialized by the
    caller; all level data and elements are immutable afterwards.
    """

    def __init__(self, p, e=1):
        p = int(p)
        e = int(e)
        if p <= 1 or not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if e < 1:
            raise InputError(f"e = {e} must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        self.levels = {}
        self._rng = random.Random(p * 1000003 + e)
        self.extend(1)

    # -- level management --------------------------------------------------

    def extend(self, r):
        """Ensure level k_r exists (idempotent) and return its tag r."""
        r = int(r)
        if r < 1:
            raise InputError(f"r = {r} must be >= 1")
        if r in self.levels:
            return r
        self.check_degree(r)
        level = Level(self, r, *_defining_tables(self, self.e * r))
        self.levels[r] = level
        # embeddings from existing divisors, in increasing order so that
        # coherence constraints are available when each one is built
        for s in sorted(self.levels):
            if s != r and r % s == 0:
                self._build_embedding(s, r)
        # embeddings into existing multiples
        for t in sorted(self.levels):
            if t != r and t % r == 0:
                self._build_embedding(r, t)
        return r

    def check_degree(self, r):
        """InputError unless the products of level k_r fit int64.  Its
        tables are int64; at degree e r = 1 they hold Python ints."""
        if self.e * r > 1:
            _check_word_size(0, self.p, self.e * r)

    def prime_level(self):
        """GF(p) as a level: level 1 when e = 1, else the one cached per
        prime (so no second tables of GF(p) are built when e = 1)."""
        return self.levels[1] if self.e == 1 else _prime_level(self.p)

    def level(self, r):
        if r not in self.levels:
            raise InputError(f"level {r} not constructed")
        return self.levels[r]

    def element(self, r, value):
        return self.level(r).element(value)

    def __repr__(self):
        return (f"FieldTower(GF({self.p}^{self.e}), "
                f"levels={sorted(self.levels)})")

    # -- embeddings --------------------------------------------------------

    def _build_embedding(self, s, t):
        """Build the coherent embedding k_s -> k_t (s | t, both exist)."""
        src, dst = self.levels[s], self.levels[t]
        if s in dst.embed_from:
            return
        if s == 1 and src.m == 1:
            mat = np.zeros((1, dst.m), dtype=np.int64)
            mat[0, 0] = 1
            dst.embed_from[s] = mat
            return
        roots = self._roots_in_level(src.defpoly, dst)
        if len(roots) != src.m:
            raise VerificationError("defining polynomial did not split")
        # coherence: the image of each lower generator must be preserved
        for u in sorted(self.levels):
            if u in (s, t) or s % u or self.levels[u].m < 2:
                continue
            if u not in src.embed_from or u not in dst.embed_from:
                continue
            gen_img_s = src.embed_from[u][1]
            want = dst.embed_from[u][1]
            survivors = []
            for z in roots:
                mat = self._powers_matrix(z, src.m, dst)
                got = gen_img_s @ mat % self.p
                if np.array_equal(got % self.p, want % self.p):
                    survivors.append(z)
            roots = survivors
            if not roots:  # pragma: no cover - coherence always satisfiable
                raise VerificationError("no coherent embedding root")
        z = min(roots, key=lambda c: _coeffs_to_int(c, self.p))
        dst.embed_from[s] = self._powers_matrix(z, src.m, dst)

    def _powers_matrix(self, z, ms, dst):
        rows = []
        cur = (1,) + (0,) * (dst.m - 1)
        for _ in range(ms):
            rows.append(cur)
            cur = _poly_mul_reduce(cur, z, dst)
        return np.array(rows, dtype=np.int64)

    def _roots_in_level(self, poly_gfp, level):
        """All roots, as coefficient tuples in increasing integer encoding,
        of a monic irreducible GF(p) polynomial that splits completely in
        the given level.  Such a polynomial is squarefree, so its
        equal-degree split into linear factors is its factorization."""
        from .linalg import PolyFq, _equal_degree_split
        planes = np.zeros((level.m, len(poly_gfp)), dtype=np.int64)
        planes[0] = poly_gfp
        roots = [tuple(int(c) for c in (-g.monic().planes[:, 0]) % self.p)
                 for g in _equal_degree_split(PolyFq(level, planes), 1,
                                              self._rng)]
        return sorted(roots, key=lambda z: _coeffs_to_int(z, self.p))


def make_tower(p, e=1):
    """Build a tower over k = GF(p^e). Errors on non-prime p."""
    return FieldTower(p, e)


def extend(x, r):
    """Polymorphic extend: on a tower, construct level r; on an element,
    alias of embed."""
    if isinstance(x, FieldTower):
        return x.extend(r)
    return embed(x, r)


def embed(x, r):
    """Embed an element into level r (its level must divide r)."""
    level = x.level
    if r == level.r:
        return x
    if r % level.r:
        raise InputError(f"cannot embed level {level.r} into level {r}")
    dst = level.tower.level(r)
    mat = dst.embed_from.get(level.r)
    if mat is None:
        raise InputError(f"embedding {level.r} -> {r} not built")
    vec = np.array(x.coeffs, dtype=np.int64) @ mat % level.p
    return FqElement(dst, tuple(int(c) for c in vec))


def arith(x, y, kind):
    """Spec-facing arithmetic dispatch with auto-embedding."""
    ops = {"add": FqElement.__add__, "sub": FqElement.__sub__,
           "mul": FqElement.__mul__, "div": FqElement.__truediv__}
    if kind not in ops:
        raise InputError(f"unknown arithmetic kind {kind!r}")
    return ops[kind](x, y)


def frobenius(x, i=1):
    """x -> x^(q^i) on any level; negative i is the inverse Frobenius."""
    return x.frobenius(i)


# ---------------------------------------------------------------------------
# Quadratic machinery (odd characteristic)
# ---------------------------------------------------------------------------

def is_square(a):
    """Euler's criterion; zero counts as a square."""
    if not a:
        return True
    level = a.level
    if level.p == 2:
        return True
    return a ** ((level.order - 1) // 2) == level.one


def sqrt(a):
    """A square root of a, or None when a is certified a nonsquare.

    Of the two roots b and -b, the one with the smaller integer encoding is
    returned, so results are stable across runs.
    """
    level = a.level
    if level.p == 2:
        raise InputError("sqrt unsupported in characteristic 2")
    if not a:
        return level.zero
    if not is_square(a):
        return None
    q = level.order
    if q % 4 == 3:
        b = a ** ((q + 1) // 4)
    else:
        b = _tonelli_shanks(a)
    nb = -b
    return b if b.to_int() <= nb.to_int() else nb


def _tonelli_shanks(a):
    level = a.level
    q = level.order
    s, t = 0, q - 1
    while t % 2 == 0:
        t //= 2
        s += 1
    z = fixed_nonsquare(level)
    m = s
    c = z ** t
    u = a ** t
    b = a ** ((t + 1) // 2)
    one = level.one
    while u != one:
        # find least i with u^(2^i) = 1
        i, u2 = 0, u
        while u2 != one:
            u2 = u2 * u2
            i += 1
        g = c
        for _ in range(m - i - 1):
            g = g * g
        m = i
        c = g * g
        u = u * c
        b = b * g
    return b


def fixed_nonsquare(level):
    """First nonsquare in the fixed enumeration order of the level."""
    if level.p == 2:
        raise InputError("no nonsquares in characteristic 2")
    for idx in range(1, level.order):
        x = level.element(idx)
        if not is_square(x):
            return x
    raise VerificationError("no nonsquare found")  # pragma: no cover


def solve_diag_quadratic(alpha, beta, gamma, nontrivial=False):
    """Solve alpha*a^2 + beta*b^2 = gamma over the common level.

    Scans a in the fixed enumeration order and takes the first b that
    completes the equation, so the result is deterministic.  With
    ``nontrivial`` the pair (0, 0) is excluded (used for isotropy searches
    with gamma = 0).  Returns None only after an exhaustive scan.
    """
    level = alpha.level
    if not alpha or not beta:
        raise InputError("solve_diag_quadratic needs alpha, beta nonzero")
    beta_inv = beta.inverse()
    for idx in range(level.order):
        a = level.element(idx)
        rhs = (gamma - alpha * a * a) * beta_inv
        b = sqrt(rhs)
        if b is not None:
            if nontrivial and not a and not b:
                continue
            if alpha * a * a + beta * b * b != gamma:
                raise VerificationError("quadratic solution does not check")
            return (a, b)
    return None
