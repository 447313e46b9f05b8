"""Root data for the classical and exceptional Cartan types, structure
constants, and the Weyl group analytics (reflection derangements, the Q_w
polynomials, orbit constants).

Roots are stored in simple-root coordinates with a fixed total order on the
positive roots: by height, then lexicographically on the coordinate vector
with earlier simple roots sorting first.  The extraspecial pair of a
nonsimple positive root xi is the decomposition xi = alpha + beta with alpha
minimal in that order; the integral structure constants N are seeded
positive on extraspecial pairs and propagated through the Jacobi identity
and the three-term cycle relation, so the table is deterministic.

Weyl elements carry both the permutation of the roots and the integer matrix
of their action on the cocharacter lattice Y.  Every enumeration of W streams
through a stabilizer chain without materializing the element list, yielding
only the root columns a statistic reads; groups larger than |W(E6)| sit
behind an explicit opt-in.  The structure constant table is built the first
time it is read, so the Weyl analytics never pay for it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import EnumerationGate, InputError, VerificationError

__all__ = [
    "RootDatum", "WeylElement", "build", "extraspecial_pair",
    "structure_constant", "coxeter_element", "subcoxeter_element",
    "reflection_derangement_stats", "qw_polynomial", "orbit_constants",
    "constants_table_row", "centralizer_order",
]

_CLASSICAL_MAX_RANK = 12
_DESK_ENUM_LIMIT = 60_000  # |W(E6)| = 51840 is the largest default group
_BLOCK_ROWS = 4096  # rows of the folded shallow-level table of a chain
_ROOT_DTYPE = np.int16  # root indices in Weyl streams


# ---------------------------------------------------------------------------
# Cartan data
# ---------------------------------------------------------------------------

def _cartan_and_lengths(letter, rank):
    """Matrix a[i][j] = <alpha_i, alpha_j^*> and half-norms d_i, Bourbaki
    numbering."""
    A = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def link(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if letter == "A":
        d = [1] * rank
        for i in range(rank - 1):
            link(i, i + 1)
    elif letter == "B":
        if rank < 2:
            raise InputError("B requires rank >= 2")
        d = [2] * (rank - 1) + [1]
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -2, -1)
    elif letter == "C":
        if rank < 2:
            raise InputError("C requires rank >= 2")
        d = [1] * (rank - 1) + [2]
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -1, -2)
    elif letter == "D":
        if rank < 3:
            raise InputError("D requires rank >= 3")
        d = [1] * rank
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif letter == "G":
        if rank != 2:
            raise InputError("G requires rank 2")
        d = [1, 3]
        link(0, 1, -1, -3)
    elif letter == "F":
        if rank != 4:
            raise InputError("F requires rank 4")
        d = [2, 2, 1, 1]
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise InputError("E requires rank 6, 7 or 8")
        d = [1] * rank
        edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            link(i, j)
    else:
        raise InputError(f"unknown Cartan letter {letter!r}")
    return A, d


_DEGREES = {
    "A": lambda l: list(range(2, l + 2)),
    "B": lambda l: list(range(2, 2 * l + 1, 2)),
    "C": lambda l: list(range(2, 2 * l + 1, 2)),
    "D": lambda l: sorted(list(range(2, 2 * l - 1, 2)) + [l]),
    "G": lambda l: [2, 6],
    "F": lambda l: [2, 6, 8, 12],
    "E": lambda l: {6: [2, 5, 6, 8, 9, 12],
                    7: [2, 6, 8, 10, 12, 14, 18],
                    8: [2, 8, 12, 14, 18, 20, 24, 30]}[l],
}


def parse_type(s):
    """'B3xA1' -> [('B', 3), ('A', 1)]."""
    out = []
    for piece in s.replace(" ", "").split("x"):
        if not piece or not piece[0].isalpha():
            raise InputError(f"bad Cartan type {s!r}")
        letter = piece[0].upper()
        try:
            rank = int(piece[1:])
        except ValueError:
            raise InputError(f"bad Cartan type {s!r}") from None
        if rank < 1:
            raise InputError(f"bad rank in {s!r}")
        limit = 8 if letter in "EFG" else _CLASSICAL_MAX_RANK
        if rank > limit:
            raise InputError(f"rank {rank} beyond desk scale for {letter}")
        out.append((letter, rank))
    return out


def _positive_roots(A):
    """All positive roots in simple-root coordinates, from the Cartan
    matrix, by closing upward along root strings."""
    l = len(A)
    simples = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    pos = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for c in frontier:
            for j in range(l):
                pairing = sum(c[i] * A[i][j] for i in range(l))
                down = 0
                cur = list(c)
                while True:
                    cur[j] -= 1
                    if cur[j] < 0 or tuple(cur) not in pos:
                        if all(x == 0 for x in cur):
                            down += 1  # the string through alpha_j passes 0
                        break
                    down += 1
                if down - pairing > 0:
                    up = list(c)
                    up[j] += 1
                    t = tuple(up)
                    if t not in pos:
                        pos.add(t)
                        fresh.append(t)
        frontier = fresh
    return pos


class RootDatum:
    """Lattices X, Y with pairing, roots, coroots, extraspecial pairs, and
    the structure constant table."""

    def __init__(self, cartan_type, lattice_kind="sc"):
        if lattice_kind not in ("sc", "ad"):
            raise InputError(f"lattice kind {lattice_kind!r} not sc|ad")
        self.cartan_type = cartan_type
        self.lattice_kind = lattice_kind
        self.components = parse_type(cartan_type)
        self.l = sum(rank for _, rank in self.components)
        self.n = self.l
        # block Cartan matrix and half-norms
        self.cartan = np.zeros((self.l, self.l), dtype=np.int64)
        d = []
        offset = 0
        for letter, rank in self.components:
            Ablk, dblk = _cartan_and_lengths(letter, rank)
            self.cartan[offset:offset + rank, offset:offset + rank] = Ablk
            d.extend(dblk)
            offset += rank
        self.halfnorms = tuple(d)

        pos = _positive_roots(self.cartan.tolist())
        order_key = lambda c: (sum(c), tuple(-x for x in c))
        self.pos_coords = sorted(pos, key=order_key)
        self.num_pos = len(self.pos_coords)
        self.coords = self.pos_coords + [tuple(-x for x in c)
                                         for c in self.pos_coords]
        self.num_roots = len(self.coords)
        self._index = {c: i for i, c in enumerate(self.coords)}
        self.simple_indices = [self._index[tuple(int(i == j)
                                                 for j in range(self.l))]
                               for i in range(self.l)]
        self._heights = [sum(c) for c in self.coords]
        self._build_root_form()
        self._build_extraspecial()

    # -- basic geometry ----------------------------------------------------

    def root_index(self, coords):
        return self._index.get(tuple(coords))

    def neg(self, i):
        return i + self.num_pos if i < self.num_pos else i - self.num_pos

    def height(self, i):
        return self._heights[i]

    def add_roots(self, i, j):
        """Index of alpha_i + alpha_j, or None if not a root (or zero)."""
        s = tuple(a + b for a, b in zip(self.coords[i], self.coords[j]))
        return self._index.get(s)

    def sub_roots(self, i, j):
        """Index of alpha_i - alpha_j, or None if not a root (or zero)."""
        s = tuple(a - b for a, b in zip(self.coords[i], self.coords[j]))
        return self._index.get(s)

    def pairing(self, i, j):
        """<alpha_i, alpha_j^*> = (alpha_i, alpha_j) / d_j, an integer."""
        return self._pairing[i][j]

    def _build_root_form(self):
        """Every pairing of roots and coroots from the Gram matrix
        G = C (A d) C^T of the invariant form, C the root coordinates and
        (alpha_i, alpha_j) = A[i][j] d_j on simple roots: the half-norms
        are half its diagonal, <alpha_i, alpha_j^*> = G[i, j] / d(alpha_j),
        and alpha^* = sum_j c_j d_j / d(alpha) alpha_j^*."""
        C = np.array(self.coords, dtype=np.int64)
        d = np.array(self.halfnorms, dtype=np.int64)
        gram = C @ (self.cartan * d) @ C.T
        half, odd = np.divmod(np.diagonal(gram), 2)
        if odd.any():
            raise VerificationError("odd pairing of two roots")
        pairing, rest = np.divmod(gram, half)
        if rest.any():
            raise VerificationError("coroot pairing not integral")
        coroots, rest = np.divmod(C * d, half[:, None])
        if rest.any():
            raise VerificationError("coroot coordinates not integral")
        if self.lattice_kind == "sc":
            # X = weight lattice (basis: fundamental weights), Y = coroot
            # lattice (basis: simple coroots)
            X, Y = pairing[:, self.simple_indices], coroots
        else:
            # X = root lattice (basis: simple roots), Y = coweight lattice
            X, Y = C, pairing[self.simple_indices].T
        # duality sanity: <alpha, alpha^*> = 2
        bad = np.flatnonzero((X * Y).sum(axis=1) != 2)
        if bad.size:
            raise VerificationError(f"<alpha, alpha^*> != 2 at root {bad[0]}")
        self._halfnorm_of_root = half.tolist()
        self._pairing = pairing.tolist()
        self.root_X = [tuple(x) for x in X.tolist()]
        self.coroot_Y = [tuple(y) for y in Y.tolist()]

    # -- extraspecial pairs and structure constants -------------------------

    def _build_extraspecial(self):
        self.extraspecial = {}
        for k in range(self.num_pos):
            if k in self.simple_indices:
                continue
            best = None
            for a in range(self.num_pos):
                b = self.sub_roots(k, a)
                if b is not None and b < self.num_pos:
                    best = (a, b)
                    break  # positives are scanned in the fixed order
            if best is None:
                raise VerificationError(f"no extraspecial pair for root {k}")
            self.extraspecial[k] = best

    def _string_down(self, i, j):
        """Largest m with alpha_j - m*alpha_i a root."""
        m = 0
        cur = list(self.coords[j])
        ci = self.coords[i]
        while True:
            cur = [a - b for a, b in zip(cur, ci)]
            if tuple(cur) in self._index:
                m += 1
            else:
                return m

    @functools.cached_property
    def _N(self):
        """The structure constant table {(i, j): N_{alpha_i, alpha_j}},
        built on first read and published whole, so a concurrent reader
        never sees it partly filled."""
        return self._build_structure_constants()

    def _build_structure_constants(self):
        N = {}
        npos = self.num_pos
        # positive pairs, by height of the sum
        for k in sorted(range(npos), key=lambda t: self._heights[t]):
            if k in self.simple_indices:
                continue
            g, dl = self.extraspecial[k]
            N[(g, dl)] = self._string_down(g, dl) + 1
            N[(dl, g)] = -N[(g, dl)]
            for a in range(npos):
                b = self.sub_roots(k, a)
                if b is None or b >= npos or a == g or b == g or a > b:
                    continue
                # Jacobi against e_{-gamma}:
                #   N(a,b) N(k,-g) = N(a,-g) N(a-g,b) + N(b,-g) N(a,b-g)
                t = 0
                amg = self.sub_roots(a, g)
                if amg is not None:
                    t += self._nval(N, a, self.neg(g)) \
                        * self._nval(N, amg, b)
                bmg = self.sub_roots(b, g)
                if bmg is not None:
                    t += self._nval(N, b, self.neg(g)) \
                        * self._nval(N, a, bmg)
                den = self._nval(N, k, self.neg(g))
                if den == 0 or t % den:
                    raise VerificationError(
                        f"structure constant at {a},{b} not integral")
                n = t // den
                if n == 0:
                    raise VerificationError(
                        f"zero structure constant at {a},{b}")
                N[(a, b)] = n
                N[(b, a)] = -n
        # fill the complete table
        for i in range(self.num_roots):
            for j in range(self.num_roots):
                if j == self.neg(i) or i == j:
                    continue
                if self.add_roots(i, j) is not None:
                    v = self._nval(N, i, j)
                    expected = self._string_down(i, j) + 1
                    if abs(v) != expected:
                        raise VerificationError(
                            f"|N| mismatch at {i},{j}: {v} vs {expected}")
        return N

    def _nval(self, N, i, j):
        """N_{alpha_i, alpha_j} from the partial table N via stored
        positives, negation symmetry, and the cycle relation; memoized in
        N."""
        k = self.add_roots(i, j)
        if k is None:
            return 0
        got = N.get((i, j))
        if got is not None:
            return got
        npos = self.num_pos
        if i >= npos and j >= npos:
            v = -self._nval(N, self.neg(i), self.neg(j))
        elif i >= npos:  # mixed with first negative: antisymmetry first
            v = -self._nval(N, j, i)
        else:
            # i positive, j negative; z = -(i + j)
            z = self.neg(k)
            di = self._halfnorm_of_root[i]
            dj = self._halfnorm_of_root[j]
            dz = self._halfnorm_of_root[z]
            if k < npos:
                # (j, z) both negative: N(i,j)/ (z,z) = N(j,z)/(i,i)
                num = self._nval(N, j, z) * dz
                if num % di:
                    raise VerificationError("structure constant not integral")
                v = num // di
            else:
                # (z, i) both positive: N(i,j)/(z,z) = N(z,i)/(j,j)
                num = self._nval(N, z, i) * dz
                if num % dj:
                    raise VerificationError("structure constant not integral")
                v = num // dj
        N[(i, j)] = v
        return v

    def structure_constant_by_index(self, i, j):
        if j == self.neg(i):
            raise InputError("N is undefined on (alpha, -alpha) pairs")
        return self._N.get((i, j), 0) if self.add_roots(i, j) is not None \
            else 0

    # -- Weyl group ---------------------------------------------------------

    def simple_reflection(self, j):
        """s_{alpha_{j+1}} as a WeylElement (j is 0-based)."""
        return _reflection_in(self, self.simple_indices[j])

    def identity_weyl(self):
        return WeylElement(self, tuple(range(self.num_roots)))

    def weyl_from_word(self, word):
        """Product of simple reflections, 1-based indices, applied left to
        right."""
        w = self.identity_weyl()
        for i in word:
            w = w * self.simple_reflection(i - 1)
        return w

    def weyl_order(self):
        total = 1
        for letter, rank in self.components:
            for deg in _DEGREES[letter](rank):
                total *= deg
        return total

    def degrees(self):
        out = []
        for letter, rank in self.components:
            out.extend(_DEGREES[letter](rank))
        return sorted(out)

    def weyl_elements_array(self, allow_large=False):
        """All Weyl elements as an array of root permutations."""
        return np.concatenate(list(self.iter_weyl_chunks(allow_large)))

    def iter_weyl_chunks(self, allow_large=False, columns=None):
        """Yield arrays of root permutations covering W exactly once,
        restricted to the root indices ``columns`` (all roots by default):
        row w of a chunk holds w(alpha_c) for c in ``columns``.

        Streams through a stabilizer chain; no full element list is held.
        """
        order = self.weyl_order()
        if order > _DESK_ENUM_LIMIT and not allow_large:
            raise EnumerationGate(
                f"|W| = {order} exceeds the desk-scale enumeration gate")
        gens = [tuple(self.simple_reflection(j).perm) for j in range(self.l)]
        chain = _StabilizerChain(gens, self.num_roots)
        if chain.order() != order:
            raise VerificationError("Weyl enumeration miscount")
        if columns is None:
            columns = range(self.num_roots)
        yield from chain.iter_chunks(np.array(columns, dtype=_ROOT_DTYPE))


class WeylElement:
    """A Weyl group element: root permutation plus its matrix on Y."""

    __slots__ = ("rd", "perm", "_ymat")

    def __init__(self, rd, perm, ymat=None):
        self.rd = rd
        self.perm = perm
        self._ymat = ymat

    def __mul__(self, other):
        """self then other (roots transform on the right)."""
        p1, p2 = self.perm, other.perm
        return WeylElement(self.rd, tuple(p2[i] for i in p1))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm \
            and self.rd is other.rd

    def __hash__(self):
        return hash(self.perm)

    def apply(self, root_index):
        return self.perm[root_index]

    def order(self):
        n = 1
        w = self
        ident = tuple(range(self.rd.num_roots))
        while w.perm != ident:
            w = w * self
            n += 1
        return n

    def is_identity(self):
        return self.perm == tuple(range(self.rd.num_roots))

    def ymat(self):
        """Integer matrix of the action on Y (rows act: y -> y @ M)."""
        if self._ymat is not None:
            return self._ymat
        rd = self.rd
        l = rd.l
        # M solves C @ M = Cw, C the simple coroots (a basis of Y) and Cw
        # their images: it is the right block of rref([C | Cw])
        M = [row[l:] for row in _rref(
            rd.coroot_Y[i] + rd.coroot_Y[self.perm[i]]
            for i in rd.simple_indices)[0]]
        out = np.zeros((l, l), dtype=np.int64)
        for i in range(l):
            for j in range(l):
                if M[i][j].denominator != 1:
                    raise VerificationError("w does not preserve Y")
                out[i, j] = int(M[i][j])
        self._ymat = out
        return out

    def fixes_some_reflection(self):
        rd = self.rd
        for i in range(rd.num_pos):
            img = self.perm[i]
            if img == i or img == rd.neg(i):
                return True
        return False


def _rref(vecs):
    """(reduced row echelon form, rank) of integer or rational rows, exact
    over the rationals (small matrices)."""
    rows = [[Fraction(x) for x in v] for v in vecs]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows))
                    if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


# ---------------------------------------------------------------------------
# Streaming enumeration
# ---------------------------------------------------------------------------

class _StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain on a permutation group,
    with a streaming product iterator over the transversals."""

    def __init__(self, gens, degree):
        self.degree = degree
        self.base = []
        self.transversals = []   # list of {point: perm as tuple}
        self.strong_gens = []    # per level: generators of the stabilizer
        self._build([tuple(g) for g in gens])

    @staticmethod
    def _compose(a, b):
        # apply a then b
        return tuple(b[x] for x in a)

    @staticmethod
    def _inverse(a):
        out = [0] * len(a)
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    def _build(self, gens):
        level_gens = [g for g in gens if any(i != x
                                             for i, x in enumerate(g))]
        ident = tuple(range(self.degree))
        while level_gens:
            moved = next(i for g in level_gens
                         for i, x in enumerate(g) if x != i)
            self.base.append(moved)
            self.strong_gens.append(level_gens)
            # Schreier tree for the orbit of the base point
            trans = {moved: ident}
            frontier = [moved]
            while frontier:
                fresh = []
                for pt in frontier:
                    rep = trans[pt]
                    for g in level_gens:
                        img = g[pt]
                        if img not in trans:
                            trans[img] = self._compose(rep, g)
                            fresh.append(img)
                frontier = fresh
            self.transversals.append(trans)
            # Schreier generators for the stabilizer
            next_gens = []
            seen = set()
            for pt, rep in trans.items():
                for g in level_gens:
                    u = self._compose(rep, g)
                    v = trans[g[pt]]
                    sg = self._compose(u, self._inverse(v))
                    if sg != ident and sg not in seen:
                        seen.add(sg)
                        next_gens.append(sg)
            level_gens = next_gens

    def order(self):
        total = 1
        for t in self.transversals:
            total *= len(t)
        return total

    def iter_chunks(self, columns):
        """Yield arrays of permutations, restricted to ``columns``,
        covering the group once.

        Every element factors uniquely as u_0 u_1 ... u_{k-1} (deepest
        transversal applied first, level 0 last).  The shallowest levels
        are folded into one table of at least _BLOCK_ROWS rows, read
        through one gather per step of an odometer over the deeper levels.
        """
        levels = [np.array(sorted(t.values()), dtype=_ROOT_DTYPE)
                  for t in self.transversals]
        block = np.arange(self.degree, dtype=_ROOT_DTYPE)[None, :]
        depth = 0
        while depth < len(levels) and block.shape[0] < _BLOCK_ROWS:
            block = block[:, levels[depth]].reshape(-1, self.degree)
            depth += 1
        # stored by columns, so that a step gathers whole contiguous rows
        by_column = np.ascontiguousarray(block.T)

        def walk(level, partial):
            if level < depth:
                yield by_column[partial].T
                return
            for u in levels[level]:
                yield from walk(level - 1, u[partial])
        yield from walk(len(levels) - 1, columns)


# ---------------------------------------------------------------------------
# Spec-facing operations
# ---------------------------------------------------------------------------

def build(cartan_type, lattice_kind="sc"):
    return RootDatum(cartan_type, lattice_kind)


def extraspecial_pair(rd, xi):
    """(alpha, beta) for a nonsimple positive root index xi."""
    if xi >= rd.num_pos:
        raise InputError("extraspecial pair needs a positive root")
    if xi in rd.simple_indices:
        raise InputError("simple roots have no extraspecial pair")
    return rd.extraspecial[xi]


def structure_constant(rd, i, j):
    return rd.structure_constant_by_index(i, j)


def coxeter_element(rd):
    if len(rd.components) != 1:
        raise InputError("Coxeter element needs an irreducible type")
    return rd.weyl_from_word(range(1, rd.l + 1))


def _orthogonal_subsystem(rd, beta):
    """Indices of roots orthogonal to beta, i.e. <gamma, beta^*> = 0."""
    return [i for i in range(rd.num_roots) if rd.pairing(i, beta) == 0]


def _subsystem_components(rd, roots):
    """Split a subsystem (list of root indices) into irreducible parts."""
    comps = []
    remaining = set(roots)
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            fresh = []
            for i in frontier:
                for j in list(remaining):
                    if j not in comp and rd.pairing(i, j) != 0:
                        comp.add(j)
                        fresh.append(j)
            frontier = fresh
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def _simple_system_of(rd, positive_part):
    """Indecomposable elements of a positive subsystem part."""
    pset = set(positive_part)
    simples = []
    for i in positive_part:
        decomposable = False
        for a in positive_part:
            b = rd.sub_roots(i, a)
            if b is not None and b in pset and b != i:
                decomposable = True
                break
        if not decomposable:
            simples.append(i)
    return simples


def _reflection_in(rd, i):
    """s_alpha for the root alpha of index i, as a WeylElement."""
    perm = []
    for k in range(rd.num_roots):
        pairing = rd.pairing(k, i)
        img = tuple(x - pairing * y
                    for x, y in zip(rd.coords[k], rd.coords[i]))
        perm.append(rd._index[img])
    return WeylElement(rd, tuple(perm))


def _subcox_beta(rd):
    letter, rank = rd.components[0]
    if letter == "B":
        return rd.simple_indices[rank - 1]   # short
    if letter == "C":
        return rd.simple_indices[rank - 1]   # long
    return rd.simple_indices[0]


def subcoxeter_element(rd):
    """The near-Coxeter reflection nonderangement used in the analytics
    tables: s_beta times a Coxeter element of the orthogonal subsystem."""
    if len(rd.components) != 1:
        raise InputError("subcoxeter element needs an irreducible type")
    letter, rank = rd.components[0]
    if letter == "A" and rank == 1:
        return rd.identity_weyl()
    if letter == "G":
        return _reflection_in(rd, _subcox_beta(rd))
    if letter == "D" and rank == 4:
        return rd.weyl_from_word([1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2])
    beta = _subcox_beta(rd)
    w = _reflection_in(rd, beta)
    perp = _orthogonal_subsystem(rd, beta)
    if perp:
        comps = _subsystem_components(rd, perp)
        comps.sort(key=lambda c: -_rref(rd.coords[i] for i in c)[1])
        main = comps[0]
        positive_part = [i for i in main if i < rd.num_pos]
        for s in _simple_system_of(rd, positive_part):
            w = w * _reflection_in(rd, s)
    return w


def reflection_derangement_stats(rd, allow_large=False):
    """(count, total, exact proportion) of Weyl elements fixing no
    reflection; products of types multiply componentwise."""
    if len(rd.components) > 1:
        count, total = 1, 1
        for letter, rank in rd.components:
            sub = RootDatum(f"{letter}{rank}", rd.lattice_kind)
            c, t, _ = reflection_derangement_stats(sub, allow_large)
            count *= c
            total *= t
        return count, total, Fraction(count, total)
    # w(-a) = -w(a), so the positive roots decide
    idx = np.arange(rd.num_pos, dtype=_ROOT_DTYPE)
    neg = idx + rd.num_pos
    count = 0
    total = 0
    for chunk in rd.iter_weyl_chunks(allow_large=allow_large, columns=idx):
        fixes = ((chunk == idx) | (chunk == neg)).any(axis=1)
        count += int((~fixes).sum())
        total += chunk.shape[0]
    return count, total, Fraction(count, total)


def centralizer_order(rd, w, allow_large=False):
    # x is determined by where it sends the simple roots, so xw = wx iff
    # w(x(s)) = x(w(s)) for every simple root s
    simple = rd.simple_indices
    wp = np.array(w.perm, dtype=_ROOT_DTYPE)
    cols = simple + [w.perm[s] for s in simple]
    total = 0
    for arr in rd.iter_weyl_chunks(allow_large=allow_large, columns=cols):
        left = wp[arr[:, :rd.l]]     # x then w
        right = arr[:, rd.l:]        # w then x
        total += int((left == right).all(axis=1).sum())
    return total


# -- integer polynomial helpers (dense int lists, ascending) ----------------

def _ipoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ipoly_divexact(a, b):
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1]
        if c % b[-1]:
            raise VerificationError("nonexact polynomial division")
        q = c // b[-1]
        out[k] = q
        if q:
            for i, y in enumerate(b):
                a[k + i] -= q * y
    if any(a):
        raise VerificationError("nonexact polynomial division")
    return out


def one_minus_x_power(d):
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return out


def det_one_minus_xw(w):
    """det_Y(1 - wX) as an integer coefficient list: the characteristic
    polynomial det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n of M = w on Y,
    reversed, from the Faddeev-LeVerrier recurrence in exact integers."""
    M = w.ymat().astype(object)
    n = M.shape[0]
    eye = np.eye(n, dtype=object)
    N = np.zeros((n, n), dtype=object)
    out = [1]
    for k in range(1, n + 1):
        N = M @ N + out[-1] * eye
        trace = -np.trace(M @ N)
        if trace % k:
            raise VerificationError("nonexact Faddeev-LeVerrier division")
        out.append(trace // k)
    return out


def qw_polynomial(rd, w):
    """Q_w(X) = prod_i (1 - X^{d_i}) / det_Y(1 - wX), exact division."""
    num = [1]
    for d in rd.degrees():
        num = _ipoly_mul(num, one_minus_x_power(d))
    den = det_one_minus_xw(w)
    return _ipoly_divexact(num, den)


def orbit_constants(rd, w):
    """c_i counts of w-orbits on the roots by the length of the longest
    linearly independent run alpha, alpha w, ..."""
    seen = [False] * rd.num_roots
    cs = [0] * rd.l
    for start in range(rd.num_roots):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = w.perm[i]
        vecs = [rd.coords[j] for j in orbit]
        run = 1
        while run < len(vecs) and _rref(vecs[:run + 1])[1] == run + 1:
            run += 1
        cs[run - 1] += 1
    return tuple(cs)


def constants_table_row(rd, allow_large=False):
    """(c, c_1..c_l) as tabulated: the subcoxeter nonderangement, except
    rank one where the tabulated element is the reflection itself."""
    letter, rank = rd.components[0]
    if letter == "A" and rank == 1:
        w = coxeter_element(rd)
    else:
        w = subcoxeter_element(rd)
    c = centralizer_order(rd, w, allow_large=allow_large)
    return (c,) + orbit_constants(rd, w)
