"""Coxeter groups: word problem, Cayley balls, walls, roots, and cubulation.

Words are tuples of 0-based generator indices; the canonical form of an
element is its ShortLex-least reduced word. All three layers act in Tits'
geometric representation, which is faithful (Humphreys, Reflection Groups
and Coxeter Groups, 5.3-5.4): s acts on the coweight coordinates of a
point by v_j += 2cos(pi/m_sj) v_s for j != s, then v_s = -v_s. These
numbers lie in Z[lambda], lambda = 2cos(pi/M) with M the lcm of the finite
entries m >= 4, and each is held as D = phi(2M)/2 ints, so points are
exact dict keys and signs are exact. ``reduce_word`` reads the normal form
off w.rho, ``cayley_ball`` keys each element w by w^-1 rho, and ``walls``
keys the edge (u, us) by t.rho, t = u s u^-1.

Walls are edge classes of one reflection each; roots are the two sides of
a wall; truncated roots over a finite ball give a halfspace system that
feeds the dual-complex construction. Inside the ball, element sides come
from the wall of each element's parent edge; any other side is one sign
test on a point, ``_sign`` (Humphreys 5.4-5.7), and no word is walked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BadDiagonalError,
    CapExceededError,
    CubicalError,
    EntryBelowTwoError,
    InputFormatError,
    NotAdjacentError,
    NotSymmetricError,
)
from .graphs import bits, components
from .pocsets import (
    DualComplex,
    HalfspaceSystem,
    Orientation,
    _evens,
    _orientation,
    _spread,
    _system_of_crossings,
    dual_complex,
    is_vertex,
)
from .util import DEFAULT_CAP, parse_int, parse_list

Word = tuple  # tuple of generator indices

MAX_DEGREE = 128  # ceiling on D, the ints per number of Tits' representation


@dataclass(frozen=True)
class CoxeterSystem:
    """Coxeter matrix: symmetric, 1 on the diagonal, entries >= 2 or
    math.inf off it. Its exact Tits representation is built on first use."""

    rank: int
    matrix: tuple
    # stays empty, as no word is memoized; perfbench/spans.py reads its size
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def tits(self) -> _Tits:
        return _Tits(self.matrix)

    def m(self, i: int, j: int):
        return self.matrix[i][j]

    def diagram_edges(self) -> list[tuple]:
        """Derived diagram: edges where m_ij >= 3, labeled when >= 4."""
        out = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.matrix[i][j] >= 3:
                    out.append((i, j, self.matrix[i][j]))
        return out


def parse_system(matrix) -> CoxeterSystem:
    """Validate a raw square matrix; math.inf, None and 0 all denote no
    relation."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    norm = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputFormatError(f"row {i} has length {len(row)}, expected {n}")
        out = []
        for j, x in enumerate(row):
            if x is None or x == 0 or x == math.inf:
                out.append(math.inf)
            else:
                out.append(parse_int(x, f"m[{i}][{j}]"))
        norm.append(tuple(out))
    for i in range(n):
        if norm[i][i] != 1:
            raise BadDiagonalError(f"m[{i}][{i}] = {norm[i][i]}, expected 1",
                                   entry=(i, i))
        for j in range(n):
            if norm[i][j] != norm[j][i]:
                raise NotSymmetricError(f"m[{i}][{j}] != m[{j}][{i}]", entry=(i, j))
            if i != j and norm[i][j] < 2:
                raise EntryBelowTwoError(f"m[{i}][{j}] = {norm[i][j]} < 2",
                                         entry=(i, j))
    return CoxeterSystem(rank=n, matrix=tuple(norm))


def load_matrix(data: dict) -> CoxeterSystem:
    if not isinstance(data, dict) or "m" not in data:
        raise InputFormatError("matrix JSON needs 'rank' and 'm' (0 denotes infinity)")
    for row in parse_list(data["m"], "'m'"):
        parse_list(row, "a matrix row")
    sys_ = parse_system(data["m"])
    if "rank" in data and parse_int(data["rank"], "rank") != sys_.rank:
        raise InputFormatError("declared rank does not match matrix size")
    return sys_


def dump_matrix(sys_: CoxeterSystem) -> dict:
    return {"rank": sys_.rank,
            "m": [[0 if x == math.inf else int(x) for x in row]
                  for row in sys_.matrix]}


# ---------------------------------------------------------------------------
# word problem, in Tits' representation


def _primes(n: int) -> list:
    out = []
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    return out + [n] * (n > 1)


def _lambda_polynomial(n: int, primes: list) -> list:
    """Minimal polynomial psi of lambda = 2cos(2pi/n), constant term first:
    the cyclotomic Phi_n(z), the product of (z^(n/e) - 1)^mu(e) over the
    squarefree e | n, is z^D psi(z + 1/z)."""
    phi = [1]
    for r in sorted(range(len(primes) + 1), key=lambda r: r % 2):  # divide last
        for e in (n // math.prod(c) for c in itertools.combinations(primes, r)):
            if r % 2:  # phi / (z^e - 1) = -phi (1 + z^e + z^2e + ...)
                phi = [-sum(phi[i::-e]) for i in range(len(phi) - e)]
            else:
                phi = [a - b for a, b in zip([0] * e + phi, phi + [0] * e)]
    d = len(phi) // 2
    psi, prev, cur = [phi[d]] + [0] * d, [2], [0, 1]  # V_k(z + 1/z) = z^k + z^-k
    for c in phi[d + 1:]:
        psi = [a + c * b for a, b in zip(psi, cur + [0] * d)]
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0, 0])]
    return psi


class _Tits:
    """Tits' representation, exactly: coordinate j of a point p, its pairing
    with alpha_j, is sum_k p[j*D + k] lambda^k, reduced modulo psi."""

    def __init__(self, matrix):
        self.rank = rank = len(matrix)
        lcm = math.lcm(*(m for row in matrix for m in row if 4 <= m < math.inf))
        if lcm > 4 * MAX_DEGREE ** 2:  # D >= sqrt(lcm) / 2 > MAX_DEGREE: skip factoring
            raise CapExceededError(f"Tits' representation needs more than {MAX_DEGREE} "
                                   f"ints per number: the lcm {lcm} of the entries is "
                                   f"above {4 * MAX_DEGREE ** 2}", cap=MAX_DEGREE, lcm=lcm)
        n = 2 * lcm
        primes = _primes(n)
        self.degree = d = max(1, n // math.prod(primes) * math.prod(p - 1 for p in primes) // 2)
        if d > MAX_DEGREE:
            raise CapExceededError(f"Tits' representation needs D = {d} ints per number, "
                                   f"above {MAX_DEGREE}", cap=MAX_DEGREE, degree=d)
        psi = _lambda_polynomial(n, primes) if d > 1 else None

        def times_lambda(v):  # psi is monic
            return tuple([-v[-1] * psi[0]] + [v[i - 1] - v[-1] * psi[i] for i in range(1, d)])

        def two_cos(m):  # 2cos(pi/m): V_(M/m)(lambda), Chebyshev, for m >= 4
            if m < 4 or m == math.inf:
                return ({1: -2, 2: 0, 3: 1}.get(m, 2),) + (0,) * (d - 1)
            prev, cur = (2,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2)
            for _ in range(n // 2 // m - 1):
                prev, cur = cur, tuple(a - b for a, b in zip(times_lambda(cur), prev))
            return cur

        # s maps v to v - <v, alpha_s> alpha_s^vee: v_j += 2cos(pi/m_sj) v_s for every j,
        # m_ss = 1 included; moves[s] has (i, k, c): int i of the image gains c * int k of v
        self.moves = [[] for _ in range(rank)]
        for s, j in itertools.product(range(rank), repeat=2):
            cols = [two_cos(matrix[s][j])]  # column k: 2cos(pi/m_sj) lambda^k
            for _ in range(d - 1):
                cols.append(times_lambda(cols[-1]))
            self.moves[s] += [(j * d + i, s * d + k, col[i])
                              for k, col in enumerate(cols) for i in range(d) if col[i]]
        self.rho = tuple(int(k % d == 0) for k in range(rank * d))
        if d > 1:  # lambda is within 2^-40 of a / 2^40, and psi's other roots over
            # 32/M^2 >= 2^-27 away: phi(n) >= (n/2)^(1/2), so M <= 4 D^2 <= 2^16
            a = round(2 * math.cos(2 * math.pi / n) * 2 ** 40)
            self._psi, self._bracket, self._levels = psi, (a - 1, a + 1, 40), []

    def act(self, s: int, p: tuple) -> tuple:
        q = list(p)
        for i, k, c in self.moves[s]:
            q[i] += c * p[k]
        return tuple(q)

    def point(self, word, p=None) -> tuple:
        """w.p, w.rho by default: the letters act from the last one on."""
        p = p or self.rho
        for s in reversed(word):
            p = self.act(s, p)
        return p

    def sign(self, p: tuple, s: int) -> int:
        """Sign of coordinate s of p: the sign its ints share, if they do, as
        lambda > 0; else that of fixed-point bounds, refined till they agree."""
        d = self.degree
        if d == 1:
            return (p[s] > 0) - (p[s] < 0)
        x = p[s * d:(s + 1) * d]
        if not any(x) or min(x) >= 0 or max(x) <= 0:
            return (max(x) > 0) - (min(x) < 0)
        for level in itertools.count():
            if level == len(self._levels):
                a, b, bits = self._bracket
                new = 2 * bits
                a, b = a << bits, b << bits
                while b - a > 1:  # psi < 0 just below lambda, its largest root
                    mid, value = (a + b) // 2, 0
                    for i, c in enumerate(reversed(self._psi)):  # psi(mid / 2^new) 2^(new D)
                        value = value * mid + (c << new * i)
                    a, b = (a, mid) if value > 0 else (mid, b)
                self._bracket = (a, b, new)  # and lambda^k 2^(new (D - 1)) is bounded by
                self._levels.append([(a ** k << new * (d - 1 - k), b ** k << new * (d - 1 - k))
                                     for k in range(d)])
            low = sum(c * (lo if c > 0 else hi) for c, (lo, hi) in zip(x, self._levels[level]))
            high = sum(c * (hi if c > 0 else lo) for c, (lo, hi) in zip(x, self._levels[level]))
            if low > 0 or high < 0:
                return 1 if low > 0 else -1

    def normal_form(self, p: tuple) -> Word:
        """ShortLex-least word of the w with p = w.rho (rho: every coordinate 1).
        It starts with w's least left descent s, the least s whose coordinate
        of w.rho, and so the root w^-1(alpha_s), is negative; s w's word follows."""
        out, s = [], 0
        while s < self.rank:
            if self.sign(p, s) < 0:
                out.append(s)
                p = self.act(s, p)
                s = 0
            else:
                s += 1
        return tuple(out)


def _point(sys_: CoxeterSystem, word) -> tuple:
    """word.rho, once its letters are checked: ``_Tits.point`` checks none."""
    w = tuple(word)
    if w and not 0 <= min(w) <= max(w) < sys_.rank:
        s = next(s for s in w if not 0 <= s < sys_.rank)
        raise InputFormatError(f"letter {s} out of range for rank {sys_.rank}")
    return sys_.tits.point(w)


def reduce_word(sys_: CoxeterSystem, word) -> Word:
    """ShortLex-least reduced word equal to ``word`` in the group."""
    return sys_.tits.normal_form(_point(sys_, word))


def words_equal(sys_: CoxeterSystem, w1, w2) -> bool:
    return reduce_word(sys_, w1) == reduce_word(sys_, w2)


def word_length(sys_: CoxeterSystem, w) -> int:
    return len(reduce_word(sys_, w))


def _inv(w: Word) -> Word:
    return tuple(reversed(w))


def distance(sys_: CoxeterSystem, g: Word, h: Word) -> int:
    """Word metric d(g, h) = l(g^-1 h)."""
    return len(reduce_word(sys_, _inv(g) + tuple(h)))


# ---------------------------------------------------------------------------
# Cayley balls, walls, roots


@dataclass(frozen=True)
class CayleyBall:
    """Exact ball of the Cayley graph: canonical elements by length, edges
    (u, us) stored once with the shorter endpoint first, and by position in
    ``neighbours``."""

    system: CoxeterSystem
    radius: int
    elements: tuple
    edges: tuple  # (u, v, s) with len(v) == len(u) + 1
    points: tuple  # per element w, w^-1 rho in Tits' representation

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def levels(self) -> dict:
        out: dict[int, list] = {}
        for w in self.elements:
            out.setdefault(len(w), []).append(w)
        return out

    @cached_property
    def neighbours(self) -> list[list[int]]:
        at = {w: i for i, w in enumerate(self.elements)}
        nbrs = [[] for _ in self.elements]
        for u, v, _ in self.edges:
            nbrs[at[u]].append(at[v])
            nbrs[at[v]].append(at[u])
        return nbrs

    def sphere(self, r: int) -> list:
        return self.levels.get(r, [])


def cayley_ball(sys_: CoxeterSystem, radius: int,
                cap: int = DEFAULT_CAP) -> CayleyBall:
    """BFS by right multiplication, keyed by the point w^-1 rho: ws is longer
    than w iff its coordinate s is positive, and then (w, ws, s) is an edge
    and (ws)^-1 rho = s w^-1 rho. Levels are walked in element order and s
    ascending, so the first word to reach a point is its normal form, and
    the edges come in that order; the last level has no edge up. It keeps
    its own queue, not ``graphs.bfs``, as it builds the graph it walks."""
    if radius < 0:
        raise InputFormatError("radius must be >= 0")
    tits = sys_.tits
    levels = [[((), tits.rho)]]  # (normal form w, w^-1 rho), by normal form
    size = 1
    edges = []
    for d in range(radius):
        nxt: dict = {}  # point -> the first word to reach it
        for w, p in levels[d]:
            for s in range(sys_.rank):
                if tits.sign(p, s) > 0:
                    edges.append((w, nxt.setdefault(tits.act(s, p), w + (s,)), s))
        if not nxt:
            break
        size += len(nxt)
        if size > cap:
            raise CapExceededError(f"ball exceeds cap {cap}", cap=cap)
        levels.append(sorted((w, p) for p, w in nxt.items()))
    elements, points = zip(*(pair for level in levels for pair in level))
    return CayleyBall(system=sys_, radius=radius, elements=elements,
                      edges=tuple(edges), points=points)


def distances_differ_by_one(ball: CayleyBall, x: Word, u: Word, v: Word) -> bool:
    """|d(x,u) - d(x,v)| must be 1 for adjacent u, v (checked with global
    lengths, not ball-restricted distances)."""
    sys_ = ball.system
    return abs(distance(sys_, x, u) - distance(sys_, x, v)) == 1


@dataclass(frozen=True)
class Wall:
    """All ball edges flipped by one reflection wsw^-1."""

    reflection: Word
    edges: tuple  # (u, v) pairs, shorter endpoint first


def walls(ball: CayleyBall) -> list[Wall]:
    """Group the ball's edges (u, us) by t.rho = u (us)^-1 rho, t = u s u^-1,
    into walls sorted by the normal forms of their reflections t."""
    tits = ball.system.tits
    point = dict(zip(ball.elements, ball.points))
    grouped: dict[tuple, list] = {}
    for u, v, _ in ball.edges:
        grouped.setdefault(tits.point(u, point[v]), []).append((u, v))
    return sorted((Wall(reflection=tits.normal_form(p), edges=tuple(sorted(edges)))
                   for p, edges in grouped.items()),
                  key=lambda w: (len(w.reflection), w.reflection))


def _sign(sys_: CoxeterSystem, u: Word, s: int, p: tuple) -> int:
    """1 if the element g with p = g.rho lies on u's side of the wall of the
    edge (u, us), else -1: the sign of coordinate s of u^-1 g rho, which
    pairs rho with the root g^-1 u(alpha_s)."""
    return sys_.tits.sign(sys_.tits.point(_inv(u), p), s)


def crossing_parity(sys_: CoxeterSystem, x: Word, y: Word, wall: Wall) -> int:
    """Parity of crossings of the wall along any path from x to y, which
    the tests check by walking: the wall of the reflection t separates x
    from 1 iff l(tx) < l(x) (Björner & Brenti, "Combinatorics of Coxeter
    Groups", 2005, ch. 1), so no edge of the wall is needed."""
    t = wall.reflection
    past = [word_length(sys_, (*t, *w)) < word_length(sys_, w) for w in (x, y)]
    return int(past[0] != past[1])


@dataclass(frozen=True)
class Root:
    """One side of a wall inside a ball."""

    wall: Wall
    side: frozenset
    complement: frozenset


def halfspace(ball: CayleyBall, u: Word, v: Word) -> Root:
    """{w in ball : d(w,u) < d(w,v)} for adjacent u, v; asserted equal to
    u's side of the wall by sign tests. The wall's edges are the ball edges
    the side splits; an edge (u, v) whose wall misses the ball gives a wall
    with ``edges=()``."""
    sys_ = ball.system
    u = reduce_word(sys_, u)
    v = reduce_word(sys_, v)
    step = reduce_word(sys_, _inv(u) + v)
    if len(step) != 1:
        raise NotAdjacentError("u and v are not adjacent", u=u, v=v)
    side = frozenset(w for w in ball.elements
                     if distance(sys_, w, u) < distance(sys_, w, v))
    if side != frozenset(w for w in ball.elements
                         if _sign(sys_, u, step[0], sys_.tits.point(w)) > 0):
        raise CubicalError("halfspace does not match the parity-0 root",
                           u=u, v=v)
    wall = Wall(reflection=reduce_word(sys_, u + step + _inv(u)),
                edges=tuple(sorted((a, b) for a, b, _ in ball.edges
                                   if (a in side) != (b in side))))
    return Root(wall=wall, side=side, complement=ball.element_set - side)


# ---------------------------------------------------------------------------
# truncated halfspace systems and cubulation


def _hid(i: int, sign: str) -> str:
    return f"w{i:03d}{sign}"


@dataclass(frozen=True)
class TruncatedHalfspaces:
    """Halfspace system of the truncated roots, with the data needed to
    interpret it: selected walls, the walls each ball element lies across,
    the member set of every halfspace id, and a trust report. Hyperplane i
    of the system is wall i, its "+" and "-" sides ``_hid(i, "+")`` and
    ``_hid(i, "-")`` at positions 2i and 2i + 1; the ids serve I/O and
    witnesses only."""

    ball: CayleyBall
    margin: int
    system: HalfspaceSystem
    walls: tuple
    defining_edges: tuple  # per wall, the (u, v) edge with u on the "+" side
    crossed: tuple  # per ball element: bitset of the selected walls it lies across

    @cached_property
    def untrusted_pairs(self) -> tuple:
        """Wall pairs (i, j), i < j, whose nesting relation could still flip
        to transversal with a larger ball: some quarter is empty while both
        of its factors reach the boundary sphere. Each comes with its empty
        quarters, as (side of i, side of j) ids.

        Quarter (p, q) is empty iff side p lies in q's complement, that is
        iff q lies below p's complement. The "-" side of wall i reaches the
        sphere iff some sphere element lies across wall i, and the "+" side
        iff some sphere element does not."""
        s = self.system
        full = (1 << len(self.walls)) - 1
        across, everywhere = 0, full
        for g, c in zip(self.ball.elements, self.crossed):
            if len(g) == self.ball.radius:
                across |= c
                everywhere &= c
        # the positions of the sides that reach the sphere
        touch = _spread(full & ~everywhere) | _spread(across) << 1
        labels = s.labels
        out = []
        for i in range(len(self.walls)):
            quarters: dict[int, list] = {}  # wall j -> its empty quarters with i
            for p in bits(touch & 3 << 2 * i):
                for q in bits(s.below[p ^ 1] & touch):
                    if q >> 1 > i:
                        quarters.setdefault(q >> 1, []).append((labels[p], labels[q]))
            out += [(i, j, tuple(quarters[j])) for j in sorted(quarters)]
        return tuple(out)

    @cached_property
    def members(self) -> dict:  # halfspace id -> frozenset of ball elements
        out = {}
        for i, (plus, minus) in enumerate(self.system.star_pairs):
            out[minus] = frozenset(g for g, c in zip(self.ball.elements, self.crossed)
                                   if c >> i & 1)
            out[plus] = self.ball.element_set - out[minus]
        return out

    @cached_property
    def _first_edges(self) -> tuple:  # per wall, (u, s) of its first edge (u, us)
        sys_ = self.ball.system
        return tuple((u, reduce_word(sys_, _inv(u) + v)[0]) for u, v in self.defining_edges)

    def _side(self, wall_index: int, p: tuple):
        """Halfspace id of the side of wall_index holding the g with p = g.rho."""
        u, s = self._first_edges[wall_index]
        return self.system.star_pairs[wall_index][_sign(self.ball.system, u, s, p) < 0]

    def orientation_of(self, g: Word) -> Orientation:
        """Principal orientation: per wall, the side containing g, which
        need not lie in the ball; "+" is the identity's side, so the empty
        word makes no sign test."""
        if not g:
            return Orientation(choices=tuple(plus for plus, _ in self.system.star_pairs))
        p = _point(self.ball.system, g)
        return Orientation(choices=tuple(self._side(i, p) for i in range(len(self.walls))))

    def side_containing(self, wall_index: int, g: Word):
        """Halfspace id of the side of wall_index containing g, which need
        not lie in the ball; "+" is the identity's side."""
        return self._side(wall_index, _point(self.ball.system, g))


def halfspace_system(ball: CayleyBall, margin: int) -> TruncatedHalfspaces:
    """Truncated roots of every wall whose defining edges lie within radius
    R - margin, ordered by inclusion of the truncated sets.

    The "+" root of a wall holds u, the shorter end of its first edge
    (u, v), and so the identity: an element lies in it iff a geodesic from
    the identity to it does not cross the wall.

    The roots are read off the rows of the wall table of ``walls(ball)``:
    g[:-1] is a normal form and (g[:-1], g) a ball edge, so ``crossed[g]``,
    the selected walls between g and the identity, is ``crossed[g[:-1]]``
    plus the wall of that edge. ``pocsets._system_of_crossings`` orders
    the sides from these rows alone: per wall i, the AND and the OR of the
    rows on its "-" side say which sides contain it. Inclusion of sets is
    transitive and reversed by complements, so no closure is needed.
    Hyperplane i is wall i, whatever order its ids sort in.

    Parent edges separate every selected wall's sides, so no truncation is
    refused: a geodesic from the identity to the far end of a defining edge
    crosses the wall, at some parent edge (g[:-1], g) in the ball, whose
    rows differ in the wall's bit alone. So the wall's "-" side is
    nonempty, and no other wall has the same sides, as the edge's ends lie
    on one side of every other wall.

    The trust report, ``untrusted_pairs``, is worked out on first use.
    """
    if margin < 0:
        raise InputFormatError("margin must be >= 0")
    inner = ball.radius - margin
    selected = [w for w in walls(ball) if any(len(v) <= inner for _, v in w.edges)]
    bit_of = {e: 1 << i for i, w in enumerate(selected) for e in w.edges}
    crossed = {(): 0}  # ball.elements starts with the identity, then by length
    for g in ball.elements[1:]:
        crossed[g] = crossed[g[:-1]] | bit_of.get((g[:-1], g), 0)
    rows = tuple(crossed.values())
    pairs = [(_hid(i, "+"), _hid(i, "-")) for i in range(len(selected))]
    return TruncatedHalfspaces(
        ball=ball, margin=margin, system=_system_of_crossings(rows, pairs),
        walls=tuple(selected), defining_edges=tuple(w.edges[0] for w in selected),
        crossed=rows)


@dataclass(frozen=True)
class Cubulation:
    """Dual complex of the truncated halfspace system, seeded at the
    identity's principal orientation, plus the equivariant vertex table."""

    truncated: TruncatedHalfspaces
    dual: DualComplex
    nu: dict  # ball element -> dual vertex id
    injective_on_ball: bool
    trusted_radius: int

    def maximal_cube_dimensions(self) -> set[int]:
        from .pocsets import maximal_cubes

        return {len(fam) for _, fam in maximal_cubes(self.dual)} or {0}


def cubulate(ball: CayleyBall, margin: int, cap: int = DEFAULT_CAP,
             seed_element: Word = ()) -> Cubulation:
    """Build the dual complex and embed the ball into it vertex by vertex.

    The dual is seeded at the principal orientation of ``seed_element``
    (default: the identity), which ``dual_complex`` rejects if it is not a
    vertex, as for some elements outside the ball. The table nu maps every
    ball element to the dual vertex of its principal orientation: all "+"
    but on its ``crossed`` walls. Injectivity is asserted on the trusted
    sub-ball of radius R - margin (the full ball may legitimately fold onto
    fewer orientation cells when outer walls are truncated away); adjacency
    is asserted exactly: neighbors differ on the wall of their shared edge
    and nothing else.
    """
    th = halfspace_system(ball, margin)
    dual = dual_complex(th.system, th.orientation_of(seed_element), cap=cap)
    identity = _evens(2 * len(th.walls))  # every "+" side: wall i is hyperplane i
    flips = [3 << 2 * i for i in range(len(th.walls))]
    nu = {}
    for g, crossed in zip(ball.elements, th.crossed):
        mask = identity ^ sum(flips[i] for i in bits(crossed))
        vid = dual.vertex_of.get(mask)
        if vid is None:  # every dual vertex is consistent: test only a miss
            res = is_vertex(th.system, _orientation(th.system, mask))
            if not res.ok:
                raise CubicalError(f"principal orientation of {g!r} is not a vertex",
                                   element=g, witness=res.witness)
            raise CubicalError(f"orientation of {g!r} falls outside the component",
                               element=g)
        nu[g] = vid

    # two orientations differ on a hyperplane iff their masks differ in
    # both of its bits: the edge across wall i flips exactly flips[i]
    wall_of = {e: i for i, w in enumerate(th.walls) for e in w.edges}
    masks = dual.masks
    for u, v, _ in ball.edges:
        i = wall_of.get((u, v))
        if masks[nu[u]] ^ masks[nu[v]] != (flips[i] if i is not None else 0):
            raise CubicalError(
                "ball edge on an unselected wall maps to distinct vertices" if i is None
                else "adjacent ball elements do not differ exactly on their wall",
                edge=(u, v), differing=dual.differing(nu[u], nu[v]))

    trusted_radius = ball.radius - margin
    trusted = [g for g in ball.elements if len(g) <= trusted_radius]
    images = {nu[g] for g in trusted}
    if len(images) != len(trusted):
        raise CubicalError("nu is not injective on the trusted sub-ball",
                           radius=trusted_radius)
    injective = len({nu[g] for g in ball.elements}) == len(ball.elements)
    return Cubulation(truncated=th, dual=dual, nu=nu,
                      injective_on_ball=injective,
                      trusted_radius=trusted_radius)


def act_on_halfspace(th: TruncatedHalfspaces, w: Word, halfspace_id: str):
    """Left action w.H(u,v) = H(wu, wv) on selected halfspaces; None when
    the image wall was truncated away. The image wall is that of w t w^-1,
    t the reflection of H's wall, and the image is its side holding wu."""
    sys_ = th.ball.system
    w = tuple(w)
    p = th.system.position[halfspace_id]  # wall p >> 1, its "-" side if p is odd
    end = th.defining_edges[p >> 1][p & 1]  # the end of the edge on that side
    refl = reduce_word(sys_, w + th.walls[p >> 1].reflection + _inv(w))
    j = next((j for j, wall in enumerate(th.walls) if wall.reflection == refl), None)
    return None if j is None else th._side(j, sys_.tits.point(w + end))


# ---------------------------------------------------------------------------
# ends


@dataclass(frozen=True)
class EndsReport:
    radius: int
    counts: dict     # r -> number of sphere-touching annulus components
    verdict_r: int   # the r the verdict is read from
    verdict: str     # "0" | "1" | "2" | "infinity"
    note: str = ("estimator on a finite ball, not a decision procedure; "
                 "counts >= 3 are reported as probably infinite")

    def certificate(self) -> dict:
        return {"counts": {str(r): c for r, c in sorted(self.counts.items())},
                "verdict_r": self.verdict_r,
                "verdict": self.verdict, "note": self.note}


def _annulus_components(ball: CayleyBall, r: int) -> int:
    """Number of components of the annulus r < l(g) <= radius that contain
    an element of length exactly radius: elements come by length, so both
    are suffixes of the positions."""
    n, inner = len(ball.elements), sum(len(ball.sphere(k)) for k in range(r + 1))
    outer = n - len(ball.sphere(ball.radius))
    return sum(max(comp) >= outer for comp in components(range(inner, n), ball.neighbours))


def ends_profile(sys_: CoxeterSystem, radius: int,
                 cap: int = DEFAULT_CAP) -> EndsReport:
    """Component counts for every r in 1..radius-1 plus the Hopf-style
    verdict.

    The verdict is read at r = radius // 2: annuli thinner than that shatter
    even in one-ended groups (a bare sphere has no internal edges), so
    counts at large r are reported as evidence but not trusted. Below
    radius 2 there is no annulus to count, which is an input error.
    """
    if radius < 2:
        raise InputFormatError(f"ends needs radius >= 2, got {radius}")
    ball = cayley_ball(sys_, radius, cap=cap)
    counts = {r: _annulus_components(ball, r) for r in range(1, radius)}
    verdict_r = radius // 2
    count = counts[verdict_r]
    verdict = str(count) if count <= 2 else "infinity"
    return EndsReport(radius=radius, counts=counts,
                      verdict_r=verdict_r, verdict=verdict)
