"""Halfspace systems and their dual cube complexes.

A halfspace system is a finite poset with an order-reversing fixed-point-free
involution, subject to the nesting condition: distinct hyperplanes admit at
most one relation among h<=k, h<=k*, h*<=k, h*<=k*. Vertices of the dual
complex are consistent orientations (one halfspace per hyperplane, never
choice(h) <= choice(k)*); n pairwise-transversal minimal halfspaces at a
vertex span an n-cube, and the edges are the 1-cubes: single flips.

``build_system`` builds the systems of input files: it takes the order
as the transitive closure of the generators and their star images; being
star-closed, it is order-reversed by the involution. Every cover of the
closed order is a generator, so the closure sweep hands over the cover
relation (``covers``) as well. It alone runs ``_validated``, the check
for cycles, nesting and comparable complements. Every system the package
derives is built valid instead, as the sides of walls or clusters form a
pocset by construction (Sageev 1995; Roller 1998).
``_system_of_crossings`` is the one builder of systems of sets ordered by
inclusion: it orders the sides of walls from per-point rows of crossed
walls, for the Coxeter truncations, the Roller test of ``complexes`` and
``halfspace_system_of``, and refuses the only defects rows can have: a
wall with an empty side, or two walls with identical sides. Inclusion is
transitive as it stands, so it needs no closure; it has no generators,
and its covers are found from ``above`` on first use. Tree space writes
its cluster pocset's ``above`` directly.
``_flip_walk`` is the one search over minimal flips: ``_dual_cells``
assembles every dual complex on it, ``dual_complex``'s and tree space's,
on the vertex ranks each caller chooses, the Roller test compares it with
a 1-skeleton, and ``_dual_cell_count`` counts the cells on it, for the
CAT(0) test of ``complexes``.

Halfspaces live at positions: hyperplane i holds positions 2i and 2i + 1,
so the complement of position p is p ^ 1. ``build_system`` sorts the ids
once and ranks them, so its hyperplane i is the i-th star pair in id order;
a system of sets takes its caller's wall or class order, and tree space
its cluster name order. Sets of positions are int bitsets: the order is
one ``above`` mask per position, and an orientation is the mask of its
chosen positions. Transversality is one mask per hyperplane,
``transversal_masks``: ``transversal`` reads it, ``_dual_cubes`` walks
its cliques at each vertex of the dual and ``_dual_cell_count`` counts
them there, and ``maximal_cubes`` checks its maximal cliques, listed by
``graphs.cliques``, against the maximal cubes.
Ids are kept for I/O and witnesses only.

Everything is immutable; dual_complex is a pure function with deterministic
output (hyperplanes processed in position order, vertices numbered in BFS
order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

from .complexes import CubeComplex, _complex_of_ranks, _disagreement, _scan_listing, canonical_cube
from .errors import (
    CapExceededError,
    ComparableComplementsError,
    CubicalError,
    CyclicOrderError,
    InputFormatError,
    NestingViolationError,
    NotAVertexError,
    NotInvolutionError,
    NotMinimalError,
    PartialOrientationError,
    SameHyperplaneError,
    SelfPairedError,
)
from .graphs import bits, cliques
from .util import DEFAULT_CAP, check_ids, parse_list, ssorted


def _evens(size: int) -> int:
    """The even positions below ``size``: bit 2i of every hyperplane i."""
    return ((1 << size) - 1) // 3


@dataclass(frozen=True)
class HalfspaceSystem:
    """Valid halfspace system on interned positions.

    ``star_pairs`` lists the hyperplanes, each pair in id order: in id
    order from ``build_system``, in wall or class order from
    ``_system_of_crossings``, in cluster name order in tree space.
    Hyperplane i holds the halfspaces at positions 2i and 2i + 1
    (``labels`` maps a position back to its id).
    ``above[p]`` is the int bitset of the positions strictly above p in
    the closed order. Derived: ``halfspaces``, the ids in ``skey`` order,
    for I/O (``build_system`` seeds it); ``below[p]`` is ``above[p ^ 1]``
    with the two bits of every hyperplane swapped, since q < p iff
    p* < q*; ``covers[p]`` holds the positions above p with nothing
    strictly between (``build_system`` seeds it from its closure sweep,
    and set systems find it from ``above``)."""

    star_pairs: tuple
    above: tuple  # position -> bitset of the positions strictly above it

    @cached_property
    def halfspaces(self) -> tuple:
        return tuple(ssorted(self.labels))

    @cached_property
    def labels(self) -> tuple:
        return tuple(h for pair in self.star_pairs for h in pair)

    @cached_property
    def position(self) -> dict:
        return {h: p for p, h in enumerate(self.labels)}

    @property
    def hyperplanes(self) -> tuple:
        return self.star_pairs

    @cached_property
    def star(self) -> dict:
        return {h: self.labels[p ^ 1] for p, h in enumerate(self.labels)}

    @cached_property
    def hyperplane_of(self) -> dict:
        return {h: p >> 1 for p, h in enumerate(self.labels)}

    @cached_property
    def below(self) -> tuple:
        even = _evens(len(self.above))
        swapped = [((m & even) << 1) | ((m >> 1) & even) for m in self.above]
        return tuple(swapped[p ^ 1] for p in range(len(swapped)))

    @cached_property
    def covers(self) -> tuple:
        """The positions above p with nothing strictly between. Systems
        from ``build_system`` hold these already, read off the closure
        sweep; this skip loop serves the systems of sets, which have no
        generators. A position already in ``between`` lies above one
        visited before, so by transitivity its row adds nothing, and it is
        skipped."""
        above = self.above
        out = []
        for m in above:
            between = 0
            rest = m
            while rest:
                low = rest & -rest
                between |= above[low.bit_length() - 1]
                rest &= ~(between | low)
            out.append(m & ~between)
        return tuple(out)

    @cached_property
    def transversal_masks(self) -> tuple:
        """Hyperplane index i -> the bitset of the even positions 2j of the
        hyperplanes j transversal to i: those with no order relation
        between any of their halfspaces. By star symmetry every relation
        between hyperplanes i and j shows in ``above[2i] | above[2i + 1]``."""
        above = self.above
        even = _evens(len(above))
        out = []
        for i in range(len(self.star_pairs)):
            rel = above[2 * i] | above[2 * i + 1]
            out.append(~(rel | rel >> 1) & even & ~(1 << 2 * i))
        return tuple(out)


def build_system(halfspaces, star_pairs, leq_pairs) -> HalfspaceSystem:
    """Validate and close a raw system.

    The order is given by generators. With each generator a <= b comes its
    star image b* <= a*, so the transitive closure is star-closed. The
    builder checks the involution, antisymmetry, the nesting condition and
    incomparability of complements, in that order. The closure sweep also
    yields the cover relation, which seeds the cached ``covers``, and the
    ids' one sort seeds ``halfspaces``.
    """
    ids, ranked, pairs = _star_layout(halfspaces, star_pairs)
    pos = {h: p for p, h in enumerate(h for pair in pairs for h in pair)}
    succ = [0] * len(pos)
    for a, b in leq_pairs:
        if a not in pos or b not in pos:
            raise InputFormatError(f"leq pair ({a!r},{b!r}) uses unknown ids")
        if a != b:
            p, q = pos[a], pos[b]
            succ[p] |= 1 << q
            succ[q ^ 1] |= 1 << (p ^ 1)
    above, covers = _closure(succ)
    s = HalfspaceSystem(star_pairs=tuple(pairs), above=tuple(above))
    s.__dict__["covers"] = tuple(covers)  # the cached properties, off the sweep
    s.__dict__["halfspaces"] = tuple(ranked)  # and off the layout's sort
    return _validated(s, ids)


def _star_layout(halfspaces, star_pairs) -> tuple[list, list, list]:
    """The ids in input order, the ids in ``skey`` order, and the star pairs
    in hyperplane order, after checking that the pairs form an involution of
    the ids. The ids are sorted once and ranked: a pair is listed at the
    rank of its first id, the lesser of its two."""
    ids = list(halfspaces)
    idset = set(ids)
    if len(idset) != len(ids):
        raise InputFormatError("duplicate halfspace id")
    star = {}
    for a, b in star_pairs:
        if a not in idset or b not in idset:
            raise InputFormatError(f"star pair ({a!r},{b!r}) uses unknown ids")
        if a == b:
            raise SelfPairedError(f"halfspace {a!r} paired with itself", halfspace=a)
        for x, y in ((a, b), (b, a)):
            if x in star and star[x] != y:
                raise NotInvolutionError(f"{x!r} paired twice", halfspace=x)
            star[x] = y
    unpaired = [h for h in ids if h not in star]
    if unpaired:
        raise NotInvolutionError("unpaired halfspaces", halfspaces=ssorted(unpaired))
    ranked = ssorted(ids)
    rank = {h: i for i, h in enumerate(ranked)}
    pairs = sorted(((a, b) for a, b in star.items() if rank[a] < rank[b]),
                   key=lambda pair: rank[pair[0]])
    return ids, ranked, pairs


def _validated(s: HalfspaceSystem, ids) -> HalfspaceSystem:
    """``s``, once its order is checked: no cycle, the nesting condition,
    and no halfspace comparable with its complement, in that order. ``s.above``
    must be transitive and star-closed (q < p iff p* < q*), as the closure
    of star-closed generators and inclusion of sets under complements both
    are. Errors name halfspaces by the first in ``ids``, the input order."""
    above, pairs = s.above, s.star_pairs
    pos = s.position
    below = s.below
    for a in ids:
        p = pos[a]
        if above[p] & below[p]:  # a lies on a cycle: name the first pair in input order
            b = next(b for b in ids if b != a and above[p] >> pos[b] & 1
                     and above[pos[b]] >> p & 1)
            raise CyclicOrderError(f"{a!r} and {b!r} are mutually below each other",
                                   pair=(a, b))

    labels = s.labels
    even = _evens(len(labels))
    for i, (a, b) in enumerate(pairs):
        # hyperplanes j > i with two relations a|b < c|d: two in one row, or one in each
        x, y = above[2 * i], above[2 * i + 1]
        clash = ((x & x >> 1) | (y & y >> 1) | ((x | x >> 1) & (y | y >> 1))) & even
        clash >>= 2 * i + 2
        if clash:
            j = i + 1 + ((clash & -clash).bit_length() - 1) // 2
            rels = [(labels[p], labels[q]) for p in (2 * i, 2 * i + 1)
                    for q in (2 * j, 2 * j + 1) if above[p] >> q & 1]
            raise NestingViolationError(
                "more than one nesting relation between two hyperplanes",
                pair=((a, b), pairs[j]), relations=rels)

    for h in ids:
        p = pos[h]
        if (above[p] >> (p ^ 1) | above[p ^ 1] >> p) & 1:
            raise ComparableComplementsError(
                f"halfspace {h!r} comparable with its complement", halfspace=h)
    return s


def _spread(x: int) -> int:
    """x with its bit k moved to bit 2k."""
    return int("0".join(bin(x)[2:]), 2)


def _columns(rows, count: int, gap: str = "") -> list[int]:
    """The ``count`` columns of the bit matrix ``rows``: bit k of column h
    is bit h of ``rows[k]``, read off the rows' binary digits. With
    ``gap="0"`` it is bit 2k, as ``_spread`` would place it."""
    top = 1 << count  # a leading 1 keeps each row's leading zeros
    digits = zip(*[bin(m | top)[3:] for m in reversed(rows)])
    return [int(gap.join(col), 2) for col in digits][::-1]


def _system_of_crossings(crossed, star_pairs) -> HalfspaceSystem:
    """The sides of walls ordered by inclusion, with complements as the
    involution, given per point k the bitset ``crossed[k]`` of the walls
    whose "-" side holds it. Point 0 lies on every "+" side. Wall i is
    hyperplane i: ``star_pairs[i]`` names its "+" and its "-" side, at
    positions 2i and 2i + 1. The ids serve I/O and witnesses only.

    Let AND[i] and OR[i] be the AND and the OR of the rows with bit i set,
    those of the points of wall i's "-" side (AND[i] is every wall when
    that side is empty). Then for j != i:
    - i- < j- iff bit j of AND[i] is set
    - i- < j+ iff bit j of OR[i] is clear
    - i+ < j+ iff j- < i-, so the "+" rows are the columns of AND
    - i+ < j- never holds, as point 0 lies in i+ and not in j-
    Inclusion of sets is transitive and complements reverse it, so the
    rows need no closure. A W-bit row goes to the even positions 2j ("+")
    or the odd ones 2j + 1 ("-") of the system by ``_spread``.

    The system is built valid, with no check of the order after the
    build, once every side is nonempty and no two sides are equal. Point
    0 makes every "+" side nonempty, and so every "-" side is a proper
    subset. The pass over AND and OR refuses the two defects left:
    - walls i and j have identical sides iff AND[i] == AND[j] (AND[i]
      holds bit i, so equal rows make each side lie in the other). That
      raises NestingViolationError, naming the first such j and its least
      i by their "+" ids;
    - wall i's "-" side is empty iff OR[i] == 0, which raises
      ComparableComplementsError naming its "-" id, as the empty side
      lies below its complement.
    Two points per wall i that differ in bit i alone, such as the ends of
    an edge of wall i in a Cayley ball or a 1-skeleton, rule both out.
    The sides are then 2W distinct nonempty proper sets (a "+" side holds
    point 0 and no "-" side does), so strict inclusion among them is a
    strict order: no cycle. A side below its complement would be empty,
    as would one above it. And no two of the four relations i+ < j+,
    i+ < j-, i- < j+, i- < j- hold for walls i != j: the first two would
    make i+ empty, the last two i-; the first and third j-, the second and
    fourth j+; the first and fourth make i- = j- (i+ < j+ gives j- < i-),
    and the second and third i- = j+, also false as j+ holds point 0.

    Point 0's row must be 0: the caller's contract, not checked."""
    count = len(star_pairs)
    full = (1 << count) - 1
    meet = [full] * count
    join = [0] * count
    for c in crossed:
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            meet[i] &= c
            join[i] |= c

    first: dict[int, int] = {}
    for j, m in enumerate(meet):
        i = first.setdefault(m, j)
        if i != j:
            a, b = star_pairs[i][0], star_pairs[j][0]
            raise NestingViolationError(
                f"walls {a} and {b} have identical truncated sides; "
                "increase the radius or margin", pair=(a, b))
        if not join[j]:
            h = star_pairs[j][1]
            raise ComparableComplementsError(
                f"halfspace {h!r} is empty, so it lies below its complement", halfspace=h)

    plus = _columns(meet, count, "0")  # column i of AND, spread
    above = []
    for i in range(count):
        above.append(plus[i] & ~(1 << 2 * i))
        above.append(_spread(meet[i] & ~(1 << i)) << 1 | _spread(full & ~join[i]))
    return HalfspaceSystem(star_pairs=tuple(star_pairs), above=tuple(above))


def _closure(succ: list) -> tuple[list, list]:
    """Strict transitive closure of the relation p -> q for q in succ[p],
    on int bitsets, and its cover relation, as (above, covers). Each
    position takes its successors and ``between``, the OR of their rows,
    in depth-first post-order. A successor still on the stack when a
    position is pushed closes a cycle. With none (a loop p -> p at a root
    is not looked for: it adds nothing to one sweep), the post-order is a
    reverse topological order and one sweep closes the relation; otherwise
    sweeps repeat until nothing changes, which closes the cycles too.

    Without a cycle, q covers p iff q is a successor of p and not in
    ``between``, so ``covers[p]`` costs one AND (Aho, Garey & Ullman 1972):
    a path of two or more steps from p to q passes a position strictly
    between them, and any position above p lies at or above a successor.
    With a cycle the covers mean nothing, and ``_validated`` rejects the
    order."""
    order = []
    seen = 0
    on_stack = 0
    cyclic = False
    for root in range(len(succ)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        on_stack |= 1 << root
        stack = [[root, succ[root]]]
        while stack:
            top = stack[-1]
            rest = top[1] & ~seen
            if rest:
                low = rest & -rest
                seen |= low
                on_stack |= low
                top[1] = rest ^ low
                q = low.bit_length() - 1
                cyclic = cyclic or bool(succ[q] & on_stack)
                stack.append([q, succ[q]])
            else:
                stack.pop()
                on_stack ^= 1 << top[0]
                order.append(top[0])
    above = [0] * len(succ)
    covers = [0] * len(succ)
    changed = True
    while changed:
        changed = False
        for p in order:
            between = 0
            for q in bits(succ[p]):
                between |= above[q]
            covers[p] = succ[p] & ~between
            reach = succ[p] | between
            if reach != above[p]:
                above[p] = reach
                changed = cyclic  # else one sweep has closed the relation
    return above, covers


def load_system(data: dict) -> HalfspaceSystem:
    if not isinstance(data, dict) or "halfspaces" not in data:
        raise InputFormatError("pocset JSON needs 'halfspaces', 'star', 'leq'")
    ids = parse_list(data["halfspaces"], "'halfspaces'")
    star, leq = ([tuple(parse_list(p, f"a '{key}' pair", 2))
                  for p in parse_list(data.get(key, []), f"'{key}'")]
                 for key in ("star", "leq"))
    named = ids + [h for p in star + leq for h in p]
    check_ids(named, "halfspace ids")
    spelling: dict = {}  # one id spelt two ways, 1 and 1.0, would merge in the builder
    for v in named:
        u = spelling.setdefault(v, v)
        # equal ids of one type print alike, but for 0.0 and -0.0
        if u is not v and (type(u) is not type(v) or type(v) is float and repr(u) != repr(v)):
            raise InputFormatError(
                f"halfspace id {u!r} is also spelt {v!r}", ids=[u, v])
    return build_system(ids, star, leq)


def dump_system(s: HalfspaceSystem) -> dict:
    """The system as JSON, whatever its position order: ``halfspaces`` in
    ``skey`` order, with no ties, as duplicate ids are rejected; the star
    pairs by the index there of their first id, and the ``leq`` pairs
    (a, b) by the indices of a and b, that is in (skey(a), skey(b))
    order."""
    hs = s.halfspaces
    n = len(hs)
    index = {h: i for i, h in enumerate(hs)}
    rank = [index[h] for h in s.labels]  # position -> index in halfspaces
    keys = sorted(rank[p] * n + rank[q] for p, m in enumerate(s.above) for q in bits(m))
    return {
        "halfspaces": list(hs),
        "star": [list(pair) for pair in sorted(s.star_pairs, key=lambda pair: index[pair[0]])],
        "leq": [[hs[k // n], hs[k % n]] for k in keys],
    }


def transversal(s: HalfspaceSystem, h, k) -> bool:
    """True iff none of the four nesting relations holds between the
    hyperplanes of h and k."""
    i, j = s.hyperplane_of[h], s.hyperplane_of[k]
    if i == j:
        raise SameHyperplaneError("halfspaces lie in the same hyperplane pair",
                                  pair=(h, k))
    return bool(s.transversal_masks[i] >> 2 * j & 1)


@dataclass(frozen=True)
class Orientation:
    """One halfspace per hyperplane, indexed like system.hyperplanes."""

    choices: tuple

    def choice(self, i: int):
        return self.choices[i]


@dataclass(frozen=True)
class VertexResult:
    ok: bool
    witness: tuple | None = None  # offending (halfspace, halfspace)


def _chosen(s: HalfspaceSystem, o: Orientation) -> int:
    """The bitset of the positions an orientation chooses."""
    if len(o.choices) != len(s.star_pairs):
        raise PartialOrientationError(
            f"orientation fixes {len(o.choices)} of {len(s.star_pairs)} hyperplanes")
    chosen = 0
    for i, a in enumerate(o.choices):
        p = s.position.get(a)
        if p is None or p >> 1 != i:
            raise PartialOrientationError(
                f"choice {a!r} does not belong to hyperplane {i}")
        chosen |= 1 << p
    return chosen


def _orientation(s: HalfspaceSystem, chosen: int) -> Orientation:
    """The orientation choosing the positions of the bitset ``chosen``."""
    return Orientation(choices=tuple(s.labels[p] for p in bits(chosen)))


def is_vertex(s: HalfspaceSystem, o: Orientation) -> VertexResult:
    """Consistency of an orientation: no pair with choice(h) <= choice(k)*.
    (The <=-form of the vertex condition, which the flip lemmas use.)

    The witness is the first pair (a, b) in index order: a is the first
    choice with an unchosen halfspace b* above it, b the first such.
    Since a < b* iff b < a*, no earlier choice has a bad partner."""
    chosen = _chosen(s, o)
    for p in bits(chosen):
        bad = s.above[p] & ~chosen
        if bad:
            q = (bad & -bad).bit_length() - 1
            return VertexResult(ok=False, witness=(s.labels[p], s.labels[q ^ 1]))
    return VertexResult(ok=True)


def seed_vertex(s: HalfspaceSystem) -> Orientation:
    """A consistent orientation in closed form: per hyperplane, the side p
    whose least position m(p) in {p} | below(p) comes first.

    On a valid system the result is consistent, so this raises nothing:
    (1) m(p) != m(p*). A halfspace at or below both p and p* would make
        p and p* comparable, or lie strictly below both, two relations
        between its hyperplane and p's, against nesting.
    (2) Say the chosen p and q had p < q*; then also q < p*, so
        m(q*) <= m(p) and m(p*) <= m(q). With the choices,
        m(q*) <= m(p) < m(p*) <= m(q) < m(q*), a contradiction.
    The tests check it against the 2-SAT solution it replaces (choosing a
    forbids b whenever a <= b*, solved by Tarjan's components)."""
    below = s.below
    choices = []
    for i, pair in enumerate(s.star_pairs):
        a, b = ((1 << p) | below[p] for p in (2 * i, 2 * i + 1))
        choices.append(pair[0] if a & -a < b & -b else pair[1])
    return Orientation(choices=tuple(choices))


def minimal_halfspaces(s: HalfspaceSystem, v: Orientation) -> tuple:
    """Chosen halfspaces with no chosen halfspace strictly below them."""
    res = is_vertex(s, v)
    if not res.ok:
        raise NotAVertexError("orientation is not a vertex", witness=res.witness)
    return tuple(v.choices[i] for i in _minimal_unchecked(s, _chosen(s, v)))


def _minimal_unchecked(s: HalfspaceSystem, chosen: int) -> list:
    """Indices of the hyperplanes whose chosen position in the bitset
    ``chosen`` has no chosen position below it, in increasing order."""
    below = s.below
    return [p >> 1 for p in bits(chosen) if not below[p] & chosen]


def flip(s: HalfspaceSystem, v: Orientation, i: int) -> Orientation:
    """Replace the choice at hyperplane i by its complement; defined exactly
    when the current choice is minimal."""
    minimal = minimal_halfspaces(s, v)
    h = v.choice(i)
    if h not in minimal:
        raise NotMinimalError(f"choice {h!r} at hyperplane {i} is not minimal",
                              hyperplane=i, choice=h)
    choices = list(v.choices)
    choices[i] = s.star[h]
    return Orientation(choices=tuple(choices))


@dataclass(frozen=True)
class DualComplex:
    """One connected component of the dual complex, with the orientation
    behind every vertex id, kept as bitsets of chosen positions, the
    seed's first. The rest is derived: a cube's hyperplane family is
    ``differing(c[0], c[-1])``, where its opposite corners choose apart."""

    system: HalfspaceSystem
    seed: Orientation
    complex: CubeComplex
    masks: tuple                 # vertex id -> bitset of chosen positions

    @cached_property
    def orientations(self) -> tuple:  # vertex id -> Orientation, on first use
        return tuple(_orientation(self.system, m) for m in self.masks)

    @cached_property
    def vertex_of(self) -> dict:  # bitset -> vertex id
        return {m: i for i, m in enumerate(self.masks)}

    def differing(self, u: int, v: int) -> list:
        """The hyperplanes on which vertices u and v choose differently,
        in increasing order."""
        diff = (self.masks[u] ^ self.masks[v]) & _evens(2 * len(self.system.star_pairs))
        return [p >> 1 for p in bits(diff)]

    def bitmap(self, vertex_id: int) -> str:
        """Per-hyperplane bits, 1 where the orientation differs from seed."""
        # bit 2i of the xor, least first; the top bit keeps leading zeros
        size = 2 * len(self.system.star_pairs)
        diff = (self.masks[vertex_id] ^ self.masks[0]) | 1 << size
        return bin(diff)[:1:-1][:size:2]


def dual_complex(s: HalfspaceSystem, seed: Orientation,
                 cap: int = DEFAULT_CAP) -> DualComplex:
    """BFS over flips from the seed, with the cubes, edges included, that
    ``_dual_cells`` assembles on it; more than ``cap`` vertices, the seed
    included, raise ``CapExceededError``. The vertices are named by their
    walk ids 0..n-1, which are their own ranks."""
    res = is_vertex(s, seed)
    if not res.ok:
        raise NotAVertexError("seed orientation is not a vertex", witness=res.witness)
    walk = _flip_walk(s, _chosen(s, seed), cap)
    if walk is None:
        raise CapExceededError(f"dual component exceeds cap {cap}", cap=cap)
    order, ids, minimal_at = walk
    complex_ = _dual_cells(s, order, minimal_at, ids, tuple(range(len(order))))
    return DualComplex(system=s, seed=seed, complex=complex_, masks=tuple(order))


def _dual_cells(s: HalfspaceSystem, order: list, minimal_at: list, ids: dict,
                labels: tuple) -> CubeComplex:
    """The complex of the dual walked in ``order``, the vertex ``mask``
    named ``labels[ids[mask]]``, with the cubes of ``_dual_cubes``. Each
    dimension is canonicalized at once; only a set of fewer cubes than were
    walked, one assembled twice, runs ``_scan_listing``, the ordered scan
    of ``build_complex``, to name the first repeat in walk order by its
    labels.
    ``_complex_of_ranks`` checks faces and gluing and keeps the frozensets
    as the complex's cells."""
    walked: dict[int, list] = {}  # corner count -> the cubes in walk order
    for cube in _dual_cubes(s, order, minimal_at, ids):
        walked.setdefault(len(cube), []).append(cube)
    listed: dict[int, frozenset] = {}
    for size, cubes in walked.items():
        k = size.bit_length() - 1
        listed[k] = frozenset(map(canonical_cube, cubes))
        if len(listed[k]) != len(cubes):
            named = [tuple(map(labels.__getitem__, c)) for c in cubes]
            _scan_listing(named, k, {v: r for r, v in enumerate(labels)}, set())
            raise _disagreement("listing")
    return _complex_of_ranks(labels, listed)


def _flip_walk(s: HalfspaceSystem, start: int, cap: int):
    """Breadth-first search over minimal flips from the consistent
    orientation ``start``, a bitset of chosen positions: the vertices of
    its component of the dual in the order found, the id of each, and
    each one's bitset of minimal positions, as (order, ids, minimal_at);
    None once the walk finds more than ``cap`` vertices, ``start``
    included. Flipping hyperplane i is ``v ^ (3 << 2i)``.

    Each vertex's minimal positions M are found once. The start's come
    from ``_minimal_unchecked``; a vertex w first reached from v by
    flipping the minimal position p to q = p* has
        M_w = ((M_v - {p}) | {q}) - above[q]
              | {r in covers[p] & w : no position of w lies below r}.
    q is minimal at w, or some chosen s < p* would make v inconsistent. q
    is the only new choice, so an old minimal r is lost exactly when
    q < r. And r becomes minimal only if p was the one chosen position
    below it at v; any s with p < s < r is chosen at v by consistency, so
    r covers p. (The test on below[r] alone decides; covers[p] only narrows
    the candidates.) It keeps its own queue, not ``graphs.bfs``, as it
    finds the graph it walks."""
    if cap < 1:
        return None
    above, below, covers = s.above, s.below, s.covers
    order = [start]
    ids = {start: 0}
    # per vertex id: the bitset of its minimal positions
    minimal_at = [sum(start & 3 << 2 * i for i in _minimal_unchecked(s, start))]
    for n, v in enumerate(order):  # order grows while it is read: a breadth-first queue
        minimal = rest = minimal_at[n]
        while rest:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            w = v ^ (3 << (p & ~1))
            if w in ids:
                continue
            if len(order) >= cap:
                return None
            ids[w] = len(order)
            order.append(w)
            q = p ^ 1
            gained = 0
            new = covers[p] & w
            while new:
                r = new & -new
                new ^= r
                if not below[r.bit_length() - 1] & w:
                    gained |= r
            minimal_at.append((minimal ^ low | 1 << q) & ~above[q] | gained)
    return order, ids, minimal_at


def _dual_cubes(s: HalfspaceSystem, order: list, minimal_at: list, ids: dict):
    """Yield each cube of the dual as its corners' ranks ``ids[mask]``,
    once: at the one corner that chooses the first halfspace of each of its
    hyperplanes, all minimal there, vertices in ``order``. At vertex v the families are the cliques of the transversal
    graph on the hyperplanes whose first halfspace is minimal at v, walked
    on bitsets of even positions in lexicographic pre-order: each family
    before its extensions, extensions by earlier hyperplanes first. A
    family's corners are its parent's, then the parent's flipped on the
    added hyperplane, so corner i flips the j-th hyperplane added for the
    bits j of i, and the last corner flips the whole family: no family is
    kept, as the two corners' masks give it back. The walk is its own,
    not ``graphs.cliques``: it grows each family's corners from its
    parent's as it goes, which the size-ordered walk there, keeping no
    parent, would have to branch for."""
    transversal = s.transversal_masks
    even = _evens(2 * len(s.star_pairs))
    for v, minimal in zip(order, minimal_at):
        rest = minimal & even  # the candidates left at the current family
        stack = []  # the families it extends, each with its candidates left
        corners, ranked = [v], (ids[v],)
        while True:
            if rest:
                low = rest & -rest
                rest ^= low
                p = low.bit_length() - 1
                flipped = [c ^ (3 << p) for c in corners]
                child = ranked + tuple([ids[c] for c in flipped])
                yield child
                later = rest & transversal[p >> 1]
                if later:  # walk the child's extensions before its siblings
                    stack.append((corners, ranked, rest))
                    corners, ranked, rest = corners + flipped, child, later
            elif stack:
                corners, ranked, rest = stack.pop()
            else:
                break


def _dual_cell_count(s: HalfspaceSystem, minimal_at: list, budget: int) -> int:
    """The number of cells of the dual, its vertices included, counted on
    the walk whose vertices' minimal positions are ``minimal_at``, without
    listing them; ``budget + 1`` once the count passes ``budget``, so no
    more than that many families are visited. As in ``_dual_cubes``, each
    cell is a clique of the transversal graph on the hyperplanes whose
    first halfspace is minimal at the vertex that chooses it, the empty
    family standing for the vertex. A family is held as the candidates
    that extend it: those after its last hyperplane and transversal to
    all of it."""
    transversal = s.transversal_masks
    even = _evens(2 * len(s.star_pairs))
    stack = [minimal & even for minimal in minimal_at]
    count = 0
    while stack and count <= budget:
        count += 1
        rest = stack.pop()
        while rest:
            low = rest & -rest
            rest ^= low
            stack.append(rest & transversal[low.bit_length() >> 1])
    return count


def maximal_cubes(dual: DualComplex) -> list[tuple]:
    """Maximal cubes of the component with their defining hyperplane
    families, read off the masks of the opposite corners c[0] and c[-1];
    verifies the cube <-> maximal-transversal-family bijection."""
    s = dual.system
    masks = dual.masks
    even = _evens(2 * len(s.star_pairs))
    result = [(c, tuple(p >> 1 for p in bits((masks[c[0]] ^ masks[c[-1]]) & even)))
              for c in sorted(dual.complex.maximal, key=lambda t: (len(t), t))]

    fams = [fam for _, fam in result]
    if len(set(fams)) != len(fams):
        raise CubicalError("two maximal cubes share a hyperplane family")
    # hyperplane i's transversal ones at bits j, not at the positions 2j
    cross = [sum(1 << (p >> 1) for p in bits(m)) for m in s.transversal_masks]
    # a family is maximal when no hyperplane is transversal to all of it
    maximal_fams = {fam for fam in map(tuple, map(bits, cliques(cross)))
                    if not reduce(and_, map(cross.__getitem__, fam))}
    if cross and maximal_fams != set(fams):
        raise CubicalError(
            "maximal cubes do not match maximal transversal families",
            cubes=sorted(fams), families=sorted(maximal_fams))
    return result
