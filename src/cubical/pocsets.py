"""Halfspace systems and their dual cube complexes.

A halfspace system is a finite poset with an order-reversing fixed-point-free
involution, subject to the nesting condition: distinct hyperplanes admit at
most one relation among h<=k, h<=k*, h*<=k, h*<=k*. Vertices of the dual
complex are consistent orientations (one halfspace per hyperplane, never
choice(h) <= choice(k)*); n pairwise-transversal minimal halfspaces at a
vertex span an n-cube, and the edges are the 1-cubes: single flips.

The order is the transitive closure of the generators and their star
images; being star-closed, it is order-reversed by the involution.

Everything is immutable; dual_complex is a pure function with deterministic
output (hyperplanes processed in id order, vertices numbered in BFS order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .complexes import CubeComplex, build_complex, canonical_cube, cube_dim, cube_faces
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
    UnsatisfiableError,
)
from .graphs import cliques
from .twosat import TwoSat
from .util import check_ids, parse_list, skey, ssorted


@dataclass(frozen=True)
class HalfspaceSystem:
    """Validated halfspace system. ``leq`` is the strict part of the partial
    order, transitively closed; ``star_pairs`` pairs each halfspace with its
    complement; ``hyperplanes`` lists the unordered pairs in id order."""

    halfspaces: tuple
    star_pairs: tuple
    leq: frozenset  # strict pairs (a, b) meaning a < b

    @cached_property
    def star(self) -> dict:
        out = {}
        for a, b in self.star_pairs:
            out[a] = b
            out[b] = a
        return out

    @cached_property
    def hyperplanes(self) -> tuple:
        pairs = []
        for a, b in self.star_pairs:
            pairs.append(tuple(ssorted((a, b))))
        return tuple(sorted(pairs, key=lambda p: (skey(p[0]), skey(p[1]))))

    @cached_property
    def hyperplane_of(self) -> dict:
        out = {}
        for i, (a, b) in enumerate(self.hyperplanes):
            out[a] = i
            out[b] = i
        return out

    @cached_property
    def transversal_adjacency(self) -> dict:
        """Hyperplane index -> indices of the hyperplanes transversal to it:
        those with no order relation between any of their halfspaces."""
        n = len(self.hyperplanes)
        adj = {i: set(range(n)) - {i} for i in range(n)}
        for a, b in self.leq:
            i, j = self.hyperplane_of[a], self.hyperplane_of[b]
            adj[i].discard(j)
            adj[j].discard(i)
        return {i: frozenset(js) for i, js in adj.items()}

    @cached_property
    def strictly_below(self) -> dict:
        below = {h: set() for h in self.halfspaces}
        for a, b in self.leq:
            below[b].add(a)
        return {h: frozenset(v) for h, v in below.items()}

    def le(self, a, b) -> bool:
        return a == b or (a, b) in self.leq

    def lt(self, a, b) -> bool:
        return (a, b) in self.leq


def build_system(halfspaces, star_pairs, leq_pairs) -> HalfspaceSystem:
    """Validate and close a raw system.

    The order is given by generators. With each generator a <= b comes its
    star image b* <= a*, so the transitive closure is star-closed: one
    reachability pass, no re-closing. The builder checks the involution,
    antisymmetry, incomparability of complements, and the nesting condition.
    """
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

    succ: dict = {h: set() for h in ids}
    for a, b in leq_pairs:
        if a not in idset or b not in idset:
            raise InputFormatError(f"leq pair ({a!r},{b!r}) uses unknown ids")
        if a != b:
            succ[a].add(b)
            succ[star[b]].add(star[a])
    strict: set[tuple] = set()
    for h in ids:  # one reachability pass per halfspace
        stack = list(succ[h])
        while stack:
            k = stack.pop()
            if (h, k) not in strict:
                strict.add((h, k))
                stack.extend(succ[k])
    for a in ids:
        if (a, a) in strict:  # a lies on a cycle: name the first pair in input order
            b = next(b for b in ids if b != a and (a, b) in strict and (b, a) in strict)
            raise CyclicOrderError(f"{a!r} and {b!r} are mutually below each other",
                                   pair=(a, b))

    pairs = sorted({tuple(ssorted((a, b))) for a, b in star.items()},
                   key=lambda p: (skey(p[0]), skey(p[1])))
    for (a, _), (c, _) in itertools.combinations(pairs, 2):
        b, d = star[a], star[c]
        rels = [r for r in ((a, c), (a, d), (b, c), (b, d)) if r in strict]
        if len(rels) > 1:
            raise NestingViolationError(
                "more than one nesting relation between two hyperplanes",
                pair=((a, b), (c, d)), relations=rels)

    for h in ids:
        if (h, star[h]) in strict or (star[h], h) in strict:
            raise ComparableComplementsError(
                f"halfspace {h!r} comparable with its complement", halfspace=h)

    return HalfspaceSystem(
        halfspaces=tuple(ssorted(ids)),
        star_pairs=tuple(pairs),
        leq=frozenset(strict),
    )


def load_system(data: dict) -> HalfspaceSystem:
    if not isinstance(data, dict) or "halfspaces" not in data:
        raise InputFormatError("pocset JSON needs 'halfspaces', 'star', 'leq'")
    ids = parse_list(data["halfspaces"], "'halfspaces'")
    star, leq = ([tuple(parse_list(p, f"a '{key}' pair", 2))
                  for p in parse_list(data.get(key, []), f"'{key}'")]
                 for key in ("star", "leq"))
    check_ids(ids + [h for p in star + leq for h in p], "halfspace ids")
    return build_system(ids, star, leq)


def dump_system(s: HalfspaceSystem) -> dict:
    return {
        "halfspaces": list(s.halfspaces),
        "star": [list(p) for p in s.star_pairs],
        "leq": sorted(([a, b] for a, b in s.leq),
                      key=lambda p: (skey(p[0]), skey(p[1]))),
    }


def transversal(s: HalfspaceSystem, h, k) -> bool:
    """True iff none of the four nesting relations holds between the
    hyperplanes of h and k."""
    if s.hyperplane_of[h] == s.hyperplane_of[k]:
        raise SameHyperplaneError("halfspaces lie in the same hyperplane pair",
                                  pair=(h, k))
    hs, ks = s.star[h], s.star[k]
    return not (s.lt(h, k) or s.lt(h, ks) or s.lt(hs, k) or s.lt(hs, ks)
                or s.lt(k, h) or s.lt(ks, h) or s.lt(k, hs) or s.lt(ks, hs))


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


def is_vertex(s: HalfspaceSystem, o: Orientation) -> VertexResult:
    """Consistency of an orientation: no pair with choice(h) <= choice(k)*.
    (The <=-form of the vertex condition, which the flip lemmas use.)"""
    if len(o.choices) != len(s.hyperplanes):
        raise PartialOrientationError(
            f"orientation fixes {len(o.choices)} of {len(s.hyperplanes)} hyperplanes")
    chosen = o.choices
    for i, a in enumerate(chosen):
        if s.hyperplane_of.get(a) != i:
            raise PartialOrientationError(
                f"choice {a!r} does not belong to hyperplane {i}")
    for i, j in itertools.combinations(range(len(chosen)), 2):
        a, b = chosen[i], chosen[j]
        if s.lt(a, s.star[b]):
            return VertexResult(ok=False, witness=(a, b))
        if s.lt(b, s.star[a]):
            return VertexResult(ok=False, witness=(b, a))
    return VertexResult(ok=True)


def seed_vertex(s: HalfspaceSystem) -> Orientation:
    """Some consistent orientation, from the 2-SAT instance: one halfspace
    per pair, and choosing a forbids choosing b whenever a <= b*."""
    n = len(s.hyperplanes)

    def as_literal(h):
        i = s.hyperplane_of[h]
        return 2 * i if s.hyperplanes[i][0] == h else 2 * i + 1

    sat = TwoSat(n)
    for a, b in s.leq:
        bs = s.star[b]
        if s.hyperplane_of[a] == s.hyperplane_of[bs]:
            continue
        # a <= (bs)* = b, i.e. choosing a and bs together is inconsistent
        sat.add_clause(as_literal(a) ^ 1, as_literal(bs) ^ 1)
    assignment = sat.solve()
    if assignment is None:
        raise UnsatisfiableError("no consistent orientation exists")
    choices = tuple(s.hyperplanes[i][0] if assignment[i] else s.hyperplanes[i][1]
                    for i in range(n))
    return Orientation(choices=choices)


def minimal_halfspaces(s: HalfspaceSystem, v: Orientation) -> tuple:
    """Chosen halfspaces with no chosen halfspace strictly below them."""
    res = is_vertex(s, v)
    if not res.ok:
        raise NotAVertexError("orientation is not a vertex", witness=res.witness)
    return _minimal_unchecked(s, v)


def _minimal_unchecked(s: HalfspaceSystem, v: Orientation) -> tuple:
    chosen = set(v.choices)
    return tuple(h for h in v.choices if not (s.strictly_below[h] & chosen))


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
    behind every vertex id and the hyperplane family behind every cube."""

    system: HalfspaceSystem
    seed: Orientation
    complex: CubeComplex
    orientations: tuple          # vertex id -> Orientation
    cube_families: dict          # canonical cube tuple -> tuple of hyperplane idxs

    @cached_property
    def vertex_of(self) -> dict:
        return {o: i for i, o in enumerate(self.orientations)}

    def bitmap(self, vertex_id: int) -> str:
        """Per-hyperplane bits, 1 where the orientation differs from seed."""
        o = self.orientations[vertex_id]
        return "".join(
            "1" if o.choices[i] != self.seed.choices[i] else "0"
            for i in range(len(self.system.hyperplanes)))


def dual_complex(s: HalfspaceSystem, seed: Orientation,
                 cap: int = 100_000) -> DualComplex:
    """BFS over flips from the seed; cubes, edges included, are assembled
    from families of pairwise-transversal minimal halfspaces. Every
    hyperplane of a cube is minimal at each of its corners, and exactly one
    corner chooses the first halfspace of each of them, so a cube is
    assembled once: at that corner, from the minimal hyperplanes whose
    first halfspace it chooses."""
    res = is_vertex(s, seed)
    if not res.ok:
        raise NotAVertexError("seed orientation is not a vertex", witness=res.witness)
    order: list[Orientation] = [seed]
    ids: dict[Orientation, int] = {seed: 0}
    minimal_at: list[list[int]] = []  # per vertex id: sorted minimal hyperplanes
    for v in order:  # order grows while it is read: a breadth-first queue
        minimal = sorted(s.hyperplane_of[h] for h in _minimal_unchecked(s, v))
        minimal_at.append(minimal)
        for i in minimal:
            w = _flip_at(s, v, (i,))
            if w not in ids:
                if len(order) >= cap:
                    raise CapExceededError(
                        f"dual component exceeds cap {cap}", cap=cap)
                ids[w] = len(order)
                order.append(w)

    cubes_by_dim: dict[int, set] = {}
    families: dict[tuple, tuple] = {}
    for v, minimal in zip(order, minimal_at):
        first = [i for i in minimal if v.choices[i] == s.hyperplanes[i][0]]
        for fam in cliques(s.transversal_adjacency, first):
            if not fam:
                continue
            corners = tuple(
                ids[_flip_at(s, v, [i for pos, i in enumerate(fam)
                                    if (bits >> pos) & 1])]
                for bits in range(1 << len(fam)))
            canon = canonical_cube(corners)
            cubes_by_dim.setdefault(len(fam), set()).add(canon)
            families[canon] = fam

    complex_ = build_complex(list(range(len(order))),
                             {k: sorted(v) for k, v in cubes_by_dim.items()})
    return DualComplex(system=s, seed=seed, complex=complex_,
                       orientations=tuple(order), cube_families=families)


def _flip_at(s: HalfspaceSystem, v: Orientation, idxs) -> Orientation:
    """The orientation with the choices at the hyperplanes ``idxs``
    replaced by their complements."""
    choices = list(v.choices)
    for i in idxs:
        choices[i] = s.star[choices[i]]
    return Orientation(choices=tuple(choices))


def maximal_cubes(dual: DualComplex) -> list[tuple]:
    """Maximal cubes of the component with their defining hyperplane
    families; verifies the cube <-> maximal-transversal-family bijection."""
    s = dual.system
    x = dual.complex
    face_of_bigger: set[tuple] = set()
    for c in x.cubes:
        if cube_dim(c) >= 2:
            for f in cube_faces(c):
                face_of_bigger.add(canonical_cube(f))
    result = []
    for c in sorted(x.cubes, key=lambda t: (len(t), t)):
        if c not in face_of_bigger:
            result.append((c, dual.cube_families[c]))

    fams = [fam for _, fam in result]
    if len(set(fams)) != len(fams):
        raise CubicalError("two maximal cubes share a hyperplane family")
    cross = s.transversal_adjacency
    everything = frozenset(cross)
    # a family is maximal when no hyperplane is transversal to all of it
    maximal_fams = {fam for fam in cliques(cross, sorted(cross))
                    if not everything.intersection(*(cross[i] for i in fam))}
    if everything and maximal_fams != set(fams):
        raise CubicalError(
            "maximal cubes do not match maximal transversal families",
            cubes=sorted(fams), families=sorted(maximal_fams))
    return result
