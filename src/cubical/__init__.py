"""Exact combinatorics of CAT(0) cube complexes.

Four layers: cubical complexes with a decidable CAT(0) certificate,
abstract halfspace systems and their dual complexes, Coxeter groups with
walls and cubulation, and the BHV space of phylogenetic trees.
"""

from .complexes import (
    Cat0Result,
    CubeComplex,
    FlagResult,
    HalfspaceDecomposition,
    Hyperplane,
    SimplicialComplex,
    build_complex,
    build_simplicial,
    canonical_cube,
    dump_complex,
    halfspace_system_of,
    halfspaces_of,
    helly_check,
    hyperplanes,
    hyperplanes_cross,
    is_cat0,
    is_flag,
    is_locally_cat0,
    load_complex,
    median,
    vertex_link,
)
from .coxeter import (
    CayleyBall,
    CoxeterSystem,
    Cubulation,
    EndsReport,
    Root,
    TruncatedHalfspaces,
    Wall,
    cayley_ball,
    crossing_parity,
    cubulate,
    distance,
    distances_differ_by_one,
    dump_matrix,
    ends_profile,
    halfspace,
    halfspace_system,
    load_matrix,
    parse_system,
    reduce_word,
    walls,
    word_length,
    words_equal,
)
from .pocsets import (
    DualComplex,
    HalfspaceSystem,
    Orientation,
    build_system,
    dual_complex,
    dump_system,
    flip,
    is_vertex,
    load_system,
    maximal_cubes,
    minimal_halfspaces,
    seed_vertex,
    transversal,
)
from .treespace import (
    DistanceResult,
    Orthant,
    PhyloTree,
    cone_distance,
    count_binary,
    dump_orthant,
    dump_tree,
    enumerate_topologies,
    from_orthant,
    link_of_origin,
    load_orthant,
    make_orthant,
    to_orthant,
    treespace_complex,
    validate_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
