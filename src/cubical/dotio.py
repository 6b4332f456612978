"""DOT (graphviz) emission for 1-skeletons, crossing graphs, Cayley balls,
and link graphs. Output is deterministic: nodes and edges are sorted."""

from __future__ import annotations

from .util import skey


def _color(i: int) -> str:
    # golden-angle hue walk keeps neighboring classes distinguishable
    hue = (i * 0.61803398875) % 1.0
    return f"{hue:.4f} 0.75 0.85"


def _q(x) -> str:
    return '"' + str(x).replace('"', '\\"') + '"'


def skeleton_dot(x, hyperplane_list=None) -> str:
    """1-skeleton; with hyperplanes given, one edge color per class."""
    edge_color = {}
    if hyperplane_list:
        for h in hyperplane_list:
            for e in h.edges:
                edge_color[e] = _color(h.index)
    lines = ["graph skeleton {", "  node [shape=point];"]
    for v in x.labels:
        lines.append(f"  {_q(v)};")
    for e in sorted(x.edges):
        a, b = x.named(e)
        attr = f' [color="{edge_color[e]}"]' if e in edge_color else ""
        lines.append(f"  {_q(a)} -- {_q(b)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def crossing_graph_dot(pairs, count: int) -> str:
    """Hyperplane-crossing graph: one node per hyperplane index."""
    lines = ["graph crossings {"]
    for i in range(count):
        lines.append(f"  {i} [label={_q(f'H{i}')}];")
    for i, j in sorted(pairs):
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _word_label(w) -> str:
    return "e" if not w else "".join(str(s + 1) for s in w)


def ball_dot(ball, wall_list=None, root=None) -> str:
    """Cayley ball; edges colored per wall, vertices two-colored by a root."""
    wall_of = {}
    if wall_list:
        for i, wall in enumerate(wall_list):
            for e in wall.edges:
                wall_of[e] = i
    lines = ["graph cayley {"]
    for w in ball.elements:
        fill = ""
        if root is not None:
            fill = ', style=filled, fillcolor="{}"'.format(
                "lightblue" if w in root.side else "lightsalmon")
        lines.append(f"  {_q(_word_label(w))} [label={_q(_word_label(w))}{fill}];")
    for u, v, _s in ball.edges:
        attr = ""
        if (u, v) in wall_of:
            attr = f' [color="{_color(wall_of[(u, v)])}"]'
        lines.append(f"  {_q(_word_label(u))} -- {_q(_word_label(v))}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def simple_graph_dot(adjacency: dict, name: str = "g") -> str:
    """Each edge once, from its earlier end in node order."""
    lines = [f"graph {name} {{"]
    nodes = sorted(adjacency, key=skey)
    at = {v: i for i, v in enumerate(nodes)}
    for v in nodes:
        lines.append(f"  {_q(v)};")
    for i, v in enumerate(nodes):
        for w in sorted(adjacency[v], key=skey):
            if at[w] > i:
                lines.append(f"  {_q(v)} -- {_q(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
