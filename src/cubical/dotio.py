"""DOT (graphviz) emission for 1-skeletons, crossing graphs, Cayley balls,
and link graphs. Output is deterministic: nodes and edges are sorted, or
listed in the order of the positions given."""

from __future__ import annotations


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


def simple_graph_dot(labels, nbrs, name: str = "g") -> str:
    """The graph on positions whose vertex i has the neighbours ``nbrs[i]``,
    in increasing order, and the name ``labels[i]``: the nodes in position
    order, then each edge once, from its earlier end. Nothing is sorted."""
    lines = [f"graph {name} {{"] + [f"  {_q(v)};" for v in labels]
    lines += [f"  {_q(v)} -- {_q(labels[j])};"
              for i, v in enumerate(labels) for j in nbrs[i] if j > i]
    lines.append("}")
    return "\n".join(lines) + "\n"
