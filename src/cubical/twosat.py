"""2-SAT via strongly connected components of the implication graph.

Literals are ints: variable v has positive literal 2*v and negative 2*v+1.
"""

from __future__ import annotations


def neg(lit: int) -> int:
    return lit ^ 1


class TwoSat:
    def __init__(self, n_vars: int):
        self.n = n_vars
        self.adj: list[list[int]] = [[] for _ in range(2 * n_vars)]

    def add_clause(self, a: int, b: int) -> None:
        """Require a OR b."""
        self.adj[neg(a)].append(b)
        self.adj[neg(b)].append(a)

    def _tarjan(self) -> list[int]:
        n = 2 * self.n
        index = [-1] * n
        low = [0] * n
        comp = [-1] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        ncomp = 0
        for root in range(n):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for i in range(pi, len(self.adj[v])):
                    w = self.adj[v][i]
                    if index[w] == -1:
                        work.append((v, i + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        return comp

    def solve(self) -> list[bool] | None:
        """Satisfying assignment, or None. Deterministic for a fixed input."""
        comp = self._tarjan()
        out = []
        for v in range(self.n):
            if comp[2 * v] == comp[2 * v + 1]:
                return None
            # Tarjan numbers components in reverse topological order, so the
            # literal with the smaller component id is implied later and safe
            # to set true.
            out.append(comp[2 * v] < comp[2 * v + 1])
        return out
