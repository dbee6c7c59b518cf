"""Reference answers that share no code with the solvers they check.

`reference_edp` reads the instance text itself and decides edge-disjoint
paths by a pruned search: non-terminal vertices of degree at most one are
dropped first, a branch stops as soon as some pending pair is disconnected
in the residual graph, and the last pair only needs connectivity.  The
uncapped `brute_force_edp` agrees with it but took 11.6 s on one
bounded-tcw n=200 NO instance on a 2-core x86 machine, too slow to check
every verdict of a run; `selftest.py` pins the agreement on small
instances.
"""

from __future__ import annotations


def read_instance(text: str) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Edges and pairs, in file order, from the instance text format."""
    edges: list[tuple[int, int]] = []
    pairs: list[tuple[int, int]] = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "e":
            edges.append((int(fields[1]), int(fields[2])))
        elif fields[0] == "t":
            pairs.append((int(fields[1]), int(fields[2])))
    return edges, pairs


def reference_edp(text: str) -> bool:
    """True when every pair of the instance can be routed on pairwise
    edge-disjoint paths."""
    edges, pairs = read_instance(text)
    if not pairs:
        return True
    terminals = {x for pair in pairs for x in pair}
    adj: dict[int, list[tuple[int, int]]] = {x: [] for x in terminals}
    for eid, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))

    # no simple path between terminals passes a non-terminal of degree <= 1
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    dropped: set[int] = set()
    dead_edges: set[int] = set()
    todo = [v for v in adj if degree[v] <= 1 and v not in terminals]
    while todo:
        v = todo.pop()
        if v in dropped:
            continue
        dropped.add(v)
        for eid, w in adj[v]:
            if eid in dead_edges:
                continue
            dead_edges.add(eid)
            degree[w] -= 1
            if degree[w] <= 1 and w not in terminals and w not in dropped:
                todo.append(w)
    adj = {v: [(e, w) for e, w in nbrs if e not in dead_edges] for v, nbrs in adj.items() if v not in dropped}
    used: set[int] = set()

    def connected(a: int, b: int) -> bool:
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for e, y in adj[x]:
                if e not in used and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def simple_paths(a: int, b: int):
        """Edge lists of the simple a-b paths avoiding used edges."""
        visited = {a}
        path_edges: list[int] = []
        at = [a]
        frontier = [iter(adj[a])]
        while frontier:
            for e, w in frontier[-1]:
                if e in used or w in visited:
                    continue
                if w == b:
                    yield path_edges + [e]
                    continue
                visited.add(w)
                path_edges.append(e)
                at.append(w)
                frontier.append(iter(adj[w]))
                break
            else:
                frontier.pop()
                visited.discard(at.pop())
                if path_edges:
                    path_edges.pop()

    def place(i: int) -> bool:
        if not all(connected(a, b) for a, b in pairs[i:]):
            return False
        if i == len(pairs) - 1:
            return True
        for route in simple_paths(*pairs[i]):
            used.update(route)
            found = place(i + 1)
            used.difference_update(route)
            if found:
                return True
        return False

    return place(0)
