"""Multigraph and instance model for edge-disjoint path problems.

Vertices are positive integers.  Parallel edges are first-class: every edge
carries an integer edge id, and two edges between the same endpoints stay
distinguishable.  Self-loops are rejected everywhere.

A whole graph or instance is built by its constructor in one pass:
`MultiGraph(vertices, edges)` and `EDPInstance(graph, pairs)` check every
element once, with the checks and messages of `add_vertex`, `add_edge` and
`add_pair`, and take edges and pairs in ascending id order, so incidence and
pair-index lists are appended to and the cached maxima are set once.  The
parser, induced subgraphs and relabelling build this way; the `add_*` calls
serve incremental edits.

Public operations never mutate their arguments; anything that rewrites a
graph or an instance works on a copy, so values can be shared freely
between threads.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping


class ParseError(ValueError):
    """Malformed instance or decomposition text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(ValueError):
    """An operation's structural precondition does not hold."""


def _max_below(ids: Collection[int], top: int) -> int:
    """The largest of `ids`, all of which lie below `top` (0 when empty):
    walk down from `top` for at most as many steps as there are ids, then
    fall back to a scan, so one call costs O(len(ids)) and a removal next
    to the maximum costs O(1)."""
    for x in range(top - 1, max(top - 1 - len(ids), 0), -1):
        if x in ids:
            return x
    return max(ids, default=0)


class MultiGraph:
    """Undirected multigraph with stable integer vertex and edge ids.

    The vertex set is the key set of the incidence map, which holds each
    vertex's edge ids in ascending order.  A fresh vertex or edge id is the
    largest current id plus one; the largest ids are cached, so no primitive
    sorts or takes a `max()` per call.
    """

    __slots__ = ("_edges", "_incidence", "_max_vertex", "_max_edge")

    def __init__(self, vertices: Iterable[int] = (), edges: Mapping[int, tuple[int, int]] | None = None):
        # one pass with the checks and messages of add_vertex and add_edge;
        # edges go in by ascending id, so each incidence list is appended to
        incidence: dict[int, list[int]] = {v: [] for v in vertices}  # ascending edge ids
        if incidence and min(incidence) <= 0:
            bad = next(v for v in incidence if v <= 0)
            raise StructureError(f"vertex ids must be positive, got {bad}")
        own: dict[int, tuple[int, int]] = {}
        for eid in sorted(edges or ()):
            u, v = edges[eid]
            if u == v:
                raise StructureError(f"self-loop on vertex {u}")
            if u not in incidence or v not in incidence:
                raise StructureError(f"edge {{{u},{v}}} references unknown vertex")
            own[eid] = (u, v) if u < v else (v, u)
            incidence[u].append(eid)
            incidence[v].append(eid)
        self._edges = own
        self._incidence = incidence
        self._max_vertex = max(incidence, default=0)
        self._max_edge = max(0, next(reversed(own), 0))  # ids ascend, the last is the largest

    # -- construction ------------------------------------------------

    def add_vertex(self, v: int) -> int:
        if v <= 0:
            raise StructureError(f"vertex ids must be positive, got {v}")
        if v not in self._incidence:
            self._incidence[v] = []
            if v > self._max_vertex:
                self._max_vertex = v
        return v

    def fresh_vertex(self) -> int:
        return self.add_vertex(self._max_vertex + 1)

    def add_edge(self, u: int, v: int, eid: int | None = None) -> int:
        if u == v:
            raise StructureError(f"self-loop on vertex {u}")
        if u not in self._incidence or v not in self._incidence:
            raise StructureError(f"edge {{{u},{v}}} references unknown vertex")
        if eid is None:
            eid = self._max_edge + 1
        elif eid in self._edges:
            raise StructureError(f"duplicate edge id {eid}")
        self._edges[eid] = (u, v) if u < v else (v, u)
        insort(self._incidence[u], eid)
        insort(self._incidence[v], eid)
        if eid > self._max_edge:
            self._max_edge = eid
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self._edges.pop(eid)
        self._incidence[u].remove(eid)
        self._incidence[v].remove(eid)
        if eid == self._max_edge:
            self._max_edge = _max_below(self._edges, eid)

    def remove_vertex(self, v: int) -> None:
        for eid in list(self._incidence[v]):
            self.remove_edge(eid)
        del self._incidence[v]
        if v == self._max_vertex:
            self._max_vertex = _max_below(self._incidence, v)

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g._edges = dict(self._edges)
        g._incidence = {v: list(inc) for v, inc in self._incidence.items()}
        g._max_vertex = self._max_vertex
        g._max_edge = self._max_edge
        return g

    # -- queries -----------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._incidence)

    @property
    def edges(self) -> Mapping[int, tuple[int, int]]:
        return dict(self._edges)

    @property
    def max_vertex(self) -> int:
        """The largest vertex id, 0 when there is none."""
        return self._max_vertex

    def num_vertices(self) -> int:
        return len(self._incidence)

    def num_edges(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._incidence

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self._edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise StructureError(f"vertex {v} is not an endpoint of edge {eid}")

    def incident(self, v: int) -> tuple[int, ...]:
        return tuple(self._incidence[v])

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self.other_end(e, v) for e in self._incidence[v])

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        key = (u, v) if u < v else (v, u)
        return tuple(e for e in self.incident(u) if self._edges[e] == key)

    def sorted_vertices(self) -> list[int]:
        return sorted(self._incidence)

    def sorted_edges(self) -> list[int]:
        return sorted(self._edges)

    def induced(self, keep: Iterable[int]) -> "MultiGraph":
        """Subgraph induced on `keep`, preserving vertex and edge ids."""
        keep = set(keep)
        edges = {eid: uv for eid, uv in self._edges.items() if uv[0] in keep and uv[1] in keep}
        return MultiGraph(sorted(keep.intersection(self._incidence)), edges)

    def components(self, avoid: Collection[int] = frozenset()) -> list[tuple[frozenset[int], list[int]]]:
        """The components of G minus `avoid`, ordered by smallest vertex, each
        with the edges that leave it (all of them end in `avoid`), in the
        order a depth-first walk that never enters `avoid` meets them."""
        edges = self._edges
        incidence = self._incidence
        seen: set[int] = set()
        out = []
        for start in sorted(incidence):
            if start in seen or start in avoid:
                continue
            seen.add(start)
            comp = [start]
            boundary = []
            stack = [start]
            while stack:
                x = stack.pop()
                for eid in incidence[x]:
                    y, z = edges[eid]
                    if y == x:
                        y = z
                    if y in seen:
                        continue
                    if y in avoid:
                        boundary.append(eid)
                    else:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            out.append((frozenset(comp), boundary))
        return out

    def connected_components(self) -> list[frozenset[int]]:
        return [comp for comp, _ in self.components()]

    def is_forest(self) -> bool:
        # a forest has one edge fewer than vertices per component; a
        # parallel edge counts as a cycle
        return len(self._edges) == len(self._incidence) - len(self.connected_components())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._incidence.keys() == other._incidence.keys() and self._edges == other._edges

    def __repr__(self) -> str:
        return f"MultiGraph(|V|={len(self._incidence)}, |E|={len(self._edges)})"


class EDPInstance:
    """A multigraph plus terminal pairs; the object every solver consumes.

    Pairs carry their own ids so that reductions may create two pairs with
    equal content without collapsing them.  A fresh pair id is the largest
    current id plus one (cached), and each vertex keeps the ascending ids of
    the pairs it belongs to.
    """

    __slots__ = ("graph", "_pairs", "_pairs_of", "_max_pair")

    def __init__(self, graph: MultiGraph | None = None, pairs: Mapping[int, frozenset[int]] | None = None):
        self.graph = graph if graph is not None else MultiGraph()
        # one pass with the checks and messages of add_pair; pairs go in by
        # ascending id, so each vertex's list is appended to
        vertices = self.graph._incidence
        own: dict[int, frozenset[int]] = {}
        pairs_of: dict[int, list[int]] = {}  # vertex -> ascending pair ids
        for pid in sorted(pairs or ()):
            a, b = pairs[pid]
            if b < a:
                a, b = b, a
            if a == b:
                raise StructureError(f"self-pair {{{a},{a}}}")
            if a not in vertices or b not in vertices:
                raise StructureError(f"pair {{{a},{b}}} references unknown vertex")
            own[pid] = frozenset((a, b))
            pairs_of.setdefault(a, []).append(pid)
            pairs_of.setdefault(b, []).append(pid)
        self._pairs = own
        self._pairs_of = pairs_of
        self._max_pair = max(0, next(reversed(own), 0))

    @property
    def pairs(self) -> Mapping[int, frozenset[int]]:
        return dict(self._pairs)

    @property
    def max_pair(self) -> int:
        """The largest pair id, 0 when there is none."""
        return self._max_pair

    def add_pair(self, a: int, b: int, pid: int | None = None) -> int:
        if a == b:
            raise StructureError(f"self-pair {{{a},{a}}}")
        if not (self.graph.has_vertex(a) and self.graph.has_vertex(b)):
            raise StructureError(f"pair {{{a},{b}}} references unknown vertex")
        if pid is None:
            pid = self._max_pair + 1
        elif pid in self._pairs:
            raise StructureError(f"duplicate pair id {pid}")
        self._pairs[pid] = frozenset((a, b))
        for v in (a, b):
            insort(self._pairs_of.setdefault(v, []), pid)
        if pid > self._max_pair:
            self._max_pair = pid
        return pid

    def remove_pair(self, pid: int) -> None:
        for v in self._pairs.pop(pid):
            at = self._pairs_of[v]
            at.remove(pid)
            if not at:
                del self._pairs_of[v]
        if pid == self._max_pair:
            self._max_pair = _max_below(self._pairs, pid)

    def pair(self, pid: int) -> frozenset[int]:
        return self._pairs[pid]

    def sorted_pairs(self) -> list[int]:
        return sorted(self._pairs)

    def pairs_at(self, v: int) -> tuple[int, ...]:
        return tuple(self._pairs_of.get(v, ()))

    def terminals(self) -> frozenset[int]:
        return frozenset(self._pairs_of)

    def copy(self) -> "EDPInstance":
        inst = EDPInstance(self.graph.copy())
        inst._pairs = dict(self._pairs)
        inst._pairs_of = {v: list(at) for v, at in self._pairs_of.items()}
        inst._max_pair = self._max_pair
        return inst

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EDPInstance):
            return NotImplemented
        return self.graph == other.graph and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"EDPInstance(|V|={self.graph.num_vertices()}, |E|={self.graph.num_edges()}, |P|={len(self._pairs)})"


# -- text formats ---------------------------------------------------------
#
# Instance format, read by `TextLines` like the decomposition format:
#   p edp <n> <m> <q>
#   e <u> <v>        (m lines, edge ids 1..m in file order)
#   t <a> <b>        (q lines, pair ids 1..q in file order)


def strict_int(token: str) -> int:
    """`token` as an integer when it is ASCII digits with an optional
    leading '-'; ValueError otherwise, where `int()` would also take a '+',
    '_' separators or non-ASCII digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_ints(tokens: Iterable[str], what: str, line: int | None = None) -> list[int]:
    """The tokens as integers by `strict_int`; a ParseError about the
    malformed `what` otherwise."""
    try:
        return [strict_int(x) for x in tokens]
    except ValueError:
        raise ParseError(f"malformed {what}", line) from None


class TextLines:
    """UTF-8 text of a line format: iterating gives each non-blank line's
    number, as `str.splitlines()` counts, and fields, cut at '#'.  Invalid
    UTF-8 is a ParseError on the line of the first bad byte.  `to_int` reads
    one field by the `strict_int` rule."""

    __slots__ = ("header_line", "to_int", "_lines")

    def __init__(self, text: str | bytes):
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                # the bytes before the bad one are valid; one more character puts it on its line
                line = len((text[: exc.start].decode("utf-8") + "x").splitlines())
                raise ParseError(f"invalid UTF-8 byte 0x{text[exc.start]:02x}", line) from None
        # on ASCII text without '+' or '_', int() takes exactly the tokens
        # strict_int takes, so the common case pays no per-token test
        self.to_int = int if text.isascii() and "_" not in text and "+" not in text else strict_int
        lines = text.splitlines()
        if "#" in text:
            lines = [raw.split("#", 1)[0] if "#" in raw else raw for raw in lines]
        self._lines = lines
        self.header_line: int | None = None

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        # C iterators alone: no Python frame per line, no fields list kept
        return filter(itemgetter(1), enumerate(map(str.split, self._lines), start=1))

    def echo(self, line: int) -> str:
        """Line `line` as messages quote it: cut at '#', stripped, quoted."""
        return repr(self._lines[line - 1].strip())

    def header(self, line: int, fields: list[str], name: str, count: int) -> list[int]:
        """The `count` counts of the header `<tag> <name> <counts>` on line
        `line`, once per text; each a non-negative integer."""
        if self.header_line is not None:
            raise ParseError("duplicate header", line)
        what = f"header {self.echo(line)}"
        values = parse_ints(fields[2:], what, line)
        if len(values) != count or fields[1] != name or min(values) < 0:
            raise ParseError(f"malformed {what}", line)
        self.header_line = line
        return values


_NOUNS = {"e": "edge", "t": "pair"}


def parse_instance(text: str | bytes) -> EDPInstance:
    """Parse the line format; every line is checked before the instance is
    built in one constructor call, so a bad line costs no work proportional
    to the header's n."""
    lines = TextLines(text)
    n = m = q = None
    edges: dict[int, tuple[int, int]] = {}
    pairs: dict[int, frozenset[int]] = {}
    seen_pair_contents: set[frozenset[int]] = set()
    to_int = lines.to_int
    for lineno, fields in lines:
        kind = fields[0]
        if kind == "e" or kind == "t":
            if n is None:
                raise ParseError(f"{_NOUNS[kind]} before header", lineno)
            try:
                _, u, v = fields
                u, v = to_int(u), to_int(v)
            except ValueError:
                raise ParseError(f"malformed {_NOUNS[kind]} line {lines.echo(lineno)}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range in {lines.echo(lineno)}", lineno)
            if u == v:
                raise ParseError(f"{'self-loop edge' if kind == 'e' else 'self-pair'} {{{u},{v}}}", lineno)
            if kind == "e":
                store, declared, value = edges, m, (u, v)
            else:
                value = frozenset((u, v))
                if value in seen_pair_contents:
                    raise ParseError(f"duplicated pair {{{min(u, v)},{max(u, v)}}}", lineno)
                seen_pair_contents.add(value)
                store, declared = pairs, q
            if len(store) == declared:
                raise ParseError(f"more {_NOUNS[kind]} lines than declared", lineno)
            store[len(store) + 1] = value
        elif kind == "p":
            n, m, q = lines.header(lineno, fields, "edp", 3)
        else:
            raise ParseError(f"unknown line {lines.echo(lineno)}", lineno)
    if n is None:
        raise ParseError("missing header")
    if len(edges) != m:
        raise ParseError(f"declared {m} edges, found {len(edges)}")
    if len(pairs) != q:
        raise ParseError(f"declared {q} pairs, found {len(pairs)}")
    return EDPInstance(MultiGraph(range(1, n + 1), edges), pairs)


def serialize_instance(inst: EDPInstance) -> str:
    """Inverse of parse_instance on instances with contiguous vertex ids 1..n.

    Instances with id gaps serialize with n = max id; the gap ids reappear
    as isolated vertices on reparse (see relabel_compact for exact output).
    """
    n = inst.graph.max_vertex
    lines = [f"p edp {n} {inst.graph.num_edges()} {len(inst.pairs)}"]
    for eid in inst.graph.sorted_edges():
        u, v = inst.graph.endpoints(eid)
        lines.append(f"e {u} {v}")
    for pid in inst.sorted_pairs():
        a, b = sorted(inst.pair(pid))
        lines.append(f"t {a} {b}")
    return "\n".join(lines) + "\n"


def relabel_compact(inst: EDPInstance) -> tuple[EDPInstance, dict[int, int]]:
    """Relabel vertices to 1..n (and edges/pairs to file order); returns the
    old->new vertex mapping."""
    g = inst.graph
    mapping = {v: i for i, v in enumerate(g.sorted_vertices(), start=1)}
    edges = {i: tuple(mapping[x] for x in g.endpoints(e)) for i, e in enumerate(g.sorted_edges(), start=1)}
    pairs = {i: frozenset(mapping[x] for x in inst.pair(p)) for i, p in enumerate(inst.sorted_pairs(), start=1)}
    return EDPInstance(MultiGraph(range(1, len(mapping) + 1), edges), pairs), mapping


# -- derived structures ----------------------------------------------------


def feedback_edge_set(g: MultiGraph) -> frozenset[int]:
    """Non-tree edges of a spanning forest built in edge-id order.

    The result is a minimum feedback edge set: |X| = |E| - |V| + #components,
    and every parallel copy beyond the first between two endpoints lands in X.
    """
    parent: dict[int, int] = {v: v for v in g._incidence}
    edges = g._edges
    extra = set()
    for eid in sorted(edges):
        u, v = edges[eid]
        # union-find roots of u and v, halving their paths
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            extra.add(eid)
        else:
            parent[u] = v
    return frozenset(extra)


def prune_leaves(g: MultiGraph, keep: Collection[int], once: bool = False) -> bool:
    """Remove from `g`, in place and repeatedly, every vertex outside `keep`
    with at most one distinct neighbour: a simple path enters and leaves an
    inner vertex through two distinct neighbours, so no path between kept
    vertices passes one.  Returns whether any vertex went; with `once`, stops
    after the first.

    Candidates come from a worklist: a min-heap seeded with every vertex, to
    which a removal returns only the sole neighbour, the one vertex whose
    test it changes.  A rejected vertex stays rejected until then, so the
    smallest qualifying vertex is always on the heap and vertices go in the
    order of an ascending rescan after every removal.  The test walks a
    vertex's incident edges and stops at the second distinct neighbour, so
    re-testing a hub after each of its leaves goes costs a few steps, not
    one per edge."""
    heap = g.sorted_vertices()  # a sorted list is a min-heap
    fired = False
    while heap:
        v = heappop(heap)
        if v in keep or not g.has_vertex(v):
            continue
        sole = None
        for eid in g._incidence[v]:
            w = g.other_end(eid, v)
            if sole is None:
                sole = w
            elif w != sole:
                break
        else:
            g.remove_vertex(v)
            if once:
                return True
            fired = True
            if sole is not None:
                heappush(heap, sole)
    return fired


def terminal_normalize(inst: EDPInstance) -> EDPInstance:
    """Attach a fresh leaf per terminal occurrence and move the pair onto the
    leaves.

    Afterwards every vertex occurs in at most one pair, terminals have degree
    one, and the two members of a pair are non-adjacent.  Leaves are added
    even for terminals that already look normalized; the answer is unchanged
    either way.
    """
    out = inst.copy()
    for pid in inst.sorted_pairs():
        a, b = sorted(inst.pair(pid))
        la = out.graph.fresh_vertex()
        out.graph.add_edge(a, la)
        lb = out.graph.fresh_vertex()
        out.graph.add_edge(b, lb)
        out.remove_pair(pid)
        out.add_pair(la, lb, pid)
    return out


def restrict_pairs(inst: EDPInstance, subset: Iterable[int]) -> dict[int, frozenset[int]]:
    """Pairs of the instance whose both members lie in `subset`."""
    keep = set(subset)
    unknown = keep.difference(inst.graph._incidence)
    if unknown:
        raise StructureError(f"subset contains non-vertices {sorted(unknown)}")
    return {pid: members for pid, members in inst._pairs.items() if members <= keep}


def induced_instance(inst: EDPInstance, subset: Iterable[int]) -> EDPInstance:
    """Instance induced on a vertex subset: induced subgraph plus the pairs
    fully inside, all ids preserved."""
    keep = set(subset)
    return EDPInstance(inst.graph.induced(keep), restrict_pairs(inst, keep))
