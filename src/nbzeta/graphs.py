"""Multigraphs as involution-paired directed edge lists.

A graph is (vertex_count, tails, heads, involution) where the involution
pairs each directed edge with its opposite.  Fixed points of the involution
are half-loops (tail == head, degree contribution 1); a self-loop whose two
orientations are distinct is a whole-loop (degree contribution 2).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import IndexOutOfRange, InvalidInvolution, ParseError

FORMAT_HEADER = "nbgraph v1"


@dataclass(frozen=True)
class Graph:
    """Immutable multigraph; construct through build_graph."""

    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray
    involution: np.ndarray

    @property
    def directed_edge_count(self):
        return len(self.tails)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
            and np.array_equal(self.involution, other.involution)
        )


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph without an involution (for line graphs)."""

    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray

    @property
    def directed_edge_count(self):
        return len(self.tails)


@dataclass(frozen=True)
class GraphCounts:
    vertices: int
    undirected_edges: int
    half_loops: int
    pairs: int
    euler_characteristic: int


def _as_index_array(seq, name, upper):
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= upper):
        raise IndexOutOfRange(f"{name} index outside [0, {upper})")
    return arr


def build_graph(vertex_count, directed_edges, involution):
    """Validate and freeze a Graph.

    directed_edges is a sequence of (tail, head); involution maps each
    directed edge index to its opposite edge index.
    """
    if vertex_count < 0:
        raise IndexOutOfRange("vertex_count must be nonnegative")
    edges = list(directed_edges)
    if len(edges) != len(involution):
        raise InvalidInvolution("involution length differs from edge count")
    m = len(edges)
    tails = _as_index_array([e[0] for e in edges], "tail", vertex_count)
    heads = _as_index_array([e[1] for e in edges], "head", vertex_count)
    inv = _as_index_array(involution, "involution", m)
    if m:
        if not np.array_equal(inv[inv], np.arange(m)):
            raise InvalidInvolution("involution is not an involution")
        if not np.array_equal(tails[inv], heads):
            raise InvalidInvolution("tail of opposite edge must equal head")
    g = Graph(int(vertex_count), tails, heads, inv)
    for arr in (g.tails, g.heads, g.involution):
        arr.setflags(write=False)
    return g


def graph_counts(g):
    m = g.directed_edge_count
    half = int(np.sum(g.involution == np.arange(m))) if m else 0
    pairs = (m - half) // 2
    edges = pairs + half
    return GraphCounts(
        vertices=g.vertex_count,
        undirected_edges=edges,
        half_loops=half,
        pairs=pairs,
        euler_characteristic=g.vertex_count - edges,
    )


def degrees(g):
    """Vertex degrees: half-loops add 1, whole-loops add 2."""
    return np.bincount(g.tails, minlength=g.vertex_count).astype(np.int64)


def regularity(g):
    """Common degree d, or None if the graph is not regular or is empty."""
    if g.vertex_count == 0:
        return None
    deg = degrees(g)
    d = int(deg[0])
    return d if bool(np.all(deg == d)) else None


def adjacency_matrix(g):
    """Dense integer adjacency; entry (v, w) counts directed edges v -> w."""
    n = g.vertex_count
    A = np.zeros((n, n), dtype=np.int64)
    np.add.at(A, (g.tails, g.heads), 1)
    return A


def adjacency_sparse(g, dtype=float):
    """CSR adjacency for large graphs (float data for eigensolvers, int64
    for exact products); duplicate directed edges sum."""
    n = g.vertex_count
    m = g.directed_edge_count
    return sp.csr_matrix(
        (np.ones(m, dtype=dtype), (g.tails, g.heads)), shape=(n, n)
    )


def directed_line_graph(g):
    """Vertices are directed edges of g; (e1, e2) present iff the walk
    e1 then e2 is non-backtracking: head(e1) == tail(e2) and e2 != inv(e1)."""
    m = g.directed_edge_count
    by_tail = [[] for _ in range(g.vertex_count)]
    for e in range(m):
        by_tail[g.tails[e]].append(e)
    tails, heads = [], []
    inv = g.involution
    for e1 in range(m):
        banned = inv[e1]
        for e2 in by_tail[g.heads[e1]]:
            if e2 != banned:
                tails.append(e1)
                heads.append(e2)
    return DirectedGraph(
        m, np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
    )


def hashimoto_matrix(g):
    """Dense 0/1 adjacency matrix of the directed line graph."""
    lg = directed_line_graph(g)
    m = g.directed_edge_count
    H = np.zeros((m, m), dtype=np.int64)
    H[lg.tails, lg.heads] = 1
    return H


def hashimoto_sparse(g):
    lg = directed_line_graph(g)
    m = g.directed_edge_count
    data = np.ones(lg.directed_edge_count, dtype=np.int64)
    return sp.csr_matrix((data, (lg.tails, lg.heads)), shape=(m, m))


def serialize_graph(g):
    """Text form, format "nbgraph v1" (one directed edge per line)."""
    lines = [FORMAT_HEADER, f"{g.vertex_count} {g.directed_edge_count}"]
    for i in range(g.directed_edge_count):
        lines.append(f"{g.tails[i]} {g.heads[i]} {g.involution[i]}")
    return "\n".join(lines) + "\n"


def parse_graph(text):
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing size line", line=2)
    parts = lines[1].split()
    if len(parts) != 2:
        raise ParseError("size line needs <vertex_count> <directed_edge_count>", line=2)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("size line must hold two integers", line=2)
    if len(lines) < 2 + m:
        raise ParseError(f"expected {m} edge lines", line=len(lines) + 1)
    edges, inv = [], []
    for i in range(m):
        lineno = 3 + i
        parts = lines[2 + i].split()
        if len(parts) != 3:
            raise ParseError("edge line needs <tail> <head> <involution>", line=lineno)
        try:
            t, h, io = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("edge line must hold three integers", line=lineno)
        edges.append((t, h))
        inv.append(io)
    for extra in range(2 + m, len(lines)):
        if lines[extra].strip():
            raise ParseError("trailing content after edge lines", line=extra + 1)
    try:
        return build_graph(n, edges, inv)
    except (InvalidInvolution, IndexOutOfRange) as exc:
        raise ParseError(str(exc), line=3) from exc


def complete_graph(n):
    """K_n with both orientations of each of the n(n-1)/2 edges."""
    edges, inv = [], []
    for i in range(n):
        for j in range(i + 1, n):
            k = len(edges)
            edges.append((i, j))
            edges.append((j, i))
            inv.extend([k + 1, k])
    return build_graph(n, edges, inv)


def petersen_graph():
    """The Petersen graph: outer C5, inner pentagram, spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    edges, inv = [], []
    for a, b in outer + inner + spokes:
        k = len(edges)
        edges.append((a, b))
        edges.append((b, a))
        inv.extend([k + 1, k])
    return build_graph(10, edges, inv)
