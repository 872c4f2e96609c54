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
class GraphCounts:
    vertices: int
    undirected_edges: int
    half_loops: int
    pairs: int
    euler_characteristic: int


def _check_range(arr, name, upper):
    if arr.size and (arr.min() < 0 or arr.max() >= upper):
        raise IndexOutOfRange(f"{name} index outside [0, {upper})")


def build_graph(vertex_count, directed_edges, involution):
    """Validate and freeze a Graph.

    directed_edges is m pairs (tail, head), a sequence or an (m, 2) array;
    involution maps each directed edge index to its opposite edge index.
    The Graph holds its own C-contiguous int64 copies.
    """
    if vertex_count < 0:
        raise IndexOutOfRange("vertex_count must be nonnegative")
    edges = np.asarray(directed_edges, dtype=np.int64)
    if edges.shape == (0,):
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("directed_edges must be m (tail, head) pairs")
    m = len(edges)
    if m != len(involution):
        raise InvalidInvolution("involution length differs from edge count")
    tails = edges[:, 0].copy()
    heads = edges[:, 1].copy()
    inv = np.array(involution, dtype=np.int64).reshape(-1)
    _check_range(tails, "tail", vertex_count)
    _check_range(heads, "head", vertex_count)
    _check_range(inv, "involution", m)
    if m:
        if not np.array_equal(inv[inv], np.arange(m)):
            raise InvalidInvolution("involution is not an involution")
        if not np.array_equal(tails[inv], heads):
            raise InvalidInvolution("tail of opposite edge must equal head")
    for arr in (tails, heads, inv):
        arr.setflags(write=False)
    return Graph(int(vertex_count), tails, heads, inv)


def graph_from_pairs(vertex_count, a, b, half_loops=()):
    """Graph with one undirected edge {a[k], b[k]} per k, then one half-loop
    at each vertex of half_loops.

    Directed edge 2k is a[k] -> b[k] and 2k+1 the way back; the half-loops
    follow the pairs, each its own opposite.
    """
    half = np.asarray(half_loops, dtype=np.int64)
    p = len(a)
    if len(b) != p:
        raise ValueError("a and b must have the same length")
    edges = np.empty((2 * p + len(half), 2), dtype=np.int64)
    edges[0:2 * p:2, 0] = edges[1:2 * p:2, 1] = a
    edges[0:2 * p:2, 1] = edges[1:2 * p:2, 0] = b
    edges[2 * p:] = half[:, None]
    inv = np.arange(len(edges), dtype=np.int64)
    inv[: 2 * p] ^= 1
    return build_graph(vertex_count, edges, inv)


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


def _components(n, tails, heads):
    """(count, labels) of the connected components of the graph on n
    vertices linking each tails[k] with heads[k]."""
    from scipy.sparse.csgraph import connected_components

    links = sp.coo_matrix((np.ones(len(tails), dtype=bool), (tails, heads)), shape=(n, n))
    return connected_components(links, directed=False)


def components(g):
    """(count, labels) of g's connected components, labels[v] in 0..count-1."""
    return _components(g.vertex_count, g.tails, g.heads)


def component_counts(g):
    """(components, bipartite components) of g.

    Its bipartite double cover has vertex (v, s) at v + s*n and lifts each
    directed edge t -> h to (t, 0)-(h, 1); the opposite edge h -> t lifts
    to (h, 0)-(t, 1).  A bipartite component lifts to two components, with
    (v, 0) and (v, 1) in different ones; any other component lifts to one,
    since an odd closed walk, a loop included, joins (v, 0) to (v, 1).  So
    the cover has components plus bipartite components in all.  An
    isolated vertex is a bipartite component.
    """
    n = g.vertex_count
    count, labels = _components(2 * n, g.tails, g.heads + n)
    joined = labels[:n][labels[:n] == labels[n:]]
    bipartite = (count - len(np.unique(joined))) // 2
    return count - bipartite, bipartite


def directed_line_graph(g):
    """(tails, heads) of the directed line graph, whose vertices are the
    directed edges of g: (e1, e2) is an edge iff the walk e1 then e2 is
    non-backtracking, head(e1) == tail(e2) and e2 != inv(e1)."""
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
    return np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)


def hashimoto_matrix(g):
    """Dense 0/1 adjacency matrix of the directed line graph."""
    tails, heads = directed_line_graph(g)
    m = g.directed_edge_count
    H = np.zeros((m, m), dtype=np.int64)
    H[tails, heads] = 1
    return H


def hashimoto_sparse(g):
    tails, heads = directed_line_graph(g)
    m = g.directed_edge_count
    data = np.ones(len(tails), dtype=np.int64)
    return sp.csr_matrix((data, (tails, heads)), shape=(m, m))


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
    if n < 0 or m < 0:
        raise ParseError("size line counts must be nonnegative", line=2)
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
    return graph_from_pairs(n, *np.triu_indices(n, k=1))


def petersen_graph():
    """The Petersen graph: outer C5, inner pentagram, spokes."""
    i = np.arange(5)
    return graph_from_pairs(
        10,
        np.concatenate([i, 5 + i, i]),
        np.concatenate([(i + 1) % 5, 5 + (i + 2) % 5, 5 + i]),
    )
