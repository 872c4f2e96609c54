"""Seeded samplers for random regular multigraphs and random covering maps.

Models:
  perm   d/2 uniform permutations; edge {i, pi(i)} per index (whole-loop on
         a fixed point).  Even d >= 4.
  cycle  like perm but each permutation is a uniform single n-cycle.
  match  d uniform perfect matchings; n even, d >= 3.
  cover  degree-n random cover of an arbitrary base graph: a uniform
         permutation per edge orientation, a uniform (near-)perfect
         matching per half-loop.

All samplers are pure functions of (params, seed) via SplitMix64 streams.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .graphs import Graph, build_graph, graph_from_pairs, regularity
from .rng import SeedStream


@dataclass(frozen=True)
class CoveringMap:
    """A degree-n covering: fibre maps from the total graph onto the base."""

    base: Graph
    total: Graph
    vertex_map: np.ndarray
    edge_map: np.ndarray
    degree: int


def _permutations_to_graph(n, perms):
    """Graph with one undirected edge {i, pi(i)} per permutation and index.

    Edge pair order is fixed: for permutation j and index i, directed edges
    2*(j*n+i) (i -> pi(i)) and 2*(j*n+i)+1 (back).  A fixed point becomes a
    whole-loop: its two orientations stay distinct.
    """
    heads = np.asarray(perms, dtype=np.int64).reshape(-1)
    return graph_from_pairs(n, np.tile(np.arange(n), len(perms)), heads)


def sample_permutation_model(n, d, seed):
    """d-regular graph on n vertices from d/2 uniform permutations."""
    if d % 2 != 0 or d < 4:
        raise InvalidParams("perm model needs even d >= 4")
    if n < 1:
        raise InvalidParams("perm model needs n >= 1")
    stream = SeedStream(seed)
    perms = [stream.permutation(n) for _ in range(d // 2)]
    return _permutations_to_graph(n, perms)


def sample_single_cycle_model(n, d, seed):
    """Like the permutation model but every permutation is one n-cycle."""
    if d % 2 != 0 or d < 4:
        raise InvalidParams("cycle model needs even d >= 4")
    if n < 2:
        raise InvalidParams("cycle model needs n >= 2")
    stream = SeedStream(seed)
    perms = [stream.single_cycle(n) for _ in range(d // 2)]
    return _permutations_to_graph(n, perms)


def sample_matching_model(n, d, seed):
    """d-regular graph on n vertices from d uniform perfect matchings.

    Odd n has no perfect matching; that case is served by sample_cover
    over a bouquet of d half-loops.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidParams("match model needs even n >= 2")
    if d < 3:
        raise InvalidParams("match model needs d >= 3")
    stream = SeedStream(seed)
    mates = np.array([stream.perfect_matching(n) for _ in range(d)], dtype=np.int64)
    i = np.broadcast_to(np.arange(n), mates.shape)
    keep = i < mates
    return graph_from_pairs(n, i[keep], mates[keep])


def build_bouquet(whole_loops, half_loops):
    """One vertex with the stated loops; degree 2*whole + half."""
    loops = np.zeros(whole_loops, dtype=np.int64)
    return graph_from_pairs(1, loops, loops, np.zeros(half_loops, dtype=np.int64))


def check_cover_base(base, d):
    """Raise InvalidParams unless base is d-regular with at least one edge:
    every cover of it is then d-regular."""
    if base.directed_edge_count == 0:
        raise InvalidParams("cover base graph has no edges")
    degree = regularity(base)
    if degree is None:
        raise InvalidParams("cover base graph is not regular")
    if degree != d:
        raise InvalidParams(f"cover base graph is {degree}-regular but d={d}")


def sample_cover(base, n, seed):
    """Uniform random degree-n cover of an arbitrary base graph.

    One orientation per non-loop pair gets a uniform permutation and its
    opposite the inverse; each half-loop gets a uniform perfect matching
    (n even) or an involution with one uniform fixed point (n odd, the
    fixed point lifting to a half-loop).

    Total vertex (v, sheet i) has index v*n + i; total directed edge
    (base edge e, sheet i) has index e*n + i, so fibres are contiguous.
    """
    if n < 1:
        raise InvalidParams("cover degree must be >= 1")
    stream = SeedStream(seed)
    m = base.directed_edge_count
    inv_b = base.involution
    sheets = np.arange(n, dtype=np.int64)

    # sigma[e, i]: sheet reached from sheet i along base edge e; the
    # opposite of a pair gets the inverse permutation
    sigma = np.empty((m, n), dtype=np.int64)
    for e in range(m):
        opp = int(inv_b[e])
        if opp < e:
            continue
        if opp == e:
            if n % 2 == 0:
                sigma[e] = stream.perfect_matching(n)
            else:
                sigma[e] = stream.near_perfect_matching(n)
        else:
            sigma[e] = stream.permutation(n)
            sigma[opp, sigma[e]] = sheets

    # (e, i) -> (inv(e), sigma[e, i]) serves pairs and half-loops alike: a
    # half-loop is its own opposite, and a fixed point lifts to itself
    tails = base.tails[:, None] * n + sheets
    heads = base.heads[:, None] * n + sigma
    inv = inv_b[:, None] * n + sigma
    total = build_graph(
        base.vertex_count * n,
        np.stack([tails.ravel(), heads.ravel()], axis=-1),
        inv.ravel(),
    )
    return CoveringMap(
        base=base,
        total=total,
        vertex_map=np.arange(base.vertex_count * n, dtype=np.int64) // n,
        edge_map=np.repeat(np.arange(m, dtype=np.int64), n),
        degree=n,
    )


def validate_cover(c):
    """Check the covering-map invariants; raises AssertionError on failure."""
    base, total = c.base, c.total
    n = c.degree
    vm, em = c.vertex_map, c.edge_map
    assert len(vm) == base.vertex_count * n
    assert len(em) == base.directed_edge_count * n
    # fibre sizes
    assert np.all(np.bincount(vm, minlength=base.vertex_count) == n)
    assert np.all(np.bincount(em, minlength=base.directed_edge_count) == n)
    # commutes with tails, heads, involution
    assert np.array_equal(vm[total.tails], base.tails[em])
    assert np.array_equal(vm[total.heads], base.heads[em])
    assert np.array_equal(em[total.involution], base.involution[em])
    # local isomorphism: out-edges at w map bijectively to out-edges at vm(w)
    for w in range(total.vertex_count):
        out_w = np.nonzero(total.tails == w)[0]
        base_out = np.nonzero(base.tails == vm[w])[0]
        assert sorted(em[out_w].tolist()) == sorted(base_out.tolist())
    return True
