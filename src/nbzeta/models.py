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
    return graph_from_pairs(n, np.tile(np.arange(n), len(perms)), np.concatenate(perms))


# each model's rule on (n, d) past n >= 1, and what it asks for
_RULES = {
    "perm": (lambda n, d: d % 2 == 0 and d >= 4, "even d >= 4"),
    "cycle": (lambda n, d: d % 2 == 0 and d >= 4 and n >= 2, "even d >= 4 and n >= 2"),
    "match": (lambda n, d: d >= 3 and n % 2 == 0, "d >= 3 and even n"),
    "cover": (lambda n, d: True, ""),  # the base graph fixes d
}


def check_model(model, n, d, base=None):
    """Raise InvalidParams unless `model` draws d-regular graphs from n
    (vertices, or sheets of a cover): a known model, its rule on (n, d),
    and a base graph for a cover only, d-regular with at least one edge,
    so that every cover of it is d-regular."""
    if model not in _RULES:
        raise InvalidParams(f"unknown model {model!r}")
    if n < 1:
        raise InvalidParams("n must be >= 1")
    rule, needs = _RULES[model]
    if not rule(n, d):
        raise InvalidParams(f"{model} model needs {needs}")
    degree = None if base is None else regularity(base)
    if model != "cover":
        if base is not None:
            raise InvalidParams(f"{model} model takes no base graph")
    elif base is None:
        raise InvalidParams("cover model needs a base graph")
    elif base.directed_edge_count == 0:
        raise InvalidParams("cover base graph has no edges")
    elif degree is None:
        raise InvalidParams("cover base graph is not regular")
    elif degree != d:
        raise InvalidParams(f"cover base graph is {degree}-regular but d={d}")


def sample_permutation_model(n, d, seed):
    """d-regular graph on n vertices from d/2 uniform permutations."""
    check_model("perm", n, d)
    stream = SeedStream(seed)
    perms = [stream.permutation(n) for _ in range(d // 2)]
    return _permutations_to_graph(n, perms)


def sample_single_cycle_model(n, d, seed):
    """Like the permutation model but every permutation is one n-cycle."""
    check_model("cycle", n, d)
    stream = SeedStream(seed)
    perms = [stream.single_cycle(n) for _ in range(d // 2)]
    return _permutations_to_graph(n, perms)


def sample_matching_model(n, d, seed):
    """d-regular graph on n vertices from d uniform perfect matchings.

    Odd n has no perfect matching; that case is served by sample_cover
    over a bouquet of d half-loops.
    """
    check_model("match", n, d)
    stream = SeedStream(seed)
    mates = np.stack([stream.perfect_matching(n) for _ in range(d)])
    i = np.broadcast_to(np.arange(n), mates.shape)
    keep = i < mates
    return graph_from_pairs(n, i[keep], mates[keep])


def build_bouquet(whole_loops, half_loops):
    """One vertex with the stated loops; degree 2*whole + half."""
    loops = np.zeros(whole_loops, dtype=np.int64)
    return graph_from_pairs(1, loops, loops, np.zeros(half_loops, dtype=np.int64))


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
