import itertools
from pathlib import Path

import numpy as np
import pytest

from nbzeta import (
    build_bouquet,
    build_graph,
    complete_graph,
    hashimoto_matrix,
    petersen_graph,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
)

DATA_DIR = Path(__file__).parent / "data"


def k5_minus_edge_ring(blocks=4):
    """4-regular witness with eigenvalues strictly between 2*sqrt(3) and 4:
    a ring of K5-minus-an-edge blocks, consecutive blocks joined through
    their degree-3 vertices."""
    edges, inv = [], []

    def add(a, b):
        k = len(edges)
        edges.append((a, b))
        edges.append((b, a))
        inv.extend([k + 1, k])

    for blk in range(blocks):
        off = 5 * blk
        for i, j in itertools.combinations(range(5), 2):
            if (i, j) == (0, 1):
                continue
            add(off + i, off + j)
    for blk in range(blocks):
        add(5 * blk + 1, 5 * ((blk + 1) % blocks) + 0)
    return build_graph(5 * blocks, edges, inv)


def disjoint_union(g, h):
    """g and h side by side: h's vertices and directed edges follow g's."""
    return build_graph(
        g.vertex_count + h.vertex_count,
        np.concatenate([np.column_stack([g.tails, g.heads]),
                        np.column_stack([h.tails, h.heads]) + g.vertex_count]),
        np.concatenate([g.involution, h.involution + g.directed_edge_count]),
    )


def two_perm_halves(half, seed):
    """Disconnected 4-regular graph of two perm-model samples side by side:
    lambda = 4 has multiplicity 2."""
    return disjoint_union(sample_permutation_model(half, 4, seed),
                          sample_permutation_model(half, 4, seed + 1))


def dense_hashimoto_eigenvalues(g):
    """Reference Hashimoto spectrum: a dense eigensolve of H itself, so a
    check against it does not compare the package's route with itself."""
    return np.linalg.eigvals(hashimoto_matrix(g).astype(float))


@pytest.fixture(scope="session")
def witness_graph():
    return k5_minus_edge_ring(4)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


def named_corpus():
    """The named regular test graphs (with their regular degree)."""
    return [
        ("K4", complete_graph(4)),
        ("Petersen", petersen_graph()),
        ("bouquet(2,0)", build_bouquet(2, 0)),
        ("bouquet(0,1)", build_bouquet(0, 1)),
        ("bouquet(0,2)", build_bouquet(0, 2)),
        ("bouquet(0,3)", build_bouquet(0, 3)),
        ("bouquet(1,1)", build_bouquet(1, 1)),
        ("witness", k5_minus_edge_ring(4)),
    ]


def random_regular_corpus(count, seed, max_vertices=40, degrees=(3, 4, 6)):
    """Deterministic mixed corpus of random regular graphs, |V| <= max_vertices.

    d=3 graphs come from the matching model (even n), d=4 and d=6 from the
    permutation and single-cycle models in rotation.
    """
    out = []
    i = 0
    while len(out) < count:
        d = degrees[i % len(degrees)]
        base_seed = seed * 100003 + i
        if d == 3:
            n = 4 + 2 * (i % ((max_vertices - 4) // 2 + 1))
            g = sample_matching_model(n, d, base_seed)
        elif i % 2 == 0:
            n = 4 + (i % (max_vertices - 3))
            g = sample_permutation_model(n, d, base_seed)
        else:
            cap = max_vertices if d == 4 else 24
            n = 4 + (i % (cap - 3))
            g = sample_single_cycle_model(n, d, base_seed)
        out.append(g)
        i += 1
    return out
