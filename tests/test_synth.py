import numpy as np
import pytest

from linkgae.graph import Graph
from linkgae.synth import structure_dominant_graph


def looped_graph(n, community_size, p_in, cross_degree, feature_dim, seed) -> Graph:
    """The generator as one Bernoulli draw per community, in a Python loop."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(community_size, k=1)
    edges = []
    for start in range(0, n, community_size):
        keep = rng.random(len(iu)) < p_in
        edges.append(np.stack([iu[keep] + start, ju[keep] + start], axis=1))
    n_cross = int(n * cross_degree / 2)
    u = rng.integers(0, n, 3 * n_cross)
    v = rng.integers(0, n, 3 * n_cross)
    different = (u // community_size) != (v // community_size)
    edges.append(np.stack([u[different], v[different]], axis=1)[:n_cross])
    features = rng.standard_normal((n, feature_dim))
    return Graph.from_edges(n, np.concatenate(edges, axis=0), features)


@pytest.mark.parametrize("n, cs, p_in, xdeg, fdim, seed", [
    (2000, 20, 0.5, 2.0, 32, 7), (600, 10, 0.8, 1.0, 8, 3), (100, 10, 0.6, 1.0, 4, 0),
    (60, 1, 0.5, 2.0, 2, 5), (300, 300, 0.1, 0.5, 3, 9), (90, 3, 1.0, 0.0, 1, 11),
])
def test_one_draw_for_all_communities_reads_the_looped_stream(n, cs, p_in, xdeg, fdim, seed):
    got = structure_dominant_graph(n, cs, p_in, xdeg, fdim, seed)
    want = looped_graph(n, cs, p_in, xdeg, fdim, seed)
    for name in ("indptr", "indices", "_pair_codes", "features"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("n", [0, -20])
def test_n_below_one_raises(n):
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        structure_dominant_graph(n=n)


@pytest.mark.parametrize("cs", [0, -5])
def test_community_size_below_one_raises(cs):
    with pytest.raises(ValueError, match=f"community_size must be >= 1, got {cs}"):
        structure_dominant_graph(n=40, community_size=cs)
