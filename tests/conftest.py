import numpy as np
import pytest

from linkgae.graph import Graph


def random_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 50,
                 p: float | None = None, features: int | None = None) -> Graph:
    n = int(rng.integers(n_min, n_max + 1))
    prob = p if p is not None else rng.uniform(0.05, 0.5)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    feats = rng.standard_normal((n, features)) if features else None
    return Graph.from_edges(n, edges, feats)


def validate_csr(g: Graph) -> None:
    """Check a graph's CSR invariants; raises AssertionError on violation."""
    n = g.num_nodes
    assert g.indptr.shape == (n + 1,) and g.indptr[0] == 0
    assert g.indptr[-1] == len(g.indices)
    assert np.all(g.degrees >= 0), "indptr not monotone"
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    cols = np.asarray(g.indices, dtype=np.int64)
    assert cols.size == 0 or (cols.min() >= 0 and cols.max() < n), "column out of range"
    codes = rows * n + cols  # strictly increasing iff every row is strictly sorted
    unsorted = np.diff(codes) <= 0
    assert not unsorted.any(), f"row {rows[1:][unsorted][0]} not strictly sorted"
    loops = rows == cols
    assert not loops.any(), f"self-loop at {rows[loops][0]}"
    assert np.array_equal(codes, np.sort(cols * n + rows)), "asymmetric edge"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
