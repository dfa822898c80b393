import tracemalloc

import numpy as np
import pytest

from linkgae import heuristics
from linkgae.evaluation import MetricSpec
from linkgae.graph import EdgeSplit, Graph
from linkgae.heuristics import (CODE_BUDGET, heuristic_eval, score_edges,
                                structure_feature_report)
from tests.conftest import random_graph


def p3(features=None) -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]), features)


def k3() -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


def one(g: Graph, u: int, v: int, which: str) -> float:
    return float(score_edges(g, np.array([[u, v]]), which)[0])


def test_p3_values():
    g = p3()
    assert one(g, 0, 2, "cn") == 1.0
    assert abs(one(g, 0, 2, "aa") - 1.0 / np.log(2.0)) < 1e-12
    assert one(g, 0, 2, "ra") == 0.5


def test_isolated_nodes_score_zero():
    g = Graph.from_edges(4, np.array([[0, 1]]))
    for which in ("cn", "aa", "ra"):
        assert one(g, 2, 3, which) == 0.0


def test_k3_common_neighbor():
    assert one(k3(), 0, 1, "cn") == 1.0


def test_same_node_is_degree():
    assert one(k3(), 1, 1, "cn") == 2.0


def set_oracle(g: Graph, pairs: np.ndarray, which: str) -> np.ndarray:
    """One Python set intersection per pair, summed in ascending neighbor order."""
    nbrs = [set(g.indices[g.indptr[u]:g.indptr[u + 1]].tolist()) for u in range(g.num_nodes)]
    weight = {"cn": lambda d: 1.0, "aa": lambda d: 1.0 / np.log(d), "ra": lambda d: 1.0 / d}[which]
    flat = pairs.reshape(-1, 2)
    out = [sum(weight(g.degrees[r]) for r in sorted(nbrs[u] & nbrs[v])) for u, v in flat]
    return np.array(out, dtype=np.float64).reshape(pairs.shape[:-1])


def all_node_weights(g: Graph) -> dict[str, np.ndarray]:
    deg = g.degrees
    with np.errstate(divide="ignore"):
        return {"cn": np.ones(g.num_nodes), "aa": 1.0 / np.log(deg), "ra": 1.0 / deg}


def assert_all_node_formula(g: Graph, pairs: np.ndarray, which: str) -> None:
    # The weight vector over all n nodes, indexed at the shared neighbors and
    # summed in ascending neighbor order, compared with float.hex.
    w = all_node_weights(g)[which]
    want = []
    for u, v in pairs.reshape(-1, 2):
        total = 0.0
        for r in np.intersect1d(g.indices[g.indptr[u]:g.indptr[u + 1]],
                                g.indices[g.indptr[v]:g.indptr[v + 1]]):
            total += w[r]
        want.append(total.hex())
    got = score_edges(g, pairs, which)
    assert got.shape == pairs.shape[:-1]
    assert [float(x).hex() for x in got.ravel()] == want


def test_shared_neighbor_weights_match_the_all_node_formula(rng, monkeypatch):
    # Sparse graphs have many degree-1 nodes; self-pairs share them (CN, RA),
    # other pairs never do.
    degree_one = 0
    for _ in range(20):
        g = random_graph(rng, n_min=20, n_max=60, p=0.06)
        degree_one += int(np.sum(g.degrees == 1))
        drawn = rng.integers(0, g.num_nodes, (300, 2))
        selves = np.repeat(np.arange(g.num_nodes), 2).reshape(-1, 2)
        for which in ("cn", "aa", "ra"):
            pairs = (drawn[drawn[:, 0] != drawn[:, 1]] if which == "aa"
                     else np.concatenate([drawn, selves]))
            assert_all_node_formula(g, pairs, which)
    assert degree_one > 0
    # Per-source candidate sets, shape (m, k, 2), whose sources include a hub
    # joined to half the graph, at the default code budget and at one that
    # cuts the hub's candidates into chunks of a few pairs.
    for budget in (CODE_BUDGET, 64):
        monkeypatch.setattr(heuristics, "CODE_BUDGET", budget)
        for _ in range(10):
            g = random_graph(rng, n_min=20, n_max=60, p=0.06)
            n = g.num_nodes
            hub = int(rng.integers(n))
            spokes = rng.choice(n, n // 2, replace=False)
            g = Graph.from_edges(n, np.concatenate(
                [g.edge_list(), np.stack([np.full(n // 2, hub), spokes], axis=1)]))
            assert g.degrees[hub] >= n // 2 - 1
            sources = np.concatenate([[hub, hub], rng.integers(0, n, 4), [hub]])
            cand = rng.integers(0, n, (len(sources), 9))
            cand[-1, 0] = hub  # one self-pair on the hub
            pairs = np.stack(np.broadcast_arrays(sources[:, None], cand), axis=-1)
            for which in ("cn", "ra", "aa"):
                if which == "aa":  # AA is undefined on self-pairs with a degree-1 neighbor
                    pairs[..., 1] = np.where(cand == sources[:, None], (cand + 1) % n, cand)
                assert_all_node_formula(g, pairs, which)


def test_structural_heuristics_match_set_oracle(rng):
    # Whole batches over random graphs: sparse graphs leave isolated nodes,
    # draws repeat pairs, and CN also sees u == v (AA is undefined there when
    # u has a degree-1 neighbor, so AA and RA get u != v).
    isolated = 0
    for _ in range(20):
        g = random_graph(rng, n_min=5, n_max=30)
        isolated += int(np.sum(g.degrees == 0))
        n = g.num_nodes
        pairs = rng.integers(0, n, (40, 2))
        pairs[:5, 1] = pairs[:5, 0]
        pairs[5:10] = pairs[10:15]
        assert np.array_equal(score_edges(g, pairs, "cn"), set_oracle(g, pairs, "cn"))
        distinct = pairs[pairs[:, 0] != pairs[:, 1]]
        per_source = rng.integers(0, n - 1, (6, 4, 2))
        per_source[..., 1] += per_source[..., 1] >= per_source[..., 0]
        for which in ("aa", "ra"):
            for batch in (distinct, per_source):
                got = score_edges(g, batch, which)
                assert got.shape == batch.shape[:-1]
                np.testing.assert_allclose(got, set_oracle(g, batch, which), rtol=1e-12, atol=0)
        got = score_edges(g, per_source, "cn")
        assert got.shape == (6, 4)
        assert np.array_equal(got, set_oracle(g, per_source, "cn"))
    assert isolated > 0


@pytest.mark.parametrize("which", ["cn", "aa", "ra", "cos"])
@pytest.mark.parametrize("shape", [(0, 2), (0, 5, 2)])
def test_empty_pools_keep_their_shape(which, shape):
    g = p3(np.ones((3, 2)))
    got = score_edges(g, np.empty(shape, dtype=np.int64), which)
    assert got.shape == shape[:-1] and got.dtype == np.float64


def test_more_pairs_than_one_chunk_score_like_each_chunk(rng):
    g = random_graph(rng, n_min=80, n_max=80, p=0.2)
    pairs = rng.integers(0, g.num_nodes, (20000, 2))
    assert g.degrees[pairs].sum() > 2 * CODE_BUDGET  # three chunks or more
    for which in ("cn", "ra"):
        whole = score_edges(g, pairs, which)
        pieces = [score_edges(g, pairs[s:s + 1000], which) for s in range(0, len(pairs), 1000)]
        assert np.array_equal(whole, np.concatenate(pieces))
        assert np.array_equal(whole[-200:], set_oracle(g, pairs[-200:], which))


def test_pairs_on_a_hub_are_chunked_by_their_codes(monkeypatch):
    star = np.stack([np.zeros(1000, dtype=np.int64), np.arange(1, 1001)], axis=1)
    g = Graph.from_edges(1001, star)
    sizes = []
    neighbor_codes = heuristics._neighbor_codes

    def spy(*args):
        codes = neighbor_codes(*args)
        sizes.append(len(codes))
        return codes

    monkeypatch.setattr(heuristics, "_neighbor_codes", spy)
    for which in ("cn", "aa", "ra"):
        assert np.array_equal(score_edges(g, star, which), np.zeros(1000))
    assert max(sizes) <= CODE_BUDGET + 1000


def test_symmetry_in_u_v(rng):
    # Dense graphs give long shared lists, where summation order shows.
    for _ in range(5):
        g = random_graph(rng, n_min=40, n_max=60, p=0.6)
        pairs = rng.integers(0, g.num_nodes, (200, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        for which in ("cn", "aa", "ra"):
            assert np.array_equal(score_edges(g, pairs, which),
                                  score_edges(g, pairs[:, ::-1], which))


def test_adamic_adar_rejects_self_pair_with_degree_one_neighbor():
    # (1, 1) shares all of N(1) = {0, 2} with itself, and both have degree 1,
    # so 1/ln deg is 1/0; the batch must fail naming the pair, not score it.
    g = p3()
    with pytest.raises(ValueError, match=r"self-pair \(1, 1\)"):
        score_edges(g, np.array([[0, 2], [1, 1]]), "aa")
    assert one(k3(), 1, 1, "aa") == 2.0 / np.log(2.0)  # degree-2 neighbors are fine
    assert one(g, 1, 1, "ra") == 2.0


def test_feature_cosine_values():
    x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
    g = Graph.from_edges(5, np.array([[0, 1]]), x)
    cos = score_edges(g, np.array([[0, 3], [0, 2], [0, 1], [0, 4]]), "cos")
    assert abs(cos[0] - 1.0) < 1e-12  # identical nonzero rows
    assert abs(cos[1]) < 1e-12  # orthogonal rows
    assert abs(cos[2] - np.sqrt(0.5)) < 1e-10
    assert cos[3] == 0.0  # zero-vector convention


def test_feature_cosine_matches_the_whole_table_formula(rng):
    # Each row's norm is its own, so normalising only the gathered rows
    # gives the bits of normalising the whole table first.
    for d in (1, 3, 32, 129):
        x = rng.standard_normal((300, d)) * rng.choice([1e-3, 1.0, 1e3], (300, 1))
        x[:5] = 0.0
        g = Graph.from_edges(300, np.array([[0, 1]]), x)
        norms = np.linalg.norm(x, axis=1)
        xn = x / np.where(norms == 0.0, 1.0, norms)[:, None]
        for pairs in (rng.integers(0, 300, (1, 2)), rng.integers(0, 300, (500, 2)),
                      rng.integers(0, 300, (7, 4, 2))):
            flat = pairs.reshape(-1, 2)
            want = np.sum(xn[flat[:, 0]] * xn[flat[:, 1]], axis=1)
            got = score_edges(g, pairs, "cos")
            assert got.shape == pairs.shape[:-1]
            assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.tolist()]


def test_feature_cosine_of_one_pair_does_not_copy_the_table():
    g = Graph.from_edges(100_000, np.array([[0, 1]]), np.ones((100_000, 32)))
    pair = np.array([[3, 99_999]])
    tracemalloc.start()
    try:
        score = score_edges(g, pair, "cos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(score[0] - 1.0) < 1e-12
    assert peak < 1 << 20  # the normalised table alone would be 25.6 MB


def test_feature_cosine_requires_features():
    with pytest.raises(ValueError, match="features"):
        score_edges(p3(), np.array([[0, 2]]), "cos")


@pytest.mark.parametrize("which", ["cn", "aa", "ra", "cos"])
@pytest.mark.parametrize("pairs, bad", [
    ([[0, 1], [-1, 1]], r"\[-1, 1\]"),  # would read row 3 by negative indexing
    ([[0, 1], [2, 4], [5, 0]], r"\[2, 4\]"),  # the first bad pair is named
])
def test_score_edges_rejects_node_ids_outside_the_graph(which, pairs, bad):
    path = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]), np.eye(4))
    with pytest.raises(ValueError, match=bad + r" has a node id outside \[0, 4\)"):
        score_edges(path, np.array(pairs), which)


def test_score_edges_unknown_heuristic():
    with pytest.raises(ValueError):
        score_edges(p3(), np.array([[0, 2]]), "katz")


def separable_graph_split():
    # Star 0-{1,2,3,4}: pairs of leaves share hub 0; node 5 is isolated in
    # the train graph, so (4,5) has no shared neighbor.
    feats = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0],
                      [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    g = Graph.from_edges(6, np.array([[0, 1], [0, 2], [0, 3], [0, 4], [1, 2]]), feats)
    split = EdgeSplit(
        train_pos=np.array([[0, 1], [0, 2], [0, 3], [0, 4]]),
        valid_pos=np.empty((0, 2), dtype=np.int64),
        test_pos=np.array([[1, 2]]),
        valid_neg=np.empty((0, 2), dtype=np.int64),
        test_neg=np.array([[4, 5]]),
    )
    return g, split


def test_heuristic_eval_perfectly_separable_case():
    g, split = separable_graph_split()
    metric = MetricSpec.parse("hits@1")
    for which in ("cn", "aa", "ra"):
        assert heuristic_eval(g, split, which, metric) == 1.0


def test_heuristic_eval_uses_train_graph_only():
    g, split = separable_graph_split()
    # (1,2) is an edge of g but not of the train graph; its CN score must
    # come from the train graph's neighborhoods (hub only).
    g_train = Graph.from_edges(g.num_nodes, split.train_pos)
    assert one(g_train, 1, 2, "cn") == 1.0
    assert one(g, 1, 2, "cn") == 1.0  # full graph agrees here
    assert heuristic_eval(g, split, "cn", MetricSpec.parse("hits@1")) == 1.0


def test_index_structure_only_limit():
    g, split = separable_graph_split()
    ones = np.ones_like(g.features)
    g_allones = Graph.from_edges(6, g.edge_list(), ones)
    metric = MetricSpec.parse("hits@1")
    idx = structure_feature_report(g_allones, split, metric)["index"]
    assert idx > 0.999  # P_F at the tie floor, structure-only limit


def test_index_balanced_case():
    g, split = separable_graph_split()
    metric = MetricSpec.parse("hits@1")
    report = structure_feature_report(g, split, metric)
    # features were crafted so cosine separates exactly like CN
    assert report["p_structure"] == 1.0 and report["p_feature"] == 1.0
    assert abs(report["index"] - 0.5) < 1e-6


def test_index_featureless_fallback_and_range(rng):
    metric = MetricSpec.parse("hits@1")
    for _ in range(10):
        g = random_graph(rng, n_min=10, n_max=25, p=0.3)
        if g.num_edges < 6:
            continue
        from linkgae.graph import random_split
        split = random_split(g, seed=1)
        idx = structure_feature_report(g, split, metric)["index"]
        assert 0.0 <= idx < 1.0


def test_report_builds_the_train_graph_once(monkeypatch):
    g, split = separable_graph_split()
    calls = []
    build = Graph.from_edges.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[1])
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Graph, "from_edges", classmethod(counting))
    report = structure_feature_report(g, split, MetricSpec.parse("hits@1"))
    assert len(calls) == 1 and np.array_equal(calls[0], split.train_pos)
    assert report["p_structure"] == 1.0 and report["p_feature"] == 1.0


def test_report_carries_graph_statistics():
    g, split = separable_graph_split()
    report = structure_feature_report(g, split, MetricSpec.parse("hits@1"))
    assert report["num_nodes"] == 6
    assert abs(report["avg_degree"] - 10.0 / 6.0) < 1e-12
