import numpy as np
import pytest

from linkgae.evaluation import MetricSpec
from linkgae.graph import EdgeSplit, Graph
from linkgae.heuristics import (adamic_adar, common_neighbors, heuristic_eval,
                                resource_allocation, score_edges,
                                structure_feature_report)
from tests.conftest import random_graph


def p3(features=None) -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]), features)


def k3() -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


def test_p3_values():
    g = p3()
    assert common_neighbors(g, 0, 2) == 1.0
    assert abs(adamic_adar(g, 0, 2) - 1.0 / np.log(2.0)) < 1e-12
    assert resource_allocation(g, 0, 2) == 0.5


def test_isolated_nodes_score_zero():
    g = Graph.from_edges(4, np.array([[0, 1]]))
    assert common_neighbors(g, 2, 3) == 0.0
    assert adamic_adar(g, 2, 3) == 0.0
    assert resource_allocation(g, 2, 3) == 0.0


def test_k3_common_neighbor():
    assert common_neighbors(k3(), 0, 1) == 1.0


def test_same_node_is_degree():
    assert common_neighbors(k3(), 1, 1) == 2.0


def test_structural_heuristics_match_set_oracle(rng):
    for _ in range(20):
        g = random_graph(rng, n_min=5, n_max=30)
        nbrs = [set(g.neighbors(u).tolist()) for u in range(g.num_nodes)]
        deg = g.degrees
        for _ in range(10):
            u, v = rng.integers(0, g.num_nodes, 2)
            if u == v:
                continue
            shared = nbrs[int(u)] & nbrs[int(v)]
            assert common_neighbors(g, u, v) == len(shared)
            aa = sum(1.0 / np.log(deg[r]) for r in shared)
            ra = sum(1.0 / deg[r] for r in shared)
            assert abs(adamic_adar(g, u, v) - aa) < 1e-12
            assert abs(resource_allocation(g, u, v) - ra) < 1e-12


def test_symmetry_in_u_v(rng):
    g = random_graph(rng, n_min=10, n_max=30)
    for _ in range(20):
        u, v = rng.integers(0, g.num_nodes, 2)
        assert common_neighbors(g, u, v) == common_neighbors(g, v, u)
        assert adamic_adar(g, u, v) == adamic_adar(g, v, u)
        assert resource_allocation(g, u, v) == resource_allocation(g, v, u)


def test_feature_cosine_values():
    x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
    g = Graph.from_edges(5, np.array([[0, 1]]), x)
    cos = score_edges(g, np.array([[0, 3], [0, 2], [0, 1], [0, 4]]), "cos")
    assert abs(cos[0] - 1.0) < 1e-12  # identical nonzero rows
    assert abs(cos[1]) < 1e-12  # orthogonal rows
    assert abs(cos[2] - np.sqrt(0.5)) < 1e-10
    assert cos[3] == 0.0  # zero-vector convention


def test_feature_cosine_requires_features():
    with pytest.raises(ValueError, match="features"):
        score_edges(p3(), np.array([[0, 2]]), "cos")


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
        seed=0,
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
    assert common_neighbors(g_train, 1, 2) == 1.0
    assert common_neighbors(g, 1, 2) == 1.0  # full graph agrees here
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


def test_report_carries_graph_statistics():
    g, split = separable_graph_split()
    report = structure_feature_report(g, split, MetricSpec.parse("hits@1"))
    assert report["num_nodes"] == 6
    assert abs(report["avg_degree"] - 10.0 / 6.0) < 1e-12
