import numpy as np
import pytest

from linkgae.graph import (EdgeSplit, Graph, load_graph, mean_adjacency,
                           normalize, plain_adjacency, random_split,
                           sample_negatives)
from tests.conftest import random_graph


def p3() -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]))


# -- loading ----------------------------------------------------------------

def test_load_path_graph(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 2\n")
    g = load_graph(f)
    assert g.num_nodes == 3
    assert list(g.degrees) == [1, 2, 1]
    assert g.dropped == 0


def test_load_drops_duplicates_and_self_loops(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 0\n0 0\n")
    g = load_graph(f)
    assert g.num_edges == 1
    assert g.dropped == 2


def test_load_malformed_line_reports_line_number(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 2 3\n")
    with pytest.raises(ValueError, match=":2:"):
        load_graph(f)
    f.write_text("0 1\na b\n")
    with pytest.raises(ValueError, match=":2:"):
        load_graph(f)
    f.write_text("0 1\n-1 2\n")
    with pytest.raises(ValueError, match=":2:"):
        load_graph(f)


def test_load_features_row_count_sets_num_nodes(tmp_path):
    e = tmp_path / "edges.txt"
    e.write_text("0 1\n")
    x = tmp_path / "features.csv"
    x.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    g = load_graph(e, x)
    assert g.num_nodes == 3 and g.features.shape == (3, 2)

    x.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="feature"):
        load_graph(e, x)


def test_graph_invariants_on_random_graphs(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=25)
        g.validate()


def test_validate_rejects_broken_csr():
    # negative controls: each graph breaks exactly one invariant
    asymmetric = Graph(3, np.array([0, 1, 1, 1]), np.array([1]))
    with pytest.raises(AssertionError, match="asymmetric"):
        asymmetric.validate()
    unsorted = Graph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
    with pytest.raises(AssertionError, match="row 0 not strictly sorted"):
        unsorted.validate()
    self_loop = Graph(2, np.array([0, 2, 3]), np.array([0, 1, 0]))
    with pytest.raises(AssertionError, match="self-loop at 0"):
        self_loop.validate()


# -- normalization and spmm ---------------------------------------------------

def test_normalize_single_edge_dense_form():
    g = Graph.from_edges(2, np.array([[0, 1]]))
    dense = normalize(g).toarray()
    assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_isolated_node_self_loop_only():
    g = Graph.from_edges(3, np.array([[0, 1]]))
    dense = normalize(g).toarray()
    assert dense[2, 2] == 1.0
    assert np.all(dense[2, :2] == 0.0) and np.all(dense[:2, 2] == 0.0)


def test_normalize_p3_entry():
    dense = normalize(p3()).toarray()
    assert abs(dense[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-15
    # diagonal entries are 1/(deg+1)
    assert np.allclose(np.diag(dense), [0.5, 1.0 / 3.0, 0.5], atol=1e-15)


def test_normalize_symmetry_values_and_degrees(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=30)
        adj = normalize(g)
        dense = adj.toarray()
        assert np.array_equal(dense, dense.T)
        vals = adj.mat.data
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.allclose(np.diag(dense), 1.0 / (g.degrees + 1.0))


def test_spmm_single_edge():
    g = Graph.from_edges(2, np.array([[0, 1]]))
    out = normalize(g).matvec(np.array([[1.0], [0.0]]))
    assert np.allclose(out, [[0.5], [0.5]], atol=1e-15)


def test_spmm_edgeless_graph_is_identity():
    g = Graph.from_edges(4, np.empty((0, 2), dtype=np.int64))
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(normalize(g).matvec(x), x)


def test_spmm_matches_dense_oracle_on_random_graphs(rng):
    for _ in range(50):
        g = random_graph(rng, n_max=50)
        adj = normalize(g)
        x = rng.standard_normal((g.num_nodes, 3))
        dense = adj.toarray() @ x
        assert np.max(np.abs(adj.matvec(x) - dense)) < 1e-12


def test_spmm_row_sums_match_operator(rng):
    for _ in range(10):
        g = random_graph(rng, n_max=30)
        adj = normalize(g)
        ones = np.ones((g.num_nodes, 1))
        assert np.allclose(adj.matvec(ones)[:, 0], adj.toarray().sum(axis=1), atol=1e-12)


def test_spmm_repeated_calls_bit_identical(rng):
    g = random_graph(rng, n_max=40)
    adj = normalize(g)
    x = rng.standard_normal((g.num_nodes, 8))
    assert np.array_equal(adj.matvec(x), adj.matvec(x))


def test_spmm_shape_mismatch():
    g = p3()
    with pytest.raises(ValueError):
        normalize(g).matvec(np.ones((4, 2)))


def test_mean_and_plain_adjacency():
    g = p3()
    mean = mean_adjacency(g).toarray()
    assert np.allclose(mean[1], [0.5, 0.0, 0.5])
    assert np.allclose(mean[0], [0.0, 1.0, 0.0])
    plain = plain_adjacency(g).toarray()
    assert np.array_equal(plain, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


def test_without_edges_zeroes_both_directions():
    g = p3()
    adj = normalize(g)
    masked = adj.without_edges(np.array([[0, 1]]))
    d = masked.toarray()
    assert d[0, 1] == 0.0 and d[1, 0] == 0.0
    assert d[1, 2] == adj.toarray()[1, 2]  # untouched entries keep their values
    assert adj.toarray()[0, 1] != 0.0  # original operator is unchanged


# -- splitting ----------------------------------------------------------------

def ten_edge_graph() -> Graph:
    # star-ish graph with exactly 10 edges on 8 nodes
    edges = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 5], [2, 6], [3, 7], [4, 5], [6, 7]]
    return Graph.from_edges(8, np.array(edges))


def test_split_bucket_sizes_floor_then_distribute():
    split = random_split(ten_edge_graph(), (0.7, 0.1, 0.2), seed=3)
    assert (len(split.train_pos), len(split.valid_pos), len(split.test_pos)) == (7, 1, 2)


def test_split_deterministic_for_seed():
    a = random_split(ten_edge_graph(), seed=9)
    b = random_split(ten_edge_graph(), seed=9)
    for x, y in [(a.train_pos, b.train_pos), (a.valid_pos, b.valid_pos),
                 (a.test_pos, b.test_pos), (a.valid_neg, b.valid_neg),
                 (a.test_neg, b.test_neg)]:
        assert np.array_equal(x, y)
    c = random_split(ten_edge_graph(), seed=10)
    assert not np.array_equal(a.train_pos, c.train_pos)


def test_split_partitions_edge_set_on_random_graphs(rng):
    for _ in range(100):
        g = random_graph(rng, n_min=10, n_max=30, p=0.3)
        if g.num_edges < 5:
            continue
        split = random_split(g, seed=int(rng.integers(1 << 30)))
        parts = [split.train_pos, split.valid_pos, split.test_pos]
        codes = [e[:, 0] * g.num_nodes + e[:, 1] for e in parts]
        merged = np.sort(np.concatenate(codes))
        assert np.array_equal(merged, np.unique(merged))  # pairwise disjoint
        edges = g.edge_list()
        assert np.array_equal(merged, np.sort(edges[:, 0] * g.num_nodes + edges[:, 1]))
        for negs in (split.valid_neg, split.test_neg):
            assert not g.has_edges(negs).any()


def test_split_rejects_bad_ratios_and_tiny_graphs():
    with pytest.raises(ValueError):
        random_split(ten_edge_graph(), (0.5, 0.2, 0.2), seed=0)
    tiny = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        random_split(tiny, (0.7, 0.1, 0.2), seed=0)


def test_split_save_load_roundtrip(tmp_path):
    split = random_split(ten_edge_graph(), seed=4)
    path = tmp_path / "split.json"
    split.save(path)
    back = EdgeSplit.load(path)
    assert back.seed == 4
    assert np.array_equal(back.train_pos, split.train_pos)
    assert np.array_equal(back.test_neg, split.test_neg)


# -- negative sampling ---------------------------------------------------------

def test_sample_negatives_count_zero():
    g = Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
    assert sample_negatives(g, 0, seed=0).shape == (0, 2)


def test_sample_negatives_only_non_edge_of_p3():
    out = sample_negatives(p3(), 1, seed=5)
    assert np.array_equal(out, [[0, 2]])


def test_sample_negatives_exhausting_raises():
    g = Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
    with pytest.raises(ValueError):
        sample_negatives(g, 1, seed=0)


def test_sample_negatives_never_returns_positives(rng):
    for _ in range(30):
        g = random_graph(rng, n_min=8, n_max=40)
        avail = g.num_nodes * (g.num_nodes - 1) // 2 - g.num_edges
        count = int(rng.integers(1, max(2, avail // 2)))
        negs = sample_negatives(g, count, rng)
        assert len(negs) == count
        assert not g.has_edges(negs).any()
        codes = negs[:, 0] * g.num_nodes + negs[:, 1]
        assert len(np.unique(codes)) == count  # no duplicates
        assert np.all(negs[:, 0] < negs[:, 1])


def test_sample_negatives_respects_exclusions():
    g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    exclude = np.array([[0, 2], [0, 3], [0, 4], [1, 3]])
    for seed in range(10):
        negs = sample_negatives(g, 2, seed=seed, exclude=exclude)
        codes = set(map(tuple, negs))
        assert codes <= {(1, 4), (2, 4)}
        assert len(codes) == 2
