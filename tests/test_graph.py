import json

import numpy as np
import pytest
import scipy.sparse as sp

from linkgae.graph import (EdgeSplit, Graph, _unique, load_graph,
                           mean_adjacency, normalize, plain_adjacency,
                           random_split, sample_negatives)
from tests.conftest import random_graph, validate_csr


def p3() -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]))


def stored(g: Graph, pairs: np.ndarray) -> np.ndarray:
    """Whether each pair is an edge of ``g``."""
    e = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return np.isin(e[:, 0] * g.num_nodes + e[:, 1], g._pair_codes)


# -- loading ----------------------------------------------------------------

def test_load_path_graph(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 2\n")
    g = load_graph(f)
    assert g.num_nodes == 3
    assert list(g.degrees) == [1, 2, 1]
    assert g.num_edges == 2


def test_load_drops_duplicates_and_self_loops(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("0 1\n1 0\n0 0\n")
    g = load_graph(f)
    assert g.num_edges == 1
    assert g.edge_list().tolist() == [[0, 1]]


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


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_non_finite_features_are_rejected_naming_the_row(tmp_path, bad):
    e = tmp_path / "edges.txt"
    e.write_text("0 1\n1 2\n")
    x = tmp_path / "features.csv"
    x.write_text(f"1.0,2.0\n3.0,4.0\n5.0,{bad}\n")
    with pytest.raises(ValueError, match="feature row 2 .* not finite"):
        load_graph(e, x)
    with pytest.raises(ValueError, match="feature row 0 "):
        Graph.from_edges(2, np.array([[0, 1]]), np.array([[np.nan], [np.inf]]))


def test_graph_invariants_on_random_graphs(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=25)
        validate_csr(g)


@pytest.mark.parametrize("n, edges", [
    (4, np.empty((0, 2))), (0, np.empty((0, 2))), (4, [[0, 0], [3, 3], [3, 3]]),
    (5, [[1, 3], [3, 1], [1, 3], [4, 0], [0, 4]]),
    (6, [[0, 1], [1, 0], [2, 2], [5, 0], [3, 4], [4, 3]]),
], ids=["empty", "no-nodes", "self-loops-only", "duplicates-only", "mixed"])
def test_from_edges_matches_a_dense_adjacency_csr(n, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dense = np.zeros((n, n), dtype=bool)
    dense[edges[:, 0], edges[:, 1]] = dense[edges[:, 1], edges[:, 0]] = True
    np.fill_diagonal(dense, False)
    want = sp.csr_matrix(dense)
    g = Graph.from_edges(n, edges)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
    assert np.array_equal(g.edge_list(), np.argwhere(np.triu(dense)))


@pytest.mark.parametrize("codes", [
    [], [7], [3, 3, 3, 3], [5, -2, 5, 9, -2, 0, 2**62, -(2**62), 0],
    np.random.default_rng(5).integers(-50, 50, 1000),
    np.random.default_rng(6).integers(0, 2**62, 500),
], ids=["empty", "single", "all-equal", "mixed", "random-dense", "random-wide"])
def test_unique_matches_numpy_unique(codes):
    codes = np.asarray(codes, dtype=np.int64)
    got = _unique(codes)
    assert got.dtype == np.int64 and np.array_equal(got, np.unique(codes))


def test_validate_rejects_broken_csr():
    # negative controls: each graph breaks exactly one invariant
    asymmetric = Graph(3, np.array([0, 1, 1, 1]), np.array([1]))
    with pytest.raises(AssertionError, match="asymmetric"):
        validate_csr(asymmetric)
    unsorted = Graph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
    with pytest.raises(AssertionError, match="row 0 not strictly sorted"):
        validate_csr(unsorted)
    self_loop = Graph(2, np.array([0, 2, 3]), np.array([0, 1, 0]))
    with pytest.raises(AssertionError, match="self-loop at 0"):
        validate_csr(self_loop)


# -- normalization and spmm ---------------------------------------------------

def test_normalize_single_edge_dense_form():
    g = Graph.from_edges(2, np.array([[0, 1]]))
    dense = normalize(g).mat.toarray()
    assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_isolated_node_self_loop_only():
    g = Graph.from_edges(3, np.array([[0, 1]]))
    dense = normalize(g).mat.toarray()
    assert dense[2, 2] == 1.0
    assert np.all(dense[2, :2] == 0.0) and np.all(dense[:2, 2] == 0.0)


def test_normalize_p3_entry():
    dense = normalize(p3()).mat.toarray()
    assert abs(dense[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-15
    # diagonal entries are 1/(deg+1)
    assert np.allclose(np.diag(dense), [0.5, 1.0 / 3.0, 0.5], atol=1e-15)


def test_normalize_symmetry_values_and_degrees(rng):
    for _ in range(20):
        g = random_graph(rng, n_max=30)
        adj = normalize(g)
        dense = adj.mat.toarray()
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
        dense = adj.mat.toarray() @ x
        assert np.max(np.abs(adj.matvec(x) - dense)) < 1e-12


def test_spmm_row_sums_match_operator(rng):
    for _ in range(10):
        g = random_graph(rng, n_max=30)
        adj = normalize(g)
        ones = np.ones((g.num_nodes, 1))
        assert np.allclose(adj.matvec(ones)[:, 0], adj.mat.toarray().sum(axis=1), atol=1e-12)


def test_spmm_repeated_calls_bit_identical(rng):
    g = random_graph(rng, n_max=40)
    adj = normalize(g)
    x = rng.standard_normal((g.num_nodes, 8))
    assert np.array_equal(adj.matvec(x), adj.matvec(x))


def test_spmm_shape_mismatch():
    g = p3()
    with pytest.raises(ValueError):
        normalize(g).matvec(np.ones((4, 2)))


@pytest.mark.parametrize("build", [normalize, mean_adjacency])
def test_products_reject_an_input_of_the_other_dtype(build):
    for op_dtype, x_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
        op = build(p3(), op_dtype)
        assert op.mat.dtype == op_dtype
        x = np.ones((3, 2), dtype=x_dtype)
        for product in (op.matvec, op.rmatvec):
            with pytest.raises(ValueError, match=f"operator is {np.dtype(op_dtype)}, "
                                                 f"the input is {np.dtype(x_dtype)}"):
                product(x)


def test_mean_and_plain_adjacency():
    g = p3()
    mean = mean_adjacency(g).mat.toarray()
    assert np.allclose(mean[1], [0.5, 0.0, 0.5])
    assert np.allclose(mean[0], [0.0, 1.0, 0.0])
    plain = plain_adjacency(g).mat.toarray()
    assert np.array_equal(plain, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


def _without_edges_loop(op, edges):
    """The per-edge loop ``without_edges`` replaced, kept as its oracle."""
    mat = op.mat.copy()
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for u, v in np.concatenate([edges, edges[:, ::-1]], axis=0):
        lo, hi = indptr[u], indptr[u + 1]
        k = lo + np.searchsorted(indices[lo:hi], v)
        if k < hi and indices[k] == v:
            data[k] = 0.0
    return mat


@pytest.mark.parametrize("build", [normalize, mean_adjacency, plain_adjacency])
def test_without_edges_matches_the_per_edge_loop(build, rng):
    for _ in range(10):
        g = random_graph(rng, n_min=6, n_max=40)
        if g.num_edges < 2:
            continue
        op = build(g)
        edges = g.edge_list()[rng.permutation(g.num_edges)[:max(1, g.num_edges // 3)]]
        absent = sample_negatives(g, 1, rng)  # a pair the operator does not store
        batch = np.concatenate([edges, absent, edges[:1]])  # plus a repeated edge
        masked = op.without_edges(batch)
        want = _without_edges_loop(op, batch)
        assert np.array_equal(masked.mat.data, want.data)
        assert np.array_equal(masked.mat.toarray(), want.toarray())
        assert np.shares_memory(masked.mat.indptr, op.mat.indptr)
        assert np.shares_memory(masked.mat.indices, op.mat.indices)
        assert masked.symmetric == op.symmetric
        x = rng.standard_normal((g.num_nodes, 3))
        assert np.allclose(masked.rmatvec(x), masked.mat.toarray().T @ x, rtol=0, atol=1e-12)
        assert np.array_equal(masked.rmatvec(x), masked.mat.T.tocsr() @ x)
        # built in float32: the float64 values rounded once, masked the same way
        masked32 = build(g, np.float32).without_edges(batch)
        assert np.array_equal(masked32.mat.data, want.data.astype(np.float32))
        x = x.astype(np.float32)
        assert np.array_equal(masked32.matvec(x), want.astype(np.float32) @ x)
        assert np.array_equal(masked32.rmatvec(x), want.T.tocsr().astype(np.float32) @ x)
        # masking a masked copy zeroes the union
        again = masked.without_edges(absent)
        assert np.array_equal(again.mat.data, want.data)


def test_without_edges_rejects_out_of_range_endpoints():
    with pytest.raises(IndexError):
        normalize(p3()).without_edges(np.array([[0, 3]]))


def test_without_edges_zeroes_both_directions():
    g = p3()
    adj = normalize(g)
    masked = adj.without_edges(np.array([[0, 1]]))
    d = masked.mat.toarray()
    assert d[0, 1] == 0.0 and d[1, 0] == 0.0
    assert d[1, 2] == adj.mat.toarray()[1, 2]  # untouched entries keep their values
    assert adj.mat.toarray()[0, 1] != 0.0  # original operator is unchanged


# -- restriction to a receptive field -----------------------------------------

def path(n: int) -> Graph:
    return Graph.from_edges(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))


@pytest.mark.parametrize("build", [normalize, mean_adjacency, plain_adjacency])
def test_restricted_products_equal_the_whole_products_rows(build, rng):
    g = random_graph(rng, n_min=40, n_max=60, p=0.04)
    n = g.num_nodes
    adj = build(g).without_edges(g.edge_list()[::4])  # explicit zeros stay in the rows
    x = rng.standard_normal((n, 8))
    for k in (1, 3, 10, n - 3):
        rows = np.sort(rng.choice(n, k, replace=False))
        layers, field = adj.restrict(rows, 3)
        want = [x]
        for _ in range(3):
            want.append(adj.matvec(want[-1]))
        z = x if field is None else x[field]
        for (op, out), w in zip(layers, want[1:]):
            z = op.matvec(z)
            assert z.tobytes() == (w if out is None else w[out]).tobytes()
            if out is not None:
                kept = adj.mat.indptr[out + 1] - adj.mat.indptr[out]
                assert op.mat.nnz == kept.sum()
        top = layers[-1][1]  # None when the last product reads every node
        assert top is None or np.array_equal(top, rows)


def test_restrict_walks_the_field_down_one_hop_per_product():
    adj = normalize(path(10))
    layers, field = adj.restrict(np.array([0]), 2)
    assert [out.tolist() for _, out in layers] == [[0, 1], [0]]
    assert field.tolist() == [0, 1, 2]
    assert [op.shape for op, _ in layers] == [(2, 3), (1, 2)]


def test_a_product_whose_field_is_every_node_runs_whole():
    adj = normalize(path(5))
    layers, field = adj.restrict(np.array([2]), 3)  # fields {1, 2, 3}, then every node
    assert field is None
    assert layers[0] == (adj, None) and layers[1] == (adj, None)
    cut, out = layers[2]
    assert out.tolist() == [2] and cut.shape == (1, 5)  # its input is every node: ids


@pytest.mark.parametrize("build", [normalize, mean_adjacency, plain_adjacency])
def test_a_node_outside_the_rows_is_in_their_field_only_when_a_row_stores_it(build):
    # a path 0-5 and isolated nodes 6 and 7; most entries lie in the rows
    g = Graph.from_edges(8, np.stack([np.arange(5), np.arange(1, 6)], axis=1))
    layers, field = build(g).restrict(np.array([0, 1, 2, 3, 4, 6]), 1)
    assert field.tolist() == [0, 1, 2, 3, 4, 5, 6]  # 5 reaches in, 7 does not
    assert layers[0][1].tolist() == [0, 1, 2, 3, 4, 6] and layers[0][0].shape == (6, 7)
    layers, field = build(g).restrict(np.array([0, 1, 2, 3, 4, 6, 7]), 1)
    assert field is None and layers[0][1] is None  # 5 reaches in: every node


@pytest.mark.parametrize("rows", [None, np.arange(7)])
def test_restricting_to_every_row_returns_the_operator(rows):
    adj = mean_adjacency(path(7))
    layers, field = adj.restrict(rows, 2)
    assert field is None and all(op is adj and out is None for op, out in layers)


# -- splitting ----------------------------------------------------------------

def ten_edge_graph() -> Graph:
    # star-ish graph with exactly 10 edges on 8 nodes
    edges = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 5], [2, 6], [3, 7], [4, 5], [6, 7]]
    return Graph.from_edges(8, np.array(edges))


def test_split_bucket_sizes_floor_then_distribute():
    split = random_split(ten_edge_graph(), seed=3)
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
            assert not stored(g, negs).any()


def test_split_rejects_tiny_graphs():
    tiny = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError, match="too few edges"):
        random_split(tiny, seed=0)


def test_split_save_load_roundtrip(tmp_path):
    split = random_split(ten_edge_graph(), seed=4)
    path = tmp_path / "split.json"
    split.save(path)
    blob = json.loads(path.read_text())
    assert "seed" not in blob
    back = EdgeSplit.load(path, 8)
    assert np.array_equal(back.train_pos, split.train_pos)
    assert np.array_equal(back.test_neg, split.test_neg)
    path.write_text(json.dumps({"seed": 4, **blob}))  # files that carry a seed still load
    assert np.array_equal(EdgeSplit.load(path, 8).valid_pos, split.valid_pos)


@pytest.mark.parametrize("edit, message", [
    (lambda b: b.update(train=[]), "split train: no positive pairs"),
    (lambda b: b.update(valid=[]), "split valid: no positive pairs"),
    (lambda b: b.update(test=[]), "split test: no positive pairs"),
    (lambda b: b["test"].append([0, 8]), "out of range"),
    (lambda b: b["train"].append([-1, 2]), "out of range"),
    (lambda b: b["neg"]["valid"].append([3, 99]), "out of range"),
    (lambda b: b["valid"].append([2, 2]), "self-pair"),
    (lambda b: b["valid"].append(b["train"][0]), "both train and valid"),
    (lambda b: b["test"].append(b["valid"][0][::-1]), "both valid and test"),
    (lambda b: b["neg"].update(test=[[[[0, 5]]]]), "shape"),
    (lambda b: b["neg"].update(valid=[[0, 5, 6]]), "shape"),
    (lambda b: b["neg"]["test"].append(b["test"][0]), "test negatives: .* positive"),
    (lambda b: b["neg"]["valid"].append(b["train"][0][::-1]), "valid negatives: .* positive"),
    (lambda b: b["neg"].update(test=[[[0, 5], b["valid"][0]], [[1, 3], [1, 7]]]),
     "test negatives: .* of the split"),
    (lambda b: b["neg"].update(valid=[]), "split valid negatives: no negative pairs"),
    (lambda b: b["neg"].update(test=[]), "split test negatives: no negative pairs"),
    # one candidate set for the two test positives
    (lambda b: b["neg"].update(test=[[[0, 5], [0, 6]]]),
     r"split test negatives: 1 per-source candidate sets for 2 test positives in .*split\.json"),
    # lists are read as given: a transposed, a flat and a ragged list name the file
    (lambda b: b.update(train=[list(col) for col in zip(*b["train"])]),
     r"split train: shape \(2, 7\) is not \(m, 2\) in .*split\.json"),
    (lambda b: b.update(valid=[i for pair in b["valid"] for i in pair]),
     r"split valid: shape \(2,\) is not \(m, 2\) in .*split\.json"),
    (lambda b: b["test"][0].append(6),
     r"split test: not a rectangular list of integer ids in .*split\.json"),
    (lambda b: b["valid"][0].__setitem__(0, b["valid"][0][0] + 0.5),
     r"split valid: not a rectangular list of integer ids in .*split\.json"),
    (lambda b: b["neg"]["valid"][0].__setitem__(0, str(b["neg"]["valid"][0][0])),
     r"split valid negatives: not a rectangular list of integer ids in .*split\.json"),
])
def test_split_load_rejects_bad_files(tmp_path, edit, message):
    path = tmp_path / "split.json"
    random_split(ten_edge_graph(), seed=4).save(path)
    EdgeSplit.load(path, 8)  # the unedited file loads
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=message):
        EdgeSplit.load(path, 8)


def test_split_load_accepts_per_source_negatives(tmp_path):
    split = random_split(ten_edge_graph(), seed=4)
    split.test_neg = np.array([[[0, 5], [0, 6]], [[1, 3], [1, 7]]])
    split.save(tmp_path / "split.json")
    assert EdgeSplit.load(tmp_path / "split.json", 8).test_neg.shape == (2, 2, 2)


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
        assert not stored(g, negs).any()
        codes = negs[:, 0] * g.num_nodes + negs[:, 1]
        assert len(np.unique(codes)) == count  # no duplicates
        assert np.all(negs[:, 0] < negs[:, 1])


def _sample_negatives_loop(g, count, rng):
    """The set-based rejection loop ``sample_negatives`` replaced, kept as its oracle."""
    n = g.num_nodes
    available = n * (n - 1) // 2 - g.num_edges
    if count * 3 >= available:
        iu, ju = np.triu_indices(n, k=1)
        codes = iu.astype(np.int64) * n + ju
        pool = codes[~np.isin(codes, g._pair_codes)]
        picked = np.sort(rng.choice(pool, size=count, replace=False))
        return np.stack([picked // n, picked % n], axis=1)
    taken, out = set(), []
    while len(out) < count:
        k = max(1024, 2 * (count - len(out)))
        u = rng.integers(0, n, k)
        v = rng.integers(0, n, k)
        keep = u != v
        cand = np.minimum(u[keep], v[keep]) * n + np.maximum(u[keep], v[keep])
        cand = cand[~np.isin(cand, g._pair_codes)]
        for c in cand:
            if int(c) not in taken:
                taken.add(int(c))
                out.append(int(c))
                if len(out) == count:
                    break
    out = np.asarray(out, dtype=np.int64)
    return np.stack([out // n, out % n], axis=1)


def test_sample_negatives_matches_the_set_loop(rng):
    for trial in range(12):
        g = random_graph(rng, n_min=20, n_max=200, p=0.05 if trial % 2 else 0.8)
        avail = g.num_nodes * (g.num_nodes - 1) // 2 - g.num_edges
        for count in (1, 17, 700, 5000, avail // 3 - 1, avail // 3 + 1):
            if count > avail:
                continue
            seed = 1000 * trial + count
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives(g, count, a)
            want = _sample_negatives_loop(g, count, b)
            assert np.array_equal(got, want)
            assert a.random() == b.random()  # same draws consumed

