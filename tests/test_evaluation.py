import tracemalloc

import numpy as np
import pytest

from linkgae import evaluation
from linkgae.checks import verify_cn_equivalence
from linkgae.evaluation import MetricSpec, orthogonality_stats
from linkgae.graph import Graph
from linkgae.model import orthogonal_rows
from tests.conftest import random_graph

mrr = MetricSpec.parse("mrr").evaluate


def hits(pos, neg, k):
    return MetricSpec.parse(f"hits@{k}").evaluate(pos, neg)


# -- hits@k --------------------------------------------------------------------

def test_hits_basic_example():
    assert hits([0.9, 0.4], [0.8, 0.3, 0.1], 1) == 0.5
    # per source: positive 1 beats both of its own candidates, though not the
    # best negative of the pooled four
    assert hits([0.5, 0.5], [[0.9, 0.1], [0.2, 0.1]], 1) == 0.5


def test_hits_extremes():
    assert hits([0.9, 0.8], [0.5, 0.4, 0.3], 1) == 1.0
    assert hits([0.1, 0.2], [0.5, 0.4, 0.3], 1) == 0.0


def test_hits_tie_counts_as_miss():
    assert hits([0.5], [0.5, 0.1], 1) == 0.0


@pytest.mark.parametrize("k", [0, -1])
def test_hits_at_k_below_one_raises(k):
    with pytest.raises(ValueError, match="K >= 1"):
        hits([0.5], [0.4, 0.3], k)


@pytest.mark.parametrize("per_source", [False, True], ids=["shared-pool", "per-source"])
def test_hits_and_mrr_match_the_brute_force_rank(rng, per_source):
    for _ in range(200):
        m, k = rng.integers(1, 30, 2)
        pos = rng.integers(-3, 4, m).astype(float)  # small ints: many ties
        neg = rng.integers(-3, 4, (m, k) if per_source else k).astype(float)
        for x in (pos, neg):
            x[rng.random(x.shape) < 0.1] = np.inf
            x[rng.random(x.shape) < 0.1] = -np.inf
        rows = neg if per_source else np.broadcast_to(neg, (m, k))
        ranks = 1 + np.array([np.sum(rows[i] >= p) for i, p in enumerate(pos)])
        K = int(rng.integers(1, k + 1))
        assert hits(pos, neg, K) == np.mean(ranks <= K)
        assert mrr(pos, neg) == np.mean(1.0 / ranks)


def test_hits_requires_enough_negatives():
    with pytest.raises(ValueError):
        hits([0.5], [0.4, 0.3], 5)
    with pytest.raises(ValueError, match="at least 3 negatives per source"):
        hits([0.5, 0.2], [[0.4, 0.3], [0.1, 0.0]], 3)


def test_per_source_hits_is_the_mean_of_one_row_pools(rng):
    for _ in range(200):
        m, k = rng.integers(1, 20, 2)
        pos = rng.integers(-3, 4, m).astype(float)  # small ints: many ties
        neg = rng.integers(-3, 4, (m, k)).astype(float)
        pos[rng.random(m) < 0.1] = np.inf
        neg[rng.random((m, k)) < 0.1] = -np.inf
        neg[rng.random((m, k)) < 0.1] = np.inf
        K = int(rng.integers(1, k + 1))
        want = np.mean([hits(pos[i:i + 1], neg[i], K) for i in range(m)])
        assert hits(pos, neg, K) == want


@pytest.mark.parametrize("metric", [mrr, lambda p, n: hits(p, n, 1)],
                         ids=["mrr", "hits@1"])
def test_per_source_rows_must_match_the_positives(metric):
    with pytest.raises(ValueError, match="match the positive count"):
        metric([0.5], [[0.4, 0.3], [0.1, 0.0]])


def test_hits_invariant_under_monotone_transform(rng):
    for _ in range(20):
        pos = rng.standard_normal(30)
        neg = rng.standard_normal(100)
        k = int(rng.integers(1, 50))
        base = hits(pos, neg, k)
        for f in (lambda x: 3.0 * x + 1.0, np.tanh, lambda x: np.exp(x / 4.0)):
            assert hits(f(pos), f(neg), k) == base


# -- mrr -------------------------------------------------------------------------

def test_mrr_rank_two():
    assert mrr([0.7], [0.9, 0.5, 0.2]) == 0.5


def test_mrr_rank_one():
    assert mrr([0.95], [0.9, 0.5, 0.2]) == 1.0


def test_mrr_tie_is_pessimistic():
    assert mrr([0.5], [0.5]) == 0.5


def test_shared_pool_mrr_matches_the_broadcast_count(rng):
    for _ in range(200):
        m, k = rng.integers(1, 60, 2)
        pos = rng.integers(-3, 4, m).astype(float)  # small ints: many ties
        neg = rng.integers(-3, 4, k).astype(float)
        pos[rng.random(m) < 0.1] = np.inf
        neg[rng.random(k) < 0.1] = -np.inf
        neg[rng.random(k) < 0.1] = np.inf
        want = np.mean(1.0 / (1 + np.sum(neg[None, :] >= pos[:, None], axis=1)))
        assert mrr(pos, neg).hex() == float(want).hex()


def test_shared_pool_mrr_of_a_hundred_thousand_by_a_hundred_thousand():
    # The m x k comparison would need 10 GB; positive i sits above i + 1
    # negatives, so it ranks k - i and the MRR is H_k / k.
    k = 100_000
    got = mrr(np.arange(k) + 0.5, np.arange(k, dtype=float)[::-1])
    assert abs(got - np.sum(1.0 / np.arange(1, k + 1)) / k) < 1e-12


def test_mrr_per_source_sets():
    pos = [0.7, 0.9]
    neg = np.array([[0.9, 0.5], [0.1, 0.2]])
    assert mrr(pos, neg) == (0.5 + 1.0) / 2.0


def test_mrr_empty_negatives_raise():
    with pytest.raises(ValueError):
        mrr([0.5], np.empty(0))


def test_mrr_range_and_below_positive_negatives(rng):
    for _ in range(20):
        pos = rng.standard_normal(10)
        neg = rng.standard_normal((10, 25))
        val = mrr(pos, neg)
        assert 0.0 < val <= 1.0
        extra = np.concatenate([neg, (pos - 1.0)[:, None]], axis=1)
        assert mrr(pos, extra) == val


@pytest.mark.parametrize("metric, shape, message", [
    ("hits@1", (), "hits@1 needs at least 1 negative, got 0"),
    ("mrr", (0,), "mrr needs at least 1 negative, got 0"),
    ("mrr", (3, 0), "mrr needs at least 1 negative per source, got 0"),
])
def test_check_pool_counts_the_last_axis_for_both_metrics(metric, shape, message):
    spec = MetricSpec.parse(metric)
    with pytest.raises(ValueError, match=message):
        spec.check_pool(shape)
    spec.check_pool(shape[:-1] + (3,))  # three negatives are enough for each


def test_metric_spec_parse():
    spec = MetricSpec.parse("hits@100")
    assert spec.kind == "hits" and spec.k == 100 and str(spec) == "hits@100"
    assert MetricSpec.parse("MRR").kind == "mrr"
    with pytest.raises(ValueError):
        MetricSpec.parse("auc")
    for name in ("hits@0", "hits@-1", "hits@-3", "hits@abc"):
        with pytest.raises(ValueError, match="K >= 1"):
            MetricSpec.parse(name)


# -- NaN scores ------------------------------------------------------------------

NAN = np.nan


@pytest.mark.parametrize("metric", [mrr, lambda p, n: hits(p, n, 1)],
                         ids=["mrr", "hits@1"])
@pytest.mark.parametrize("pos, neg, msg", [
    ([NAN], [0.5, 0.7], "positive score at flat index 0 is NaN"),
    ([0.5, 0.2, NAN], [0.4, 0.1], "positive score at flat index 2 is NaN"),
    ([0.5], [0.1, NAN, NAN], "negative score at flat index 1 is NaN"),
    ([NAN], [NAN, 0.1], "positive score at flat index 0 is NaN"),
    ([0.5, 0.2], [[0.1, 0.3], [NAN, 0.4]], "negative score at flat index 2 is NaN"),
    ([0.5, NAN], [[0.1, 0.3], [0.2, 0.4]], "positive score at flat index 1 is NaN"),
], ids=["pos-first", "pos-later", "neg-pool", "pos-before-neg", "neg-per-source",
        "pos-per-source"])
def test_nan_scores_raise_naming_role_and_index(metric, pos, neg, msg):
    with pytest.raises(ValueError, match=msg):
        metric(np.array(pos), np.array(neg))


def test_infinite_scores_still_rank():
    assert mrr([np.inf], [0.5, np.inf]) == 0.5
    assert mrr([-np.inf, 1.0], [[-np.inf, 0.0], [np.inf, 0.5]]) == (1 / 3 + 0.5) / 2
    assert hits([np.inf, 0.2], [-np.inf, 0.1, 0.3], 1) == 0.5
    assert hits([np.inf, -np.inf], [[0.1, np.inf], [-np.inf, 0.0]], 1) == 0.0


# -- orthogonality stats ---------------------------------------------------------

def test_orthogonality_stats_orthonormal_table(rng):
    table = orthogonal_rows(16, 32, rng)
    mean, std = orthogonality_stats(table)
    assert mean < 1e-6 and std < 1e-6


def test_orthogonality_stats_identical_rows():
    table = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    mean, std = orthogonality_stats(table)
    assert abs(mean - 1.0) < 1e-12 and std < 1e-12


def test_orthogonality_stats_gaussian_expectation(rng, monkeypatch):
    # E|cos| ~ sqrt(2 / (pi d)) for random Gaussian rows; n > 2000 takes
    # the seeded sampling path, here with 200,000 pairs.
    monkeypatch.setattr(evaluation, "ORTHOGONALITY_PAIRS", 200_000)
    n, d = 4267, 1024
    table = rng.standard_normal((n, d))
    mean, _ = orthogonality_stats(table)
    expected = np.sqrt(2.0 / (np.pi * d))
    assert abs(mean - expected) < 0.01


def test_orthogonality_stats_memory_is_bounded_by_its_block(monkeypatch):
    # 65,536-row blocks of a 4,267 x 1,024 table peaked at 1,110 MB here
    monkeypatch.setattr(evaluation, "ORTHOGONALITY_PAIRS", 100_000)
    table = np.random.default_rng(0).standard_normal((4267, 1024))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        orthogonality_stats(table)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"{peak / 2 ** 20:.0f} MiB"


def test_orthogonality_stats_bits_do_not_depend_on_the_block(monkeypatch):
    monkeypatch.setattr(evaluation, "ORTHOGONALITY_PAIRS", 20_000)
    table = np.random.default_rng(1).standard_normal((2500, 300)).astype(np.float32)
    results = set()
    for elements in (300, 7 * 300 + 1, 1 << 20, 1 << 30):  # 1, 7 and 3,495 rows, one block
        monkeypatch.setattr(evaluation, "ORTHOGONALITY_BLOCK", elements)
        results.add(tuple(float.hex(x) for x in orthogonality_stats(table)))
    assert len(results) == 1


def _whole_gram_stats(table: np.ndarray) -> tuple[float, float]:
    """The exact path as one n x n Gram and its gathered upper triangle."""
    xn = np.array(table, dtype=np.float64)
    xn /= np.maximum(np.linalg.norm(xn, axis=1, keepdims=True), 1e-30)
    vals = np.abs((xn @ xn.T)[np.triu_indices(len(xn), k=1)])
    return float(vals.mean()), float(vals.std())


@pytest.mark.parametrize("shape, dtype", [((2000, 128), np.float32), ((1000, 7), np.float64),
                                          ((2, 3), np.float64)])
def test_orthogonality_stats_exact_path_keeps_the_whole_grams_bits(shape, dtype):
    table = np.random.default_rng(3).standard_normal(shape).astype(dtype)
    got, want = orthogonality_stats(table), _whole_gram_stats(table)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("shape", [(1999, 64), (700, 300), (3, 5), (1025, 16)])
def test_orthogonality_stats_exact_path_is_within_rounding_elsewhere(shape):
    # a block's GEMM rows may differ from the whole Gram's in the last bit
    table = np.random.default_rng(4).standard_normal(shape)
    for got, want in zip(orthogonality_stats(table), _whole_gram_stats(table)):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_orthogonality_stats_exact_path_holds_one_triangle_not_the_gram():
    # the whole Gram, its triu_indices and the gathered triangle peaked at 93.5 MiB
    table = np.random.default_rng(0).standard_normal((2000, 128)).astype(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        orthogonality_stats(table)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


def test_orthogonality_stats_needs_two_rows():
    with pytest.raises(ValueError):
        orthogonality_stats(np.ones((1, 4)))


# -- common-neighbor equivalence ---------------------------------------------------

def test_cn_equivalence_p3():
    g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
    assert verify_cn_equivalence(g, k=1) < 1e-9


def test_cn_equivalence_p3_dot_value_is_one_sixth():
    # spot-check the underlying quantity: (A_norm^2)_{02} = 1/6
    from linkgae.graph import normalize
    g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
    dense = normalize(g).mat.toarray()
    assert abs((dense @ dense)[0, 2] - 1.0 / 6.0) < 1e-14


def test_cn_equivalence_edgeless_graph():
    g = Graph.from_edges(5, np.empty((0, 2), dtype=np.int64))
    for k in (1, 2, 3):
        assert verify_cn_equivalence(g, k=k) < 1e-12


# Ten graphs of 4 to 20 nodes, drawn in turn from one seeded rng.
_CN_RNG = np.random.default_rng(12345)
CN_GRAPHS = [random_graph(_CN_RNG, n_min=4, n_max=20) for _ in range(10)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("graph", range(len(CN_GRAPHS)))
def test_cn_equivalence_random_graph_depth_three(graph, k):
    # dot products of the k-layer identity-weight linear encoder equal
    # (A_norm^{2k})_{ij} on exactly orthonormal inputs
    assert verify_cn_equivalence(CN_GRAPHS[graph], k=k) < 1e-9


def test_per_source_mrr_ranks_each_positive_against_its_own_candidates():
    # N(0)={1,2}, N(1)={0,2}, N(2)={0,1,3}, N(3)={2}, N(4)={}.
    # CN: positives (0,2)->1, (1,3)->1; source 0 candidates (0,4)->0,
    # (0,3)->1; source 1 candidates (1,4)->0, (1,0)->1. Each positive ties
    # one of its own two candidates: rank 2, MRR 1/2. Pooling all four
    # candidates would rank both at 3 and give 1/3.
    from linkgae.config import ModelConfig
    from linkgae.heuristics import score_edges
    from linkgae.model import GAEModel, MessageOperators

    g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [0, 2]]))
    pos = np.array([[0, 2], [1, 3]])
    cand = np.array([[[0, 4], [0, 3]], [[1, 4], [1, 0]]])
    ps, ns = score_edges(g, pos, "cn"), score_edges(g, cand, "cn")
    assert ps.shape == (2,) and ns.shape == (2, 2)
    assert MetricSpec.parse("mrr").evaluate(ps, ns) == 0.5

    model = GAEModel(g, ModelConfig(hidden_dim=4, mlp_layers=1), seed=0)
    scores = model.score_edges(MessageOperators.build(g, "gcn"), cand)
    assert scores.shape == (2, 2)


def test_model_gradient_check_catches_a_wrong_gather_backward(monkeypatch):
    # negative control for the full-model check alone: a 5% error in the
    # scatter that the decoder's input node, pair_blocks, runs in backward
    # must push its relative error past the 1e-4 bar
    from linkgae import engine
    from linkgae.checks import model_gradient_check

    assert model_gradient_check("gcn") < 1e-4
    scatter_rows = engine._scatter_rows
    scattered = []

    def bad_scatter_rows(idx, g, rows):
        scattered.append(len(idx))
        return scatter_rows(idx, g * 1.05, rows)

    monkeypatch.setattr(engine, "_scatter_rows", bad_scatter_rows)
    assert model_gradient_check("gcn") > 1e-4
    assert scattered  # the model's loss runs the patched scatter


def test_model_gradient_check_passes_a_consistent_model_with_relu_kinks(monkeypatch):
    # Adding W_proj to C_1 instead of C_0 gives another differentiable
    # encoder, not the layer-wise one. Its gradients are right, but on seed 0
    # a ±h step crosses a decoder ReLU kink (relative error 0.41 before the
    # kink check); every seed must pass.
    import inspect
    import textwrap

    from linkgae import model
    from linkgae.checks import model_gradient_check

    source = textwrap.dedent(inspect.getsource(model.GAEModel._encode_propagated))
    right = "if k == 0 and self.cfg.encoder_residual:"
    assert source.count(right) == 1
    namespace = {}
    exec(source.replace(right, "if k == 1 and self.cfg.encoder_residual:"),
         vars(model), namespace)
    monkeypatch.setattr(model.GAEModel, "_encode_propagated", namespace["_encode_propagated"])
    for seed in range(10):
        err = model_gradient_check("gcn", seed=seed, input_mode="raw")
        assert err < 1e-4, f"seed {seed}: rel err {err:.2e}"
