import numpy as np
import pytest

from linkgae.evaluation import (MetricSpec, hits_at_k, loglog_slope, mrr,
                                orthogonality_stats, verify_cn_equivalence)
from linkgae.graph import Graph
from linkgae.model import orthogonal_rows
from tests.conftest import random_graph


# -- hits@k --------------------------------------------------------------------

def test_hits_basic_example():
    assert hits_at_k([0.9, 0.4], [0.8, 0.3, 0.1], 1) == 0.5


def test_hits_extremes():
    assert hits_at_k([0.9, 0.8], [0.5, 0.4, 0.3], 1) == 1.0
    assert hits_at_k([0.1, 0.2], [0.5, 0.4, 0.3], 1) == 0.0


def test_hits_tie_counts_as_miss():
    assert hits_at_k([0.5], [0.5, 0.1], 1) == 0.0


def test_hits_requires_enough_negatives():
    with pytest.raises(ValueError):
        hits_at_k([0.5], [0.4, 0.3], 5)


def test_hits_invariant_under_monotone_transform(rng):
    for _ in range(20):
        pos = rng.standard_normal(30)
        neg = rng.standard_normal(100)
        k = int(rng.integers(1, 50))
        base = hits_at_k(pos, neg, k)
        for f in (lambda x: 3.0 * x + 1.0, np.tanh, lambda x: np.exp(x / 4.0)):
            assert hits_at_k(f(pos), f(neg), k) == base


# -- mrr -------------------------------------------------------------------------

def test_mrr_rank_two():
    assert mrr([0.7], [0.9, 0.5, 0.2]) == 0.5


def test_mrr_rank_one():
    assert mrr([0.95], [0.9, 0.5, 0.2]) == 1.0


def test_mrr_tie_is_pessimistic():
    assert mrr([0.5], [0.5]) == 0.5


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


def test_metric_spec_parse():
    spec = MetricSpec.parse("hits@100")
    assert spec.kind == "hits" and spec.k == 100 and str(spec) == "hits@100"
    assert MetricSpec.parse("MRR").kind == "mrr"
    with pytest.raises(ValueError):
        MetricSpec.parse("auc")


# -- orthogonality stats ---------------------------------------------------------

def test_orthogonality_stats_orthonormal_table(rng):
    table = orthogonal_rows(16, 32, rng)
    mean, std = orthogonality_stats(table)
    assert mean < 1e-6 and std < 1e-6


def test_orthogonality_stats_identical_rows():
    table = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    mean, std = orthogonality_stats(table)
    assert abs(mean - 1.0) < 1e-12 and std < 1e-12


def test_orthogonality_stats_gaussian_expectation(rng):
    # E|cos| ~ sqrt(2 / (pi d)) for random Gaussian rows; n > 2000 takes
    # the seeded 1e6-pair sampling path.
    n, d = 4267, 1024
    table = rng.standard_normal((n, d))
    mean, _ = orthogonality_stats(table, sample_pairs=200_000)
    expected = np.sqrt(2.0 / (np.pi * d))
    assert abs(mean - expected) < 0.01


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
    dense = normalize(g).toarray()
    assert abs((dense @ dense)[0, 2] - 1.0 / 6.0) < 1e-14


def test_cn_equivalence_edgeless_graph():
    g = Graph.from_edges(5, np.empty((0, 2), dtype=np.int64))
    for k in (1, 2, 3):
        assert verify_cn_equivalence(g, k=k) < 1e-12


def test_cn_equivalence_random_graph_depth_three(rng):
    g = random_graph(rng, n_min=20, n_max=20)
    assert verify_cn_equivalence(g, k=3) < 1e-9


def test_cn_equivalence_rejects_narrow_embedding():
    g = Graph.from_edges(5, np.array([[0, 1], [2, 3]]))
    with pytest.raises(ValueError, match="d >= num_nodes"):
        verify_cn_equivalence(g, k=1, d=3)


def test_loglog_slope_quadratic():
    xs = [128, 256, 512, 1024]
    ys = [x ** 2 * 1e-9 for x in xs]
    assert abs(loglog_slope(xs, ys) - 2.0) < 1e-9


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
    # gather_rows backward must push its relative error past the 1e-4 bar
    from linkgae import engine
    from linkgae.evaluation import model_gradient_check

    assert model_gradient_check("gcn") < 1e-4

    def bad_gather_rows(self, x, idx):
        idx = np.asarray(idx, dtype=np.int64)

        def bwd(up):
            g = np.zeros_like(x.value)
            np.add.at(g, idx, up * 1.05)
            engine._accumulate(x, g)

        return self._emit(x.value[idx], (x,), bwd)

    monkeypatch.setattr(engine.Tape, "gather_rows", bad_gather_rows)
    assert model_gradient_check("gcn") > 1e-4
