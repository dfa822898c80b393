"""Ranking metrics, embedding diagnostics, and theory checks.

Tie policy is pessimistic throughout: a positive tied with a negative
counts as ranked below it. A NaN score raises; an infinite one ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import ModelConfig
from .engine import Tape, finite_difference_check
from .graph import Graph, normalize
from .model import Encoder, GAEModel, InputRepresentation, MessageOperators


def _scores(scores: np.ndarray, role: str) -> np.ndarray:
    """``scores`` as float64; a NaN raises, naming its role and flat index."""
    x = np.asarray(scores, dtype=np.float64)
    nan = np.isnan(x.ravel())
    if nan.any():
        raise ValueError(f"{role} score at flat index {int(np.argmax(nan))} is NaN")
    return x


def _per_source_ranks(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """1 + #(own negatives >= pos_i) per positive, for (num_pos, num_neg) negatives."""
    if neg.shape[0] != pos.shape[0]:
        raise ValueError("per-source negatives must match the positive count")
    return 1 + np.sum(neg >= pos[:, None], axis=1)


def hits_at_k(pos_scores: np.ndarray, neg_scores: np.ndarray, k: int) -> float:
    """Fraction of positives ranked at most k, rank as in ``mrr``.

    Against a shared pool (1-D) that is scoring strictly above its k-th
    largest negative; per-source negatives, of shape (num_pos, num_neg),
    rank each positive against its own row.
    """
    pos = _scores(pos_scores, "positive").ravel()
    neg = _scores(neg_scores, "negative")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(pos) == 0:
        raise ValueError("hits@k needs at least one positive")
    if neg.ndim == 2:
        if neg.shape[1] < k:
            raise ValueError(f"hits@{k} needs at least {k} negatives per source, "
                             f"got {neg.shape[1]}")
        return float(np.mean(_per_source_ranks(pos, neg) <= k))
    neg = neg.ravel()
    if len(neg) < k:
        raise ValueError(f"hits@{k} needs at least {k} negatives, got {len(neg)}")
    threshold = np.partition(neg, len(neg) - k)[len(neg) - k]
    return float(np.mean(pos > threshold))


def mrr(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean reciprocal rank; rank = 1 + #(negatives scoring >= the positive).

    ``neg_scores`` is either one shared pool (1-D) or per-source candidate
    sets of shape (num_pos, num_neg).
    """
    pos = _scores(pos_scores, "positive").ravel()
    neg = _scores(neg_scores, "negative")
    if pos.size == 0:
        raise ValueError("mrr needs at least one positive")
    if neg.size == 0:
        raise ValueError("mrr needs a non-empty negative set")
    if neg.ndim == 1:
        # the negatives >= each positive, from one sort: O(m + k) memory
        ranks = 1 + len(neg) - np.searchsorted(np.sort(neg), pos, side="left")
    elif neg.ndim == 2:
        ranks = _per_source_ranks(pos, neg)
    else:
        raise ValueError(f"neg_scores must be 1-D or 2-D, got ndim={neg.ndim}")
    return float(np.mean(1.0 / ranks))


@dataclass(frozen=True)
class MetricSpec:
    """Which ranking metric to compute; negative score shape picks the pool."""

    kind: str  # "hits" | "mrr"
    k: int | None = None

    @classmethod
    def parse(cls, name: str) -> "MetricSpec":
        name = name.lower().strip()
        if name == "mrr":
            return cls("mrr")
        if name.startswith("hits@") and int(name.split("@", 1)[1]) >= 1:
            return cls("hits", int(name.split("@", 1)[1]))
        raise ValueError(f"unknown metric {name!r} (use 'hits@K' with K >= 1, or 'mrr')")

    def evaluate(self, pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
        if self.kind == "hits":
            return hits_at_k(pos_scores, neg_scores, self.k)
        return mrr(pos_scores, neg_scores)

    def __str__(self) -> str:
        return f"hits@{self.k}" if self.kind == "hits" else "mrr"


def orthogonality_stats(table: np.ndarray, seed: int = 0,
                        exact_limit: int = 2000,
                        sample_pairs: int = 10 ** 6) -> tuple[float, float]:
    """Mean and std of |cosine| over distinct row pairs.

    All pairs when n <= exact_limit, otherwise ``sample_pairs`` seeded
    random pairs evaluated in blocks.
    """
    x = np.asarray(table, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("orthogonality_stats needs a 2-D table with >= 2 rows")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms = np.maximum(norms, 1e-30)
    xn = x / norms
    n = x.shape[0]
    if n <= exact_limit:
        gram = xn @ xn.T
        iu = np.triu_indices(n, k=1)
        vals = np.abs(gram[iu])
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, sample_pairs)
        j = rng.integers(0, n - 1, sample_pairs)
        j = j + (j >= i)
        chunks = []
        for s in range(0, sample_pairs, 65536):
            ii, jj = i[s:s + 65536], j[s:s + 65536]
            chunks.append(np.abs(np.sum(xn[ii] * xn[jj], axis=1)))
        vals = np.concatenate(chunks)
    return float(vals.mean()), float(vals.std())


def verify_cn_equivalence(g: Graph, k: int, d: int | None = None,
                          seed: int = 0) -> float:
    """Max |z_i . z_j - (A_norm^{2k})_{ij}| for the identity-weight linear encoder.

    Runs the real encoder on exactly orthonormal inputs and compares every
    pairwise dot product against the dense matrix-power oracle.
    """
    n = g.num_nodes
    if n > 512:
        raise ValueError("dense-power oracle is limited to n <= 512")
    d = n if d is None else d
    if n > d:
        raise ValueError(f"exact orthonormal inputs need d >= num_nodes ({n})")
    rng = np.random.default_rng(seed)
    rep = InputRepresentation(g, "fixed-orthogonal", d, rng, np.float64)
    enc = Encoder(ModelConfig(conv="gcn", mpnn_layers=k, hidden_dim=d,
                              encoder_residual=False), rng, dtype=np.float64)
    enc.set_identity_weights()
    ops = MessageOperators.build(g, "gcn", np.float64)
    tape = Tape(record=False)
    z = enc.forward(tape, ops, rep.forward(tape)).value
    dots = z @ z.T
    dense = normalize(g).toarray()
    oracle = np.linalg.matrix_power(dense, 2 * k)
    return float(np.max(np.abs(dots - oracle)))


def sweep_graphs(num_graphs: int = 50, max_nodes: int = 20, seed: int = 123):
    """The random graphs the verify sweeps draw: 3 to max_nodes nodes each."""
    rng = np.random.default_rng(seed)
    for _ in range(num_graphs):
        n = int(rng.integers(3, max_nodes + 1))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < rng.uniform(0.1, 0.5)
        yield Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))


def cn_equivalence_sweep(num_graphs: int = 50, max_nodes: int = 20,
                         ks: tuple[int, ...] = (1, 2, 3), seed: int = 123) -> float:
    """Worst common-neighbor-equivalence deviation over random graphs."""
    worst = 0.0
    for g in sweep_graphs(num_graphs, max_nodes, seed):
        for k in ks:
            worst = max(worst, verify_cn_equivalence(g, k))
    return worst


def heuristic_product_sweep(num_graphs: int = 50, max_nodes: int = 20,
                            seed: int = 123) -> dict[str, float]:
    """Worst |score_edges - (A diag(w) A)_uv| per structural heuristic.

    Checks every ordered pair u != v of the sweep's graphs against the scipy
    product with w = 1 (CN), 1/ln deg (AA) and 1/deg (RA). Only nodes of
    degree >= 2 can be shared by two distinct nodes, so the rest weigh 0.
    """
    from .heuristics import score_edges  # heuristics imports this module

    worst = {"cn": 0.0, "aa": 0.0, "ra": 0.0}
    for g in sweep_graphs(num_graphs, max_nodes, seed):
        n = g.num_nodes
        a = sp.csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(n, n))
        deg = g.degrees
        shareable = deg >= 2
        aa, ra = np.zeros(n), np.zeros(n)
        aa[shareable] = 1.0 / np.log(deg[shareable])
        ra[shareable] = 1.0 / deg[shareable]
        pairs = np.argwhere(~np.eye(n, dtype=bool))
        for which, w in (("cn", np.ones(n)), ("aa", aa), ("ra", ra)):
            want = (a @ sp.diags(w) @ a).toarray()[pairs[:, 0], pairs[:, 1]]
            dev = np.max(np.abs(score_edges(g, pairs, which) - want))
            worst[which] = max(worst[which], float(dev))
    return worst


def _feature_graph(rng: np.random.Generator, n: int, p: float = 0.35,
                   features: int = 5) -> Graph:
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    feats = rng.standard_normal((n, features))
    return Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1), feats)


def model_gradient_check(conv: str = "gcn", seed: int = 0, n: int = 12,
                         h: float = 1e-5, input_mode: str = "learnable-orthogonal") -> float:
    """Finite-difference check of ``train.batch_loss``, the loss
    ``train_step`` differentiates, wrt every parameter.

    Builds a small 64-bit model (``input_mode`` on a random graph with 5 raw
    features, residuals, dropout, output normalization) and compares
    analytic gradients against central differences, returning the max
    relative error. ``input_mode="raw"`` with gcn or sage checks the
    propagated-feature encoder; with gin, the layer-wise loop.
    """
    from .train import batch_loss

    rng = np.random.default_rng(seed)
    g = _feature_graph(rng, n)
    cfg = ModelConfig(input_mode=input_mode, conv=conv, mpnn_layers=2,
                      hidden_dim=8, mlp_layers=2, dropout=0.3,
                      normalize_embeddings=True, batch_size=8, dtype="float64",
                      metric="hits@1")
    model = GAEModel(g, cfg, seed=seed)
    ops = MessageOperators.build(g, conv, np.float64)
    edges = g.edge_list()
    pos = edges[:6]
    neg_rng = np.random.default_rng(seed + 1)
    neg = np.stack([neg_rng.integers(0, n, 18), neg_rng.integers(0, n, 18)], axis=1)
    neg = neg[neg[:, 0] != neg[:, 1]]

    def loss(tape: Tape, *_params):
        # a fresh rng draws the same dropout masks on every evaluation
        return batch_loss(tape, model, ops, pos, neg, np.random.default_rng(55))

    return finite_difference_check(model.params(), loss, h=h)


def unrolled_encoder_deviation(seed: int = 0, n: int = 16) -> float:
    """Max |z| difference between ``Encoder.forward_propagated`` and the
    layer-wise loop, in float64.

    Covers gcn and sage, 1-4 layers, the residual on and off, and the plain
    and a masked operator, each with fresh Gaussian weights scaled by
    1/sqrt(rows) on one random 16-node graph with 5 features.
    """
    rng = np.random.default_rng(seed)
    g = _feature_graph(rng, n, p=0.3)
    worst = 0.0
    for conv, masked, layers, residual in itertools.product(
            ("gcn", "sage"), (False, True), range(1, 5), (True, False)):
        ops = MessageOperators.build(g, conv, np.float64)
        if masked:
            ops = ops.masked(g.edge_list()[::3])
        cfg = ModelConfig(input_mode="raw", conv=conv, mpnn_layers=layers, hidden_dim=8,
                          encoder_residual=residual, dtype="float64")
        model = GAEModel(g, cfg, seed=seed)
        for p in model.params():
            p.value = rng.standard_normal(p.shape) / np.sqrt(p.shape[0])
        tape = Tape(record=False)
        looped = model.encoder.forward(tape, ops, model.input.forward(tape))
        unrolled = model.encode(tape, ops)
        worst = max(worst, float(np.max(np.abs(unrolled.value - looped.value))))
    return worst

