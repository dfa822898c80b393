"""Ranking metrics, embedding diagnostics, and theory checks.

Tie policy is pessimistic throughout: a positive tied with a negative
counts as ranked below it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .engine import Tape, finite_difference_check
from .graph import Graph, normalize
from .model import Encoder, GAEModel, MessageOperators, build_input


def hits_at_k(pos_scores: np.ndarray, neg_scores: np.ndarray, k: int) -> float:
    """Fraction of positives scoring strictly above the k-th largest negative."""
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(neg) < k:
        raise ValueError(f"hits@{k} needs at least {k} negatives, got {len(neg)}")
    if len(pos) == 0:
        raise ValueError("hits@k needs at least one positive")
    threshold = np.partition(neg, len(neg) - k)[len(neg) - k]
    return float(np.mean(pos > threshold))


def mrr(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean reciprocal rank; rank = 1 + #(negatives scoring >= the positive).

    ``neg_scores`` is either one shared pool (1-D) or per-source candidate
    sets of shape (num_pos, num_neg).
    """
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0:
        raise ValueError("mrr needs at least one positive")
    if neg.size == 0:
        raise ValueError("mrr needs a non-empty negative set")
    if neg.ndim == 1:
        ranks = 1 + np.sum(neg[None, :] >= pos[:, None], axis=1)
    elif neg.ndim == 2:
        if neg.shape[0] != pos.shape[0]:
            raise ValueError("per-source negatives must match the positive count")
        ranks = 1 + np.sum(neg >= pos[:, None], axis=1)
    else:
        raise ValueError(f"neg_scores must be 1-D or 2-D, got ndim={neg.ndim}")
    return float(np.mean(1.0 / ranks))


@dataclass(frozen=True)
class MetricSpec:
    """Which ranking metric to compute; negative score shape picks the MRR pool."""

    kind: str  # "hits" | "mrr"
    k: int | None = None

    @classmethod
    def parse(cls, name: str) -> "MetricSpec":
        name = name.lower().strip()
        if name == "mrr":
            return cls("mrr")
        if name.startswith("hits@"):
            return cls("hits", int(name.split("@", 1)[1]))
        raise ValueError(f"unknown metric {name!r} (use 'hits@K' or 'mrr')")

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
    rep = build_input(g, "fixed-orthogonal", d, rng, dtype=np.float64)
    enc = Encoder(ModelConfig(conv="gcn", mpnn_layers=k, hidden_dim=d,
                              encoder_residual=False), rng, dtype=np.float64)
    enc.set_identity_weights()
    ops = MessageOperators.build(g, "gcn")
    tape = Tape(record=False)
    z = enc.forward(tape, ops, rep.forward(tape)).value
    dots = z @ z.T
    dense = normalize(g).toarray()
    oracle = np.linalg.matrix_power(dense, 2 * k)
    return float(np.max(np.abs(dots - oracle)))


def cn_equivalence_sweep(num_graphs: int = 50, max_nodes: int = 20,
                         ks: tuple[int, ...] = (1, 2, 3), seed: int = 123) -> float:
    """Worst common-neighbor-equivalence deviation over random graphs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_graphs):
        n = int(rng.integers(3, max_nodes + 1))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < rng.uniform(0.1, 0.5)
        g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
        for k in ks:
            worst = max(worst, verify_cn_equivalence(g, k))
    return worst


def model_gradient_check(conv: str = "gcn", seed: int = 0, n: int = 12,
                         h: float = 1e-5) -> float:
    """Finite-difference check of the full training loss wrt every parameter.

    Builds a small 64-bit model (raw features + learnable table, residuals,
    dropout, output normalization) on a random graph and compares analytic
    gradients against central differences, returning the max relative error.
    """
    from .train import bce_loss

    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < 0.35
    feats = rng.standard_normal((n, 5))
    g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1), feats)
    cfg = ModelConfig(input_mode="raw-plus-learnable", conv=conv, mpnn_layers=2,
                      hidden_dim=8, mlp_layers=2, dropout=0.3,
                      normalize_embeddings=True, batch_size=8, dtype="float64",
                      metric="hits@1")
    model = GAEModel(g, cfg, seed=seed)
    ops = MessageOperators.build(g, conv)
    edges = g.edge_list()
    pos = edges[:6]
    neg_rng = np.random.default_rng(seed + 1)
    neg = np.stack([neg_rng.integers(0, n, 18), neg_rng.integers(0, n, 18)], axis=1)
    neg = neg[neg[:, 0] != neg[:, 1]]

    def loss(tape: Tape, *_params):
        drop_rng = np.random.default_rng(55)  # same masks on every evaluation
        z = model.encode(tape, ops)
        lp = model.decode(tape, z, pos, train=True, rng=drop_rng)
        ln = model.decode(tape, z, neg, train=True, rng=drop_rng)
        return bce_loss(tape, lp, ln)

    return finite_difference_check(model.params(), loss, h=h)


def bench_batch(model, split, cfg, batch_size: int | None = None,
                warmup: int = 5, reps: int = 20) -> float:
    """Median seconds per full training step (forward, backward, update)."""
    from .train import single_batch_step

    step = single_batch_step(model, split, cfg, batch_size=batch_size)
    for _ in range(warmup):
        step()
    times = np.empty(reps)
    for r in range(reps):
        t0 = time.perf_counter()
        step()
        times[r] = time.perf_counter() - t0
    return float(np.median(times))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])
