"""Ranking metrics and embedding diagnostics, over numpy arrays only.

``MetricSpec.evaluate`` is the one entry point for Hits@K and MRR, and
``MetricSpec.check_pool`` the one rule for how many negatives a pool needs:
K for Hits@K, 1 for MRR, per source for per-source candidate sets. Tie
policy is pessimistic throughout: a positive tied with a negative counts as
ranked below it. A NaN score raises; an infinite one ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _scores(scores: np.ndarray, role: str) -> np.ndarray:
    """``scores`` as float64; a NaN raises, naming its role and flat index."""
    x = np.asarray(scores, dtype=np.float64)
    nan = np.isnan(x.ravel())
    if nan.any():
        raise ValueError(f"{role} score at flat index {int(np.argmax(nan))} is NaN")
    return x


def _ranks(pos_scores: np.ndarray, neg_scores: np.ndarray) -> np.ndarray:
    """1 + #(negatives scoring >= pos_i) per positive.

    ``neg_scores`` is one shared pool (1-D), ranked from one sort in
    O(m + k) memory, or per-source candidate sets of shape (num_pos, num_neg),
    each positive ranked against its own row.
    """
    pos = _scores(pos_scores, "positive").ravel()
    neg = _scores(neg_scores, "negative")
    if pos.size == 0:
        raise ValueError("ranking needs at least one positive")
    if neg.ndim == 1:
        return 1 + len(neg) - np.searchsorted(np.sort(neg), pos, side="left")
    if neg.ndim != 2:
        raise ValueError(f"neg_scores must be 1-D or 2-D, got ndim={neg.ndim}")
    if neg.shape[0] != pos.shape[0]:
        raise ValueError("per-source negatives must match the positive count")
    return 1 + np.sum(neg >= pos[:, None], axis=1)


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
        kind, _, k = name.partition("@")
        if kind == "hits" and k.strip().isdigit() and int(k) >= 1:
            return cls("hits", int(k))
        raise ValueError(f"unknown metric {name!r} (use 'hits@K' with K >= 1, or 'mrr')")

    def check_pool(self, shape: tuple[int, ...], where: str = "") -> None:
        """Raise ValueError unless negative scores of ``shape`` are enough
        for this metric. The pool holds ``shape[-1]`` negatives (0 for
        ``()``), shared or, for 2-D scores, per source; hits@K needs K of
        them and MRR 1. ``where`` names the pool."""
        have, need = (shape[-1] if shape else 0), (self.k if self.kind == "hits" else 1)
        if have < need:
            raise ValueError(f"{self} needs at least {need} negative{'s' * (need > 1)}"
                             f"{' per source' if len(shape) == 2 else ''}, got {have}"
                             f"{f' in {where}' if where else ''}")

    def evaluate(self, pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
        """Hits@K (fraction of positives ranked at most K) or mean reciprocal
        rank, rank as in ``_ranks``, once ``check_pool`` passes the negatives."""
        self.check_pool(np.shape(neg_scores))
        ranks = _ranks(pos_scores, neg_scores)
        return float(np.mean(ranks <= self.k) if self.kind == "hits" else np.mean(1.0 / ranks))

    def __str__(self) -> str:
        return f"hits@{self.k}" if self.kind == "hits" else "mrr"


ORTHOGONALITY_PAIRS = 10 ** 6  # row pairs orthogonality_stats samples above 2000 rows
ORTHOGONALITY_BLOCK = 1 << 19  # float64 elements per block of Gram rows or gathered rows


def orthogonality_stats(table: np.ndarray) -> tuple[float, float]:
    """Mean and std of |cosine| over distinct row pairs.

    All pairs when n <= 2000, in ``triu`` order from blocks of Gram rows,
    otherwise ``ORTHOGONALITY_PAIRS`` random pairs of seed 0. Rows are
    normalized, Gram rows computed and sampled pairs gathered in blocks of at
    most ``ORTHOGONALITY_BLOCK`` elements (at least two rows: numpy
    multiplies a single row by gemv). A row's sum does not depend on its
    block's row count, so the block size leaves the normalized rows and the
    sampled pairs alone; a Gram block's GEMM rows may differ from the
    whole Gram's in the last bit, on some shapes.
    """
    xn = np.array(table, dtype=np.float64)
    if xn.ndim != 2 or xn.shape[0] < 2:
        raise ValueError("orthogonality_stats needs a 2-D table with >= 2 rows")
    n = xn.shape[0]
    rows = max(1, ORTHOGONALITY_BLOCK // max(xn.shape[1], 1))
    for s in range(0, n, rows):  # normalize in place, one block of rows at a time
        block = xn[s:s + rows]
        block /= np.maximum(np.linalg.norm(block, axis=1, keepdims=True), 1e-30)
    if n <= 2000:
        vals = np.empty(n * (n - 1) // 2)
        at, gram_rows = 0, max(2, ORTHOGONALITY_BLOCK // n)
        for s in range(0, n - 1, gram_rows):  # the last row has no pair after it
            for i, row in enumerate(xn[s:s + gram_rows] @ xn.T, start=s):
                np.abs(row[i + 1:], out=vals[at:at + n - 1 - i])
                at += n - 1 - i
            del row  # a view that would keep this block alive through the next product
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, ORTHOGONALITY_PAIRS)
        j = rng.integers(0, n - 1, ORTHOGONALITY_PAIRS)
        j = j + (j >= i)
        vals = np.empty(ORTHOGONALITY_PAIRS)
        for s in range(0, ORTHOGONALITY_PAIRS, rows):
            prod = xn[i[s:s + rows]]
            prod *= xn[j[s:s + rows]]
            np.abs(np.sum(prod, axis=1), out=vals[s:s + rows])
    mean = vals.mean()
    vals -= mean  # np.std's steps in place, without its second vector
    vals *= vals
    return float(mean), float(np.sqrt(vals.sum() / len(vals)))
