"""Structural and feature link heuristics, and the dominance index built on them.

Structural scores sum over shared neighbors r of (u, v):
  CN: 1,  AA: 1/ln deg(r),  RA: 1/deg(r)
One numpy routine scores a whole batch. Pair i's two neighbor lists become
the codes i*n + r: one ascending run for the u side, then one for the v
side, because CSR rows are sorted. A stable sort merges the two runs in
linear time, and a code equal to the one before it is a shared r. A
bincount sums their weights per pair in ascending r, so scores are
symmetric in (u, v) to the bit. A chunk of pairs holds at most
CODE_BUDGET plus the largest deg(u) + deg(v) codes, however many pairs
share a hub.
The feature heuristic is cosine similarity of the endpoint feature rows.
All heuristic evaluation runs on the train-edge graph only.
"""

from __future__ import annotations

import numpy as np

from .evaluation import MetricSpec
from .graph import Graph, EdgeSplit

EPSILON = 1e-9
CODE_BUDGET = 1 << 17

HEURISTICS = ("cn", "aa", "ra", "cos")


def _neighbor_codes(g: Graph, rows: np.ndarray, start: np.ndarray,
                    deg: np.ndarray) -> np.ndarray:
    """``rows[j] * n + r`` for every r in CSR row j (``start[j]``, ``deg[j]``
    long); ascending over any stretch of ascending ``rows``. With ``rows``
    0..k-1 for the u sides and again for the v sides, that is the two runs
    the stable sort in ``_structural`` merges."""
    ends = np.cumsum(deg)
    offset = np.repeat(start - ends + deg, deg)
    pos = np.arange(len(offset)) + offset
    return np.repeat(rows * g.num_nodes, deg) + g.indices[pos]


def _structural(g: Graph, pairs: np.ndarray, which: str) -> np.ndarray:
    out = np.empty(len(pairs))
    start = g.indptr[pairs]
    size = g.indptr[pairs + 1] - start
    cuts = []
    if size.sum() >= CODE_BUDGET:  # pair i joins chunk (codes of pairs 0..i) // CODE_BUDGET
        chunk = np.cumsum(size)[1::2] // CODE_BUDGET
        cuts = (np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist()
    for s, e in zip([0, *cuts], [*cuts, len(pairs)]):
        ids = np.arange(e - s)
        codes = np.sort(_neighbor_codes(g, np.concatenate([ids, ids]), start[s:e].T.ravel(),
                                        size[s:e].T.ravel()), kind="stable")  # merges two runs
        i, r = np.divmod(codes[1:][codes[1:] == codes[:-1]], g.num_nodes)
        if which == "cn":
            out[s:e] = np.bincount(i, minlength=e - s)
            continue
        deg = g.indptr[r + 1] - g.indptr[r]  # degrees of the shared neighbors only
        if which == "aa" and np.any(deg < 2):  # deg < 2 is shared only by a self-pair
            bad = pairs[s + i[deg < 2][0], 0]
            raise ValueError(f"Adamic-Adar is undefined for self-pair ({bad}, {bad}): "
                             "it has a degree-1 neighbor, and 1/ln 1 is infinite")
        weight = 1.0 / np.log(deg) if which == "aa" else 1.0 / deg
        out[s:e] = np.bincount(i, weights=weight, minlength=e - s)
    return out


def score_edges(g: Graph, edges: np.ndarray, which: str) -> np.ndarray:
    """Score pairs of shape (..., 2) with one heuristic; returns shape (...).

    Cosine scores zero-vector rows as 0. A node id outside [0, n) raises
    ValueError naming the first such pair.
    """
    which = which.lower()
    if which not in HEURISTICS:
        raise ValueError(f"unknown heuristic {which!r}; choose from {HEURISTICS}")
    edges = np.asarray(edges, dtype=np.int64)
    flat = edges.reshape(-1, 2)
    n = g.num_nodes
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        bad = flat[((flat < 0) | (flat >= n)).any(axis=1)][0]
        raise ValueError(f"pair {bad.tolist()} has a node id outside [0, {n})")
    if which == "cos":
        x = g.features
        if x is None:
            raise ValueError(
                "cosine heuristic needs features; use all-ones features for "
                "featureless graphs")
        rows = x[flat.T]  # (2, m, d): only the endpoints' rows are normalised
        norms = np.linalg.norm(rows, axis=2)
        unit = rows / np.where(norms == 0.0, 1.0, norms)[..., None]
        scores = np.sum(unit[0] * unit[1], axis=1)
    else:
        scores = _structural(g, flat, which)
    return scores.reshape(edges.shape[:-1])


def _test_metric(g_train: Graph, split: EdgeSplit, which: str, metric: MetricSpec) -> float:
    return metric.evaluate(score_edges(g_train, split.test_pos, which),
                           score_edges(g_train, split.test_neg, which))


def heuristic_eval(g: Graph, split: EdgeSplit, which: str,
                   metric: MetricSpec) -> float:
    """Metric value of one heuristic on the split's test positives/negatives."""
    g_train = Graph.from_edges(g.num_nodes, split.train_pos, g.features)
    return _test_metric(g_train, split, which, metric)


def structure_feature_report(g: Graph, split: EdgeSplit,
                             metric: MetricSpec) -> dict:
    """Dominance index P_S/(P_S+P_F+eps) plus the raw ingredients.

    P_S is the common-neighbor performance, P_F the feature-cosine
    performance; featureless graphs fall back to all-ones features, which
    ties every pair and lands the cosine heuristic at the floor.
    """
    features = np.ones((g.num_nodes, 1)) if g.features is None else g.features
    g_train = Graph.from_edges(g.num_nodes, split.train_pos, features)
    p_s = _test_metric(g_train, split, "cn", metric)
    p_f = _test_metric(g_train, split, "cos", metric)
    index = p_s / (p_s + p_f + EPSILON)
    return {
        "p_structure": p_s,
        "p_feature": p_f,
        "index": index,
        "num_nodes": g.num_nodes,
        "avg_degree": float(g.degrees.mean()) if g.num_nodes else 0.0,
    }
