"""Structural and feature link heuristics, and the dominance index built on them.

Structural scores sum over shared neighbors r of (u, v):
  CN: 1,  AA: 1/ln deg(r),  RA: 1/deg(r)
The feature heuristic is cosine similarity of the endpoint feature rows.
All heuristic evaluation runs on the train-edge graph only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .evaluation import MetricSpec
from .graph import Graph, EdgeSplit

EPSILON = 1e-9


def _shared(g: Graph, u: int, v: int) -> np.ndarray:
    return np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True)


def common_neighbors(g: Graph, u: int, v: int) -> float:
    """|N(u) & N(v)|; for u == v this is deg(u) (self excluded by no-loops)."""
    if u == v:
        return float(g.degrees[u])
    return float(len(_shared(g, u, v)))


def adamic_adar(g: Graph, u: int, v: int) -> float:
    """Sum of 1/ln deg(r) over shared neighbors (natural log)."""
    shared = _shared(g, u, v)
    if len(shared) == 0:
        return 0.0
    deg = g.degrees[shared]
    if np.any(deg < 2):
        # Unreachable: a shared neighbor touches both u and v.
        raise ValueError("shared neighbor with degree < 2")
    return float(np.sum(1.0 / np.log(deg)))


def resource_allocation(g: Graph, u: int, v: int) -> float:
    """Sum of 1/deg(r) over shared neighbors."""
    shared = _shared(g, u, v)
    if len(shared) == 0:
        return 0.0
    return float(np.sum(1.0 / g.degrees[shared]))


HEURISTICS = ("cn", "aa", "ra", "cos")


def score_edges(g: Graph, edges: np.ndarray, which: str) -> np.ndarray:
    """Score pairs of shape (..., 2) with one heuristic; returns shape (...).

    Cosine scores zero-vector rows as 0.
    """
    which = which.lower()
    if which not in HEURISTICS:
        raise ValueError(f"unknown heuristic {which!r}; choose from {HEURISTICS}")
    edges = np.asarray(edges, dtype=np.int64)
    flat = edges.reshape(-1, 2)
    if which == "cos":
        x = g.features
        if x is None:
            raise ValueError(
                "cosine heuristic needs features; use all-ones features for "
                "featureless graphs")
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        xn = x / safe[:, None]
        scores = np.sum(xn[flat[:, 0]] * xn[flat[:, 1]], axis=1)
    else:
        fn = {"cn": common_neighbors, "aa": adamic_adar, "ra": resource_allocation}[which]
        scores = np.array([fn(g, int(u), int(v)) for u, v in flat], dtype=np.float64)
    return scores.reshape(edges.shape[:-1])


def heuristic_eval(g: Graph, split: EdgeSplit, which: str,
                   metric: MetricSpec) -> float:
    """Metric value of one heuristic on the split's test positives/negatives."""
    g_train = Graph.from_edges(g.num_nodes, split.train_pos, g.features)
    pos = score_edges(g_train, split.test_pos, which)
    neg = score_edges(g_train, split.test_neg, which)
    return metric.evaluate(pos, neg)


def structure_feature_report(g: Graph, split: EdgeSplit,
                             metric: MetricSpec) -> dict:
    """Dominance index P_S/(P_S+P_F+eps) plus the raw ingredients.

    P_S is the common-neighbor performance, P_F the feature-cosine
    performance; featureless graphs fall back to all-ones features, which
    ties every pair and lands the cosine heuristic at the floor.
    """
    p_s = heuristic_eval(g, split, "cn", metric)
    if g.features is None:
        g = replace(g, features=np.ones((g.num_nodes, 1)))
    p_f = heuristic_eval(g, split, "cos", metric)
    index = p_s / (p_s + p_f + EPSILON)
    return {
        "p_structure": p_s,
        "p_feature": p_f,
        "index": index,
        "num_nodes": g.num_nodes,
        "avg_degree": float(g.degrees.mean()) if g.num_nodes else 0.0,
    }
