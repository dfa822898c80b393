"""Benchmark-owned references that the correctness gates compare linkgae against.

They are written independently of the package: scipy sparse products for
the heuristics, a plain float64 numpy forward for the model, and a
per-source ranking for MRR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of undirected edges."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    a = (a + a.T).tocsr()
    a.data[:] = 1.0
    return a


def gcn_operator(a: sp.csr_matrix) -> sp.csr_matrix:
    """(D+I)^-1/2 (A+I) (D+I)^-1/2."""
    inv = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel() + 1.0)
    d = sp.diags(inv)
    return (d @ (a + sp.identity(a.shape[0])) @ d).tocsr()


def heuristic_scores(a: sp.csr_matrix, pairs: np.ndarray, which: str) -> np.ndarray:
    """CN = A·A, AA = A·diag(1/ln d)·A, RA = A·D^-1·A, read at the given pairs."""
    deg = np.asarray(a.sum(axis=1)).ravel()
    weight = np.zeros_like(deg)
    if which == "cn":
        weight[:] = 1.0
    elif which == "aa":
        weight[deg > 1] = 1.0 / np.log(deg[deg > 1])
    elif which == "ra":
        weight[deg > 0] = 1.0 / deg[deg > 0]
    else:
        raise ValueError(f"no reference for heuristic {which!r}")
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.asarray(a[p[:, 0]].multiply(a[p[:, 1]]) @ weight).ravel()


def _check_supported(cfg) -> None:
    if (cfg.conv != "gcn" or not cfg.linear_encoder or not cfg.encoder_residual
            or cfg.decoder != "mlp" or not cfg.decoder_residual
            or cfg.input_mode not in ("raw", "learnable-orthogonal")):
        raise ValueError("the reference forward covers the benchmark's configs only")


def encode(params: dict[str, np.ndarray], cfg, a_hat: sp.csr_matrix,
           features: np.ndarray | None) -> np.ndarray:
    """Linear GCN encoder with initial residual, in float64."""
    _check_supported(cfg)
    p = {k: v.astype(np.float64) for k, v in params.items()}
    z0 = features @ p["input.w_proj"] if cfg.input_mode == "raw" else p["input.table"]
    z = z0
    for layer in range(cfg.mpnn_layers):
        z = (a_hat @ z) @ p[f"enc.{layer}.w"] + z0
    if cfg.normalize_embeddings:
        z = z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    return z


def decode(params: dict[str, np.ndarray], cfg, z: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Residual MLP over the Hadamard product, eval mode (no dropout)."""
    _check_supported(cfg)
    p = {k: v.astype(np.float64) for k, v in params.items()}
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h0 = z[e[:, 0]] * z[e[:, 1]]
    h = h0
    for layer in range(cfg.mlp_layers):
        h = np.maximum(h @ p[f"dec.{layer}.w"] + p[f"dec.{layer}.b"], 0.0) + h0
    return (h @ p["dec.head.w"] + p["dec.head.b"])[:, 0]


def per_source_mrr(pos: np.ndarray, neg: np.ndarray) -> float:
    """MRR with each positive ranked only against its own row of negatives."""
    pos = np.asarray(pos, dtype=np.float64).ravel()
    neg = np.asarray(neg, dtype=np.float64).reshape(len(pos), -1)
    return float(np.mean(1.0 / (1.0 + np.sum(neg >= pos[:, None], axis=1))))
