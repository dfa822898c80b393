"""Undirected sparse graphs and the operators built from them.

This module provides:
- Graph: immutable CSR graph (both edge directions stored) with optional
  dense node features
- load_graph: parse whitespace "u v" edge files plus an optional CSV
  feature file
- normalize: the symmetrically normalized adjacency with self-loops
- mean_adjacency / plain_adjacency: row-normalized and raw 0/1 operators
- SparseOperator: a fixed sparse matrix with deterministic dense products
- random_split / sample_negatives: edge splits and uniform non-edge
  sampling, plus a JSON split cache
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

Array = np.ndarray


def _canonical(edges: Array) -> Array:
    """Sort each pair so u < v; input shape (m, 2)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.stack([e.min(axis=1), e.max(axis=1)], axis=1)


def _codes(edges: Array, n: int) -> Array:
    e = _canonical(edges)
    return e[:, 0] * n + e[:, 1]


def _decode(codes: Array, n: int) -> Array:
    return np.stack([codes // n, codes % n], axis=1).astype(np.int64)


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form; immutable after construction.

    ``indptr``/``indices`` store both directions of every edge, column
    indices sorted ascending within each row. ``dropped`` counts the
    duplicate/self-loop inputs discarded during construction.
    """

    num_nodes: int
    indptr: Array
    indices: Array
    features: Array | None = None
    dropped: int = 0
    _pair_codes: Array = field(default=None, repr=False)  # sorted canonical codes

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Array,
                   features: Array | None = None) -> "Graph":
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise ValueError(f"edge endpoint out of range for n={num_nodes}")
        self_loops = int(np.sum(edges[:, 0] == edges[:, 1]))
        edges = edges[edges[:, 0] != edges[:, 1]]
        codes = np.unique(_codes(edges, num_nodes)) if edges.size else np.empty(0, np.int64)
        dropped = self_loops + (len(edges) - len(codes))
        und = _decode(codes, num_nodes)
        both = np.concatenate([und, und[:, ::-1]], axis=0) if und.size else und
        order = np.lexsort((both[:, 1], both[:, 0])) if both.size else np.empty(0, np.int64)
        both = both[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, both[:, 0] + 1, 1)
        indptr = np.cumsum(indptr)
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != num_nodes:
                raise ValueError(
                    f"feature rows ({features.shape[0] if features.ndim == 2 else '?'}) "
                    f"must equal num_nodes ({num_nodes})")
        return cls(num_nodes, indptr, both[:, 1].copy(), features, dropped, codes)

    @property
    def degrees(self) -> Array:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def neighbors(self, u: int) -> Array:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edge_list(self) -> Array:
        """Canonical (u < v) undirected edge list, shape (num_edges, 2)."""
        return _decode(self._pair_codes, self.num_nodes)

    def has_edges(self, pairs: Array) -> Array:
        """Vectorized membership test for canonical pairs."""
        codes = _codes(pairs, self.num_nodes)
        pos = np.searchsorted(self._pair_codes, codes)
        pos = np.minimum(pos, len(self._pair_codes) - 1) if len(self._pair_codes) else pos
        if not len(self._pair_codes):
            return np.zeros(len(codes), dtype=bool)
        return self._pair_codes[pos] == codes

    def validate(self) -> None:
        """Check the CSR invariants; raises AssertionError on violation."""
        n = self.num_nodes
        assert self.indptr.shape == (n + 1,) and self.indptr[0] == 0
        assert self.indptr[-1] == len(self.indices)
        assert np.all(self.degrees >= 0), "indptr not monotone"
        rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        cols = np.asarray(self.indices, dtype=np.int64)
        assert cols.size == 0 or (cols.min() >= 0 and cols.max() < n), "column out of range"
        codes = rows * n + cols  # strictly increasing iff every row is strictly sorted
        unsorted = np.diff(codes) <= 0
        assert not unsorted.any(), f"row {rows[1:][unsorted][0]} not strictly sorted"
        loops = rows == cols
        assert not loops.any(), f"self-loop at {rows[loops][0]}"
        assert np.array_equal(codes, np.sort(cols * n + rows)), "asymmetric edge"


def load_graph(edge_file: str | Path, feature_file: str | Path | None = None) -> Graph:
    """Load an undirected graph from a "u v" edge file.

    Duplicate edges and self-loops are dropped (counted in ``graph.dropped``).
    If ``feature_file`` is given, node count is taken from its row count and
    every edge endpoint must fit; otherwise it is max node id + 1.
    """
    edge_file = Path(edge_file)
    edges = []
    with open(edge_file) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise ValueError(f"{edge_file}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{edge_file}:{lineno}: non-integer node id in {line!r}") from None
            if u < 0 or v < 0:
                raise ValueError(f"{edge_file}:{lineno}: negative node id in {line!r}")
            edges.append((u, v))
    if not edges:
        raise ValueError(f"{edge_file}: no edges found")
    edges = np.asarray(edges, dtype=np.int64)

    features = None
    if feature_file is not None:
        features = np.loadtxt(feature_file, delimiter=",", dtype=np.float64, ndmin=2)
        num_nodes = features.shape[0]
        if edges.max() >= num_nodes:
            raise ValueError(
                f"feature file has {num_nodes} rows but edge file references "
                f"node {edges.max()}")
    else:
        num_nodes = int(edges.max()) + 1
    return Graph.from_edges(num_nodes, edges, features)


# ---------------------------------------------------------------------------
# Sparse operators
# ---------------------------------------------------------------------------

class SparseOperator:
    """A fixed sparse matrix with a deterministic dense product.

    Immutable; ``without_edges`` returns a value-zeroed copy (structure and
    degree scaling untouched), which is how per-batch input masking works.
    Symmetric operators reuse the forward kernel for the transpose product;
    asymmetric ones (row-normalized aggregation) materialize the transpose.
    """

    def __init__(self, mat: sp.csr_matrix, symmetric: bool = False):
        self.mat = mat.tocsr()
        self.mat.sort_indices()
        self.symmetric = symmetric
        self._mat32: sp.csr_matrix | None = None
        self._mat_t: sp.csr_matrix | None = None
        self._mat_t32: sp.csr_matrix | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def matvec(self, x: Array) -> Array:
        """Row-major sparse @ dense; bit-identical across repeated calls."""
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"spmm shape mismatch {self.shape} @ {x.shape}")
        if x.dtype == np.float32:
            if self._mat32 is None:
                self._mat32 = self.mat.astype(np.float32)
            return self._mat32 @ x
        return self.mat @ x

    def rmatvec(self, x: Array) -> Array:
        """Transpose product; identical to matvec for symmetric operators."""
        if self.symmetric:
            return self.matvec(x)
        if x.ndim != 2 or x.shape[0] != self.shape[0]:
            raise ValueError(f"spmm^T shape mismatch {self.shape}^T @ {x.shape}")
        if self._mat_t is None:
            self._mat_t = self.mat.T.tocsr()
            self._mat_t.sort_indices()
        if x.dtype == np.float32:
            if self._mat_t32 is None:
                self._mat_t32 = self._mat_t.astype(np.float32)
            return self._mat_t32 @ x
        return self._mat_t @ x

    def toarray(self) -> Array:
        return self.mat.toarray()

    def without_edges(self, edges: Array) -> "SparseOperator":
        """Copy with the given undirected edges' values set to zero."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        mat = self.mat.copy()
        indptr, indices, data = mat.indptr, mat.indices, mat.data
        for u, v in np.concatenate([edges, edges[:, ::-1]], axis=0):
            lo, hi = indptr[u], indptr[u + 1]
            k = lo + np.searchsorted(indices[lo:hi], v)
            if k < hi and indices[k] == v:
                data[k] = 0.0
        return SparseOperator(mat, self.symmetric)


def normalize(g: Graph) -> SparseOperator:
    """Symmetrically normalized adjacency with self-loops.

    Entry (u, v) = ((deg(u)+1) * (deg(v)+1)) ** -0.5 for every edge and
    every diagonal position; symmetric, all values in (0, 1].
    """
    n = g.num_nodes
    inv = 1.0 / np.sqrt(g.degrees + 1.0)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([g.indices, np.arange(n, dtype=np.int64)])
    vals = inv[rows] * inv[cols]
    return SparseOperator(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)),
                          symmetric=True)


def mean_adjacency(g: Graph) -> SparseOperator:
    """Row-normalized adjacency (no self-loops); isolated rows stay zero."""
    n = g.num_nodes
    deg = g.degrees.astype(np.float64)
    scale = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    vals = scale[rows]
    return SparseOperator(sp.csr_matrix((vals, (rows, g.indices)), shape=(n, n)),
                          symmetric=False)


def plain_adjacency(g: Graph) -> SparseOperator:
    """Raw 0/1 adjacency (no self-loops)."""
    n = g.num_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    vals = np.ones(len(g.indices), dtype=np.float64)
    return SparseOperator(sp.csr_matrix((vals, (rows, g.indices)), shape=(n, n)),
                          symmetric=True)


# ---------------------------------------------------------------------------
# Splits and negative sampling
# ---------------------------------------------------------------------------

@dataclass
class EdgeSplit:
    """Positive train/valid/test edges plus evaluation negative pools.

    Negatives are global pools for ranking; ``*_neg`` may instead have
    shape (m, k, 2) when per-source candidate sets are used.
    """

    train_pos: Array
    valid_pos: Array
    test_pos: Array
    valid_neg: Array
    test_neg: Array
    seed: int

    def save(self, path: str | Path) -> None:
        blob = {
            "seed": self.seed,
            "train": self.train_pos.tolist(),
            "valid": self.valid_pos.tolist(),
            "test": self.test_pos.tolist(),
            "neg": {"valid": self.valid_neg.tolist(), "test": self.test_neg.tolist()},
        }
        Path(path).write_text(json.dumps(blob))

    @classmethod
    def load(cls, path: str | Path) -> "EdgeSplit":
        blob = json.loads(Path(path).read_text())
        return cls(
            train_pos=np.asarray(blob["train"], dtype=np.int64).reshape(-1, 2),
            valid_pos=np.asarray(blob["valid"], dtype=np.int64).reshape(-1, 2),
            test_pos=np.asarray(blob["test"], dtype=np.int64).reshape(-1, 2),
            valid_neg=np.asarray(blob["neg"]["valid"], dtype=np.int64),
            test_neg=np.asarray(blob["neg"]["test"], dtype=np.int64),
            seed=int(blob["seed"]),
        )


def random_split(g: Graph, ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
                 seed: int = 0) -> EdgeSplit:
    """Random edge split; bucket sizes use floor-then-distribute rounding.

    Negative pools of size |valid| and |test| are sampled jointly from the
    non-edges, so they are disjoint from each other and from every edge.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    edges = g.edge_list()
    m = len(edges)
    sizes = [int(r * m) for r in ratios]
    rem = m - sum(sizes)
    for i in range(len(sizes)):
        if rem <= 0:
            break
        sizes[i] += 1
        rem -= 1
    if any(s == 0 for s, r in zip(sizes, ratios) if r > 0):
        raise ValueError(f"graph has too few edges ({m}) for ratios {ratios}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    a, b = sizes[0], sizes[0] + sizes[1]
    train, valid, test = edges[perm[:a]], edges[perm[a:b]], edges[perm[b:]]
    negs = sample_negatives(g, sizes[1] + sizes[2], rng)
    return EdgeSplit(train, valid, test, negs[:sizes[1]], negs[sizes[1]:], seed)


def sample_negatives(g: Graph, count: int, seed: int | np.random.Generator,
                     exclude: Array | None = None) -> Array:
    """Uniformly sample ``count`` distinct non-edges, avoiding ``exclude``.

    Returns canonical (u < v) pairs, shape (count, 2).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = g.num_nodes
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    total_pairs = n * (n - 1) // 2
    excl_codes = np.empty(0, dtype=np.int64)
    if exclude is not None and len(exclude):
        excl_codes = np.unique(_codes(exclude, n))
        excl_codes = excl_codes[~np.isin(excl_codes, g._pair_codes)]
        excl_codes = excl_codes[excl_codes // n != excl_codes % n]
    available = total_pairs - g.num_edges - len(excl_codes)
    if count > available:
        raise ValueError(f"requested {count} negatives but only {available} non-edges exist")

    if count * 3 >= available:
        # Dense regime: enumerate every non-edge and sample without replacement.
        iu, ju = np.triu_indices(n, k=1)
        codes = iu.astype(np.int64) * n + ju
        pool = codes[~np.isin(codes, g._pair_codes)]
        if len(excl_codes):
            pool = pool[~np.isin(pool, excl_codes)]
        picked = rng.choice(pool, size=count, replace=False)
        return _decode(np.sort(picked), n)

    taken: set[int] = set()
    out = []
    while len(out) < count:
        k = max(1024, 2 * (count - len(out)))
        u = rng.integers(0, n, k)
        v = rng.integers(0, n, k)
        keep = u != v
        cand = np.minimum(u[keep], v[keep]) * n + np.maximum(u[keep], v[keep])
        if len(g._pair_codes):
            cand = cand[~np.isin(cand, g._pair_codes)]
        if len(excl_codes):
            cand = cand[~np.isin(cand, excl_codes)]
        for c in cand:
            ci = int(c)
            if ci not in taken:
                taken.add(ci)
                out.append(ci)
                if len(out) == count:
                    break
    return _decode(np.asarray(out, dtype=np.int64), n)
