"""Undirected sparse graphs and the operators built from them.

This module provides:
- Graph: immutable CSR graph (both edge directions stored) with optional
  dense node features
- load_graph: parse whitespace "u v" edge files plus an optional CSV
  feature file
- normalize: the symmetrically normalized adjacency with self-loops
- mean_adjacency / plain_adjacency: row-normalized and raw 0/1 operators
- SparseOperator: a fixed sparse matrix with deterministic dense products;
  ``restrict`` cuts stacked products down to a row set's receptive field
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


def _codes(edges: Array, n: int) -> Array:
    """``min(u, v) * n + max(u, v)`` of each pair; input shape (m, 2)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return e.min(axis=1) * n + e.max(axis=1)


def _decode(codes: Array, n: int) -> Array:
    return np.stack([codes // n, codes % n], axis=1).astype(np.int64)


def _unique(codes: Array) -> Array:
    """``np.unique`` of 1-D integer codes, by one sort and an adjacent-difference
    mask (numpy's hashing ``unique`` is many times slower on int64 codes)."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _find(sorted_codes: Array, codes: Array) -> tuple[Array, Array]:
    """Insertion positions of ``codes`` in the sorted, duplicate-free
    ``sorted_codes``, and whether each code is present there."""
    pos = np.searchsorted(sorted_codes, codes)
    if not len(sorted_codes):
        return pos, np.zeros(len(codes), dtype=bool)
    return pos, sorted_codes[np.minimum(pos, len(sorted_codes) - 1)] == codes


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form; immutable after construction.

    ``indptr``/``indices`` store both directions of every edge, column
    indices sorted ascending within each row. Duplicate edges and self-loops
    are dropped during construction.
    """

    num_nodes: int
    indptr: Array
    indices: Array
    features: Array | None = None
    _pair_codes: Array = field(default=None, repr=False)  # sorted canonical codes

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Array,
                   features: Array | None = None) -> "Graph":
        n = num_nodes
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"edge endpoint out of range for n={n}")
        codes = _unique(_codes(edges[edges[:, 0] != edges[:, 1]], n))
        u, v = np.divmod(codes, n)
        # row * n + col for both directions: sorted, that is CSR order
        rows, cols = np.divmod(np.sort(np.concatenate([codes, v * n + u])), n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != n:
                raise ValueError(
                    f"feature rows ({features.shape[0] if features.ndim == 2 else '?'}) "
                    f"must equal num_nodes ({n})")
            finite = np.isfinite(features).all(axis=1)
            if not finite.all():
                row = int(np.argmin(finite))
                raise ValueError(f"feature row {row} is not finite: "
                                 f"{features[row][~np.isfinite(features[row])][0]}")
        return cls(n, indptr, cols, features, codes)

    @property
    def degrees(self) -> Array:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def edge_list(self) -> Array:
        """Canonical (u < v) undirected edge list, shape (num_edges, 2)."""
        return _decode(self._pair_codes, self.num_nodes)


def load_graph(edge_file: str | Path, feature_file: str | Path | None = None) -> Graph:
    """Load an undirected graph from a "u v" edge file.

    Duplicate edges and self-loops are dropped.
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
    Products take dense inputs of the matrix's own dtype only. Symmetric
    operators reuse the forward kernel for the transpose product;
    asymmetric ones (row-normalized aggregation) multiply by the transposed
    (CSC) view of the matrix.
    """

    def __init__(self, mat: sp.csr_matrix, symmetric: bool = False):
        self.mat = mat.tocsr()
        self.mat.sort_indices()
        self.symmetric = symmetric
        self._entry_codes: Array | None = None  # row * n + col of every stored entry, ascending

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def _check(self, x: Array, rows: int, what: str) -> None:
        if x.ndim != 2 or x.shape[0] != rows:
            raise ValueError(f"{what} shape mismatch {self.shape} @ {x.shape}")
        if x.dtype != self.mat.dtype:
            raise ValueError(f"{what} dtype mismatch: the operator is {self.mat.dtype}, "
                             f"the input is {x.dtype}")

    def matvec(self, x: Array) -> Array:
        """Row-major sparse @ dense; bit-identical across repeated calls."""
        self._check(x, self.shape[1], "spmm")
        return self.mat @ x

    def rmatvec(self, x: Array) -> Array:
        """Transpose product; identical to matvec for symmetric operators."""
        if self.symmetric:
            return self.matvec(x)
        self._check(x, self.shape[0], "spmm^T")
        return self.mat.T @ x

    def restrict(self, rows: Array | None, depth: int
                 ) -> tuple[list[tuple["SparseOperator", Array | None]], Array | None]:
        """``depth`` stacked products ``x <- self @ x``, cut down to what the
        last product's ``rows`` (sorted, distinct ids; None for all) depend on.

        Walking down from ``rows``, each product computes only the rows the
        one above reads: its field, those rows and every column they store.
        A product whose field is every node runs on ``self`` for every row,
        and so does each product below it. Returns ``(layers, field)``: per
        product, the first first, ``(op, rows)``, where ``op`` maps the
        product's input rows to its ``rows`` (None: every node); and the first
        product's input rows (None: every node). A cut ``op`` holds its rows'
        entries, explicit zeros included, in their order, so row i of its
        product is row ``rows[i]`` of ``matvec`` to the bit.
        """
        n = self.shape[0]
        rows = None if rows is None or len(rows) == n else rows
        cut = []  # the cut products, the last first: rows, their row slice, field
        while len(cut) < depth and rows is not None:
            in_field = np.zeros(n, dtype=bool)  # a mask over n: no sort, no set union
            in_field[rows] = True
            sub = self.mat[rows]
            in_field[sub.indices] = True
            if in_field.all():
                rows = None
                break
            cut.append((rows, sub, in_field))
            rows = np.flatnonzero(in_field)
        layers = []
        for i, (out, sub, in_field) in enumerate(cut):
            if rows is not None or i < len(cut) - 1:  # the input is the field, not every node
                position = np.cumsum(in_field, dtype=sub.indices.dtype) - 1
                sub = sp.csr_matrix((sub.data, position[sub.indices], sub.indptr),
                                    shape=(len(out), int(position[-1]) + 1))
            layers.append((SparseOperator(sub), out))
        layers += [(self, None)] * (depth - len(cut))
        return layers[::-1], rows

    def without_edges(self, edges: Array) -> "SparseOperator":
        """Copy with the given undirected edges' values set to zero.

        Pairs the operator does not store are skipped. The copy shares this
        operator's index arrays and copies only the values.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = self.shape[1]
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise IndexError(f"edge endpoint out of range for a {self.shape} operator")
        if self._entry_codes is None:
            rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.mat.indptr))
            self._entry_codes = rows * n + self.mat.indices
        u, v = edges[:, 0], edges[:, 1]
        pos, found = _find(self._entry_codes, np.concatenate([u * n + v, v * n + u]))
        data = self.mat.data.copy()
        data[pos[found]] = 0.0
        out = SparseOperator(sp.csr_matrix((data, self.mat.indices, self.mat.indptr),
                                           shape=self.shape), self.symmetric)
        out._entry_codes = self._entry_codes
        return out


def _adjacency(g: Graph) -> sp.csr_matrix:
    """The float64 0/1 adjacency (no self-loops) on ``g``'s own CSR arrays."""
    return sp.csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr),
                         shape=(g.num_nodes, g.num_nodes))


def normalize(g: Graph, dtype=np.float64) -> SparseOperator:
    """Symmetrically normalized adjacency with self-loops, D^-1/2 (A + I) D^-1/2.

    Entry (u, v) = ((deg(u)+1) * (deg(v)+1)) ** -0.5 for every edge and
    every diagonal position; symmetric, all values in (0, 1]. Like every
    operator builder it computes in float64 and rounds once to ``dtype``.
    """
    d = sp.diags(1.0 / np.sqrt(g.degrees + 1.0))
    a = d @ (_adjacency(g) + sp.eye(g.num_nodes, format="csr")) @ d
    return SparseOperator(a.astype(dtype), symmetric=True)


def mean_adjacency(g: Graph, dtype=np.float64) -> SparseOperator:
    """Row-normalized adjacency (no self-loops), D^-1 A; isolated rows stay zero."""
    deg = g.degrees.astype(np.float64)
    scale = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return SparseOperator((sp.diags(scale) @ _adjacency(g)).astype(dtype), symmetric=False)


def plain_adjacency(g: Graph, dtype=np.float64) -> SparseOperator:
    """Raw 0/1 adjacency (no self-loops)."""
    return SparseOperator(_adjacency(g).astype(dtype), symmetric=True)


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

    def save(self, path: str | Path) -> None:
        blob = {
            "train": self.train_pos.tolist(),
            "valid": self.valid_pos.tolist(),
            "test": self.test_pos.tolist(),
            "neg": {"valid": self.valid_neg.tolist(), "test": self.test_neg.tolist()},
        }
        Path(path).write_text(json.dumps(blob))

    @classmethod
    def load(cls, path: str | Path, num_nodes: int, metric=None) -> "EdgeSplit":
        """Read a split written by ``save`` for a graph on ``num_nodes`` nodes.

        Each list is read as given, never reshaped: ``validate`` checks its
        shape and the rest, against ``metric`` if given, naming the file."""
        blob = json.loads(Path(path).read_text())

        def get(obj, key: str, where: str):
            if not isinstance(obj, dict) or key not in obj:
                raise ValueError(f"split file {path}: {where} is not a JSON object "
                                 f"with a {key!r} key")
            return obj[key]

        def pairs(name: str, ids) -> Array:
            # a cast to int64 would read 1.5 or "1" as node 1
            try:
                arr = np.asarray(ids)
                if arr.size == 0 or arr.dtype.kind in "iu":
                    return arr.astype(np.int64)
            except ValueError:  # a ragged list
                pass
            raise ValueError(f"split {name}: not a rectangular list of integer ids in {path}")

        neg = get(blob, "neg", "the top level")
        split = cls(*(pairs(key, get(blob, key, "the top level"))
                      for key in ("train", "valid", "test")),
                    *(pairs(f"{key} negatives", get(neg, key, "'neg'"))
                      for key in ("valid", "test")))
        split.validate(num_nodes, metric, str(path))
        return split

    def validate(self, num_nodes: int, metric=None, source: str = "the split") -> None:
        """Raise ValueError for a malformed or leaky split of a graph on
        ``num_nodes`` nodes; every split that reaches training passes here.

        Rejects an empty set (negatives included), node ids outside
        [0, num_nodes), self-pairs, positives shaped other than (m, 2),
        negatives shaped other than (m, 2) or (m, k, 2), per-source
        negatives without one candidate set per positive of their set,
        valid or test pools too small for ``metric`` (any object
        with ``check_pool``, e.g. ``MetricSpec``; ``source`` names the split),
        positives shared between train, valid and test, and negatives that
        are positives of the split.
        """
        positives = {"train": self.train_pos, "valid": self.valid_pos, "test": self.test_pos}
        named = {**positives, "valid negatives": self.valid_neg,
                 "test negatives": self.test_neg}
        for name, pairs in named.items():
            negative = name not in positives
            if not pairs.size:
                kind = "negative" if negative else "positive"
                raise ValueError(f"split {name}: no {kind} pairs")
            if pairs.ndim not in ((2, 3) if negative else (2,)) or pairs.shape[-1] != 2:
                shapes = "(m, 2) or (m, k, 2)" if negative else "(m, 2)"
                raise ValueError(f"split {name}: shape {pairs.shape} is not {shapes} "
                                 f"in {source}")
            owner = name.split()[0]
            if pairs.ndim == 3 and len(pairs) != len(positives[owner]):
                raise ValueError(f"split {name}: {len(pairs)} per-source candidate sets for "
                                 f"{len(positives[owner])} {owner} positives in {source}")
            if pairs.min() < 0 or pairs.max() >= num_nodes:
                raise ValueError(f"split {name}: node id out of range [0, {num_nodes}): "
                                 f"{pairs.min()} .. {pairs.max()}")
            flat = pairs.reshape(-1, 2)
            loops = flat[:, 0] == flat[:, 1]
            if loops.any():
                raise ValueError(f"split {name}: self-pair {flat[loops][0].tolist()}")
        if metric is not None:
            for name, neg in (("valid", self.valid_neg), ("test", self.test_neg)):
                metric.check_pool(neg.shape[:-1], f"neg.{name} of {source}")
        codes = {name: _unique(_codes(pairs, num_nodes)) for name, pairs in positives.items()}
        for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
            shared = np.intersect1d(codes[a], codes[b], assume_unique=True)
            if len(shared):
                raise ValueError(f"split: {len(shared)} positive(s) in both {a} and {b}, "
                                 f"e.g. {_decode(shared[:1], num_nodes)[0].tolist()}")
        positive = np.sort(np.concatenate(list(codes.values())))
        for name in ("valid negatives", "test negatives"):
            flat = named[name].reshape(-1, 2)
            leaked = _find(positive, _codes(flat, num_nodes))[1]
            if leaked.any():
                raise ValueError(f"split {name}: {flat[leaked][0].tolist()} is a positive "
                                 "of the split")


def random_split(g: Graph, seed: int = 0) -> EdgeSplit:
    """Random 70/10/20 train/valid/test edge split; bucket sizes use
    floor-then-distribute rounding.

    Negative pools of size |valid| and |test| are sampled jointly from the
    non-edges, so they are disjoint from each other and from every edge.
    """
    edges = g.edge_list()
    m = len(edges)
    sizes = [int(r * m) for r in (0.7, 0.1, 0.2)]
    for i in range(m - sum(sizes)):
        sizes[i] += 1
    if 0 in sizes:
        raise ValueError(f"graph has too few edges ({m}) for a 70/10/20 split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    a, b = sizes[0], sizes[0] + sizes[1]
    train, valid, test = edges[perm[:a]], edges[perm[a:b]], edges[perm[b:]]
    negs = sample_negatives(g, sizes[1] + sizes[2], rng)
    return EdgeSplit(train, valid, test, negs[:sizes[1]], negs[sizes[1]:])


def sample_negatives(g: Graph, count: int, seed: int | np.random.Generator) -> Array:
    """Uniformly sample ``count`` distinct non-edges.

    Returns canonical (u < v) pairs, shape (count, 2).
    """
    rng = np.random.default_rng(seed)
    n = g.num_nodes
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    available = n * (n - 1) // 2 - g.num_edges
    if count > available:
        raise ValueError(f"requested {count} negatives but only {available} non-edges exist")

    if count * 3 >= available:
        # Dense regime: enumerate every non-edge and sample without replacement.
        iu, ju = np.triu_indices(n, k=1)
        codes = iu.astype(np.int64) * n + ju
        pool = codes[~_find(g._pair_codes, codes)[1]]
        picked = rng.choice(pool, size=count, replace=False)
        return _decode(np.sort(picked), n)

    taken = np.empty(0, dtype=np.int64)
    while len(taken) < count:
        k = max(1024, 2 * (count - len(taken)))
        u = rng.integers(0, n, k)
        v = rng.integers(0, n, k)
        keep = u != v
        both = np.concatenate([taken, np.minimum(u[keep], v[keep]) * n
                               + np.maximum(u[keep], v[keep])])
        # Each code's first draw (the sort is stable) if it is a non-edge, in draw order.
        order = np.argsort(both, kind="stable")
        codes = both[order]
        first = (np.diff(codes, prepend=-1) != 0) & ~_find(g._pair_codes, codes)[1]
        taken = both[np.sort(order[first])[:count]]
    return _decode(taken, n)
