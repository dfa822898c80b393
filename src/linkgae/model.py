"""The graph autoencoder: an input table or projection, a linear
message-passing encoder, and a dot or Hadamard-MLP decoder.

Every parameter lives in one ordered table, ``GAEModel.tensors``, under its
name. The encoder stacks GCN/SAGE/GIN convolutions without inter-layer
activations by default and adds the layer-0 representation back after
every layer (initial residual). On raw features a linear GCN/SAGE encoder
is computed as propagated features times one product of its weights
(``GAEModel._encode_propagated``). The decoder scores node pairs either by
dot product or with a residual MLP over the Hadamard product of the
endpoint embeddings. ``score_edges`` encodes only the rows its pairs'
endpoints depend on (``encode`` with ``nodes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .engine import BLOCK, Tape, Tensor
from .graph import (Graph, SparseOperator, mean_adjacency, normalize,
                    plain_adjacency)


def orthogonal_rows(n: int, d: int, rng: np.random.Generator,
                    dtype=np.float64) -> np.ndarray:
    """n unit rows in R^d, exactly orthonormal when n <= d.

    The Q factor, R's diagonal positive, of a seeded Gaussian: Householder
    QR for n <= d; for n > d CholeskyQR2 (twice q <- q R^-1, R^T R = q^T q),
    with rows then rescaled to unit norm, giving near-orthogonal rows.
    """
    if n <= d:
        q, r = np.linalg.qr(rng.standard_normal((d, n)))
        q = q * np.sign(np.diag(r))
        return np.ascontiguousarray(q.T, dtype=dtype)
    q = rng.standard_normal((n, d))
    for _ in range(2):
        q = q @ np.linalg.inv(np.linalg.cholesky(q.T @ q).T)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q.astype(dtype)


def _glorot(rows: int, cols: int, rng: np.random.Generator, dtype) -> np.ndarray:
    std = np.sqrt(2.0 / (rows + cols))
    return (rng.standard_normal((rows, cols)) * std).astype(dtype)


def _positions(within: np.ndarray | None, rows: np.ndarray | None) -> np.ndarray | None:
    """Where the sorted ids ``rows`` sit in the sorted ids ``within``; None
    stands for every node."""
    if rows is None or within is None:
        return rows
    return np.searchsorted(within, rows)


CONV_OPERATORS = {"gcn": normalize, "sage": mean_adjacency, "gin": plain_adjacency}


@dataclass
class MessageOperators:
    """The sparse operator a convolution aggregates with (``CONV_OPERATORS``),
    built from train edges in the dtype of the model that uses it."""

    op: SparseOperator

    @classmethod
    def build(cls, g: Graph, conv: str, dtype=np.float32) -> "MessageOperators":
        return cls(CONV_OPERATORS[conv](g, dtype))

    def masked(self, edges: np.ndarray) -> "MessageOperators":
        """Copy with the given edges' values zeroed."""
        return MessageOperators(self.op.without_edges(edges))


# The weights of one encoder layer per conv, in draw order: eps and the b*
# biases start at zero, every other weight is a seeded orthogonal d x d.
CONV_PARAMS = {"gcn": ("w",), "sage": ("w_self", "w_neigh"),
               "gin": ("eps", "w1", "b1", "w2", "b2")}


class GAEModel:
    """Input representation + encoder + decoder over one graph.

    ``tensors`` maps each parameter's name to it, in the order the seeded
    rng draws them: ``input.table`` (a constant for fixed-orthogonal) or
    ``input.w_proj``, then ``enc.<l>.<name>`` for ``CONV_PARAMS[conv]``,
    then ``dec.<l>.w``, ``dec.<l>.b`` and ``dec.head.w``, ``dec.head.b``.
    Raw mode keeps its node features as the constant ``features``.
    """

    def __init__(self, g: Graph, cfg: ModelConfig, seed: int | np.random.Generator = 0):
        rng = np.random.default_rng(seed)
        self.graph = g
        self.cfg = cfg
        self.features: Tensor | None = None
        self._propagated: tuple | None = None  # (op, x, features) of _encode_propagated
        n, d, dtype = g.num_nodes, cfg.hidden_dim, cfg.np_dtype
        t: dict[str, Tensor] = {}
        if cfg.input_mode == "raw":
            if g.features is None:
                raise ValueError(
                    "input mode 'raw' needs node features; this graph has none "
                    "(use the all-ones or learnable-orthogonal mode instead)")
            self.features = Tensor(g.features.astype(dtype))
            t["input.w_proj"] = Tensor(_glorot(g.features.shape[1], d, rng, dtype), param=True)
        elif cfg.input_mode == "all-ones":
            t["input.table"] = Tensor(np.ones((n, d), dtype=dtype), param=True)
        elif cfg.input_mode == "random-uniform":
            t["input.table"] = Tensor(rng.uniform(-1.0, 1.0, (n, d)).astype(dtype), param=True)
        else:  # learnable- or fixed-orthogonal
            t["input.table"] = Tensor(orthogonal_rows(n, d, rng, dtype),
                                      param=cfg.input_mode == "learnable-orthogonal")
        for l in range(cfg.mpnn_layers):
            for name in CONV_PARAMS[cfg.conv]:
                value = (np.zeros((1, 1) if name == "eps" else (1, d), dtype=dtype)
                         if name[0] in "eb" else orthogonal_rows(d, d, rng, dtype))
                t[f"enc.{l}.{name}"] = Tensor(value, param=True)
        if cfg.decoder == "mlp":
            for l in range(cfg.mlp_layers):
                t[f"dec.{l}.w"] = Tensor(orthogonal_rows(d, d, rng, dtype), param=True)
                t[f"dec.{l}.b"] = Tensor(np.zeros((1, d), dtype=dtype), param=True)
            t["dec.head.w"] = Tensor(_glorot(d, 1, rng, dtype), param=True)
            t["dec.head.b"] = Tensor(np.zeros((1, 1), dtype=dtype), param=True)
        self.tensors = t

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def named_params(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.tensors.items() if t.tracked}

    @property
    def propagates_features(self) -> bool:
        """Whether ``encode`` runs ``_encode_propagated``: raw input, a
        linear GCN/SAGE encoder, and features no wider than the hidden
        width, where propagating the features is cheaper than the layers."""
        cfg = self.cfg
        return (cfg.input_mode == "raw" and cfg.linear_encoder
                and cfg.conv in ("gcn", "sage")
                and self.features.shape[1] <= cfg.hidden_dim)

    def encode(self, tape: Tape, ops: MessageOperators,
               nodes: np.ndarray | None = None) -> Tensor:
        """Node embeddings; given ``nodes`` (sorted, distinct ids), only their
        rows, in that order, unless the last layer reads every node: then
        every row, as without ``nodes`` (a caller tells them apart by length).

        An output row depends only on the row's receptive field, so, walking
        down from ``nodes``, each layer computes only the rows the layer above
        reads (``SparseOperator.restrict``); a layer that reads every node
        runs on ``ops.op`` itself, for every row. The rows take the same
        sparse row sums, elementwise steps and GEMMs as the whole graph's.
        """
        if self.propagates_features:
            return self._encode_propagated(tape, ops, nodes)
        layers, rows = ops.op.restrict(nodes, self.cfg.mpnn_layers)
        if self.features is None:
            z0 = self.tensors["input.table"]
            z0 = z0 if rows is None else tape.gather_rows(z0, rows)
        else:
            x = self.features if rows is None else Tensor(self.features.value[rows])
            z0 = tape.matmul(x, self.tensors["input.w_proj"])
        plan, below = [], rows
        for op, out in layers:
            plan.append((op, _positions(below, out), _positions(rows, out)))
            below = out
        return self.encode_layers(tape, ops, z0, plan)

    def encode_layers(self, tape: Tape, ops: MessageOperators, z0: Tensor,
                      plan: list | None = None) -> Tensor:
        """The encoder layer by layer from the layer-0 representation ``z0``.

        ``plan`` (see ``encode``) gives each layer its operator and, as
        positions or None for all, its own-term rows in the layer's input and
        its residual rows in ``z0``; without one every layer runs on
        ``ops.op`` over every node."""
        cfg = self.cfg
        z = z0
        for l, (op, own, res) in enumerate(plan or [(ops.op, None, None)] * cfg.mpnn_layers):
            p = {name: self.tensors[f"enc.{l}.{name}"] for name in CONV_PARAMS[cfg.conv]}
            mine = z if own is None or cfg.conv == "gcn" else tape.gather_rows(z, own)
            if cfg.conv == "gcn":
                c = tape.matmul(tape.spmm(op, z), p["w"])
            elif cfg.conv == "sage":
                c = tape.add(tape.matmul(mine, p["w_self"]),
                             tape.matmul(tape.spmm(op, z), p["w_neigh"]))
            else:  # gin: 2-layer MLP on (1+eps)*z + sum-aggregate(z)
                mixed = tape.add(tape.add(mine, tape.scalar_mul(mine, p["eps"])),
                                 tape.spmm(op, z))
                h = tape.dense_block(mixed, p["w1"], p["b1"], None, 0.0, None)
                c = tape.add(tape.matmul(h, p["w2"]), p["b2"])
            if not cfg.linear_encoder and l < cfg.mpnn_layers - 1:
                c = tape.relu(c)
            if cfg.encoder_residual:
                c = tape.add(c, z0 if res is None else tape.gather_rows(z0, res))
            z = c
        return tape.l2_normalize(z) if cfg.normalize_embeddings else z

    def _encode_propagated(self, tape: Tape, ops: MessageOperators,
                           nodes: np.ndarray | None = None) -> Tensor:
        """The linear GCN/SAGE encoder on raw features x, as one GEMM, on
        the rows ``nodes`` of the propagated features (all when None).

        With z_0 = x W_proj and z_l = M z_{l-1} W_neigh,l + z_{l-1} W_self,l
        (+ z_0 with the residual), z_L = sum_k (M^k x) C_k exactly. The
        features are propagated as constants (no tape node, no backward);
        only the f x d coefficients C_k are built on the tape, by
        C_k <- C_k W_self,l + C_{k-1} W_neigh,l (+ W_proj for k = 0).
        Coefficients known to be zero are skipped.
        """
        cfg, t = self.cfg, self.tensors
        w_proj = t["input.w_proj"]
        coef: list[Tensor | None] = [w_proj]
        for l in range(cfg.mpnn_layers):
            w_self = t.get(f"enc.{l}.w_self")  # gcn has none
            w_neigh = t[f"enc.{l}.w"] if cfg.conv == "gcn" else t[f"enc.{l}.w_neigh"]
            nxt = []
            for k in range(len(coef) + 1):
                terms = []
                if k < len(coef) and coef[k] is not None and w_self is not None:
                    terms.append(tape.matmul(coef[k], w_self))
                if k > 0 and coef[k - 1] is not None:
                    terms.append(tape.matmul(coef[k - 1], w_neigh))
                if k == 0 and self.cfg.encoder_residual:
                    terms.append(w_proj)
                c = terms[0] if terms else None
                for term in terms[1:]:
                    c = tape.add(c, term)
                nxt.append(c)
            coef = nxt
        keep = [k for k, c in enumerate(coef) if c is not None]
        stacked = coef[keep[0]]
        for k in keep[1:]:
            stacked = tape.concat_rows(stacked, coef[k])
        # The features are reused while ops.op and x are the objects of the
        # last call: operators are immutable and features are never written in
        # place. The old entry goes first, so a miss never holds two.
        x, hit = self.features.value, self._propagated
        if hit is None or hit[0] is not ops.op or hit[1] is not x:
            self._propagated = None
            feats = [x]
            for _ in range(cfg.mpnn_layers):
                feats.append(ops.op.matvec(feats[-1]))
            hit = (ops.op, x, np.concatenate([feats[k] for k in keep], axis=1))
            hit[2].flags.writeable = False
            self._propagated = hit
        z = tape.matmul(Tensor(hit[2] if nodes is None else hit[2][nodes]), stacked)
        return tape.l2_normalize(z) if cfg.normalize_embeddings else z

    def decode(self, tape: Tape, z: Tensor, edges: np.ndarray) -> Tensor:
        """Logits for ``edges``, without dropout (see ``train.pair_loss``)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        zu, zv = tape.gather_rows(z, edges[:, 0]), tape.gather_rows(z, edges[:, 1])
        if self.cfg.decoder == "dot":
            return tape.row_dot(zu, zv)
        return self.decode_mlp(tape, tape.hadamard(zu, zv), self.decoder_weights())

    def decoder_weights(self) -> list[Tensor]:
        """The MLP decoder's ``dec.*`` tensors, in ``tensors`` order."""
        return [t for name, t in self.tensors.items() if name.startswith("dec.")]

    def decode_mlp(self, tape: Tape, h0: Tensor, weights: list[Tensor],
                   rng: np.random.Generator | None = None) -> Tensor:
        """The MLP decoder's logits from its Hadamard input ``h0``, with
        ``weights`` in ``decoder_weights`` order; dropout runs only when
        given an ``rng``."""
        cfg = self.cfg
        h, res = h0, h0 if cfg.decoder_residual else None
        for l in range(cfg.mlp_layers):
            h = tape.dense_block(h, weights[2 * l], weights[2 * l + 1], res, cfg.dropout, rng)
        return tape.add(tape.matmul(h, weights[-2]), weights[-1])

    def embed(self, ops: MessageOperators) -> np.ndarray:
        """Eval-mode node embeddings: the encoder's forward pass on an
        unrecorded tape."""
        return self.encode(Tape(record=False), ops).value

    def score_pairs(self, z: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Eval-mode logits from embeddings ``z`` (see ``embed``) for pairs of
        shape (..., 2), returned as shape (...). Pairs are decoded ``BLOCK``
        at a time, the blocks training's loss uses."""
        edges = np.asarray(edges, dtype=np.int64)
        flat = edges.reshape(-1, 2)
        tape, zt = Tape(record=False), Tensor(z)
        parts = [self.decode(tape, zt, flat[i:i + BLOCK]).value[:, 0]
                 for i in range(0, len(flat), BLOCK)]
        scores = np.concatenate(parts) if parts else np.empty(0, dtype=self.cfg.np_dtype)
        return scores.reshape(edges.shape[:-1])

    def score_edges(self, ops: MessageOperators, edges: np.ndarray) -> np.ndarray:
        """Eval-mode logits for pairs of shape (..., 2), returned as shape (...).

        Encodes only the rows the pairs' endpoints depend on (``encode`` with
        ``nodes``), so a few pairs cost a few receptive fields; a layer that
        reads every node runs on ``ops.op`` itself, so a pool that covers the
        graph costs one whole encode. The scores equal
        ``score_pairs(embed(ops), edges)`` to the bit wherever BLAS computes a
        product's row alike for any row count, which depends on the BLAS
        kernel and the widths; where it does not, rows differ in the last
        bits. A lone endpoint is encoded with a second node, as numpy multiplies a
        single row by gemv. To score several sets of pairs with the same
        weights, ``embed`` once and call ``score_pairs``."""
        edges = np.asarray(edges, dtype=np.int64)
        n = self.graph.num_nodes
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise IndexError(f"score_edges node id out of range for {n} nodes")
        used = np.zeros(n, dtype=bool)
        used[edges.ravel()] = True
        if n > 1 and np.count_nonzero(used) == 1:
            used[int(used[0])] = True  # node 0, or node 1 when the endpoint is 0
        z = self.encode(Tape(record=False), ops, np.flatnonzero(used)).value
        return self.score_pairs(z, edges if len(z) == n else (np.cumsum(used) - 1)[edges])

    def snapshot(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params()]

    def restore(self, snap: list[np.ndarray]) -> None:
        for p, v in zip(self.params(), snap):
            p.value = v.copy()
