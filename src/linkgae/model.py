"""Input representations, the linear message-passing encoder, and decoders.

The encoder stacks GCN/SAGE/GIN convolutions without inter-layer
activations by default and adds the layer-0 representation back after
every layer (initial residual). On raw features a linear GCN/SAGE encoder
is computed as propagated features times one product of its weights
(``Encoder.forward_propagated``). The decoder scores node pairs either by
dot product or with a residual MLP over the Hadamard product of the
endpoint embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CHOICES, ModelConfig
from .engine import Tape, Tensor
from .graph import (Graph, SparseOperator, mean_adjacency, normalize,
                    plain_adjacency)

SCORE_CHUNK = 16384  # pairs decoded at a time by GAEModel.score_pairs


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


class InputRepresentation:
    """Layer-0 node representation: an embedding table or projected raw features.

    The embedding table is a parameter for the learnable modes and a
    constant for fixed-orthogonal; the raw mode projects features to the
    hidden width with a learnable matrix.
    """

    def __init__(self, g: Graph, mode: str, dim: int, rng: np.random.Generator,
                 dtype=np.float64):
        n = g.num_nodes
        self.table: Tensor | None = None
        self.raw: Tensor | None = None
        self.w_proj: Tensor | None = None

        if mode == "raw":
            if g.features is None:
                raise ValueError(
                    "input mode 'raw' needs node features; this graph has none "
                    "(use the all-ones or learnable-orthogonal mode instead)")
            self.raw = Tensor(g.features.astype(dtype), name="features")
            d_f = g.features.shape[1]
            self.w_proj = Tensor(_glorot(d_f, dim, rng, dtype), param=True, name="input.w_proj")
        elif mode in ("learnable-orthogonal", "fixed-orthogonal"):
            table = orthogonal_rows(n, dim, rng, dtype)
            self.table = Tensor(table, param=(mode != "fixed-orthogonal"), name="input.table")
        elif mode == "all-ones":
            self.table = Tensor(np.ones((n, dim), dtype=dtype), param=True, name="input.table")
        elif mode == "random-uniform":
            table = rng.uniform(-1.0, 1.0, (n, dim)).astype(dtype)
            self.table = Tensor(table, param=True, name="input.table")
        else:
            raise ValueError(f"unknown input mode {mode!r}; choose from {CHOICES['input_mode']}")

    def params(self) -> list[Tensor]:
        return [t for t in (self.table, self.w_proj) if t is not None and t.tracked]

    def forward(self, tape: Tape) -> Tensor:
        if self.raw is None:
            return self.table
        return tape.matmul(self.raw, self.w_proj)


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


class Encoder:
    """Stack of message-passing layers sharing one width."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        d, dtype = cfg.hidden_dim, cfg.np_dtype
        self._propagated: tuple | None = None  # (op, x, features) of forward_propagated
        self.layers: list[dict[str, Tensor]] = []
        for l in range(cfg.mpnn_layers):
            if cfg.conv == "gcn":
                layer = {"w": Tensor(orthogonal_rows(d, d, rng, dtype), param=True,
                                     name=f"enc.{l}.w")}
            elif cfg.conv == "sage":
                layer = {
                    "w_self": Tensor(orthogonal_rows(d, d, rng, dtype), param=True,
                                     name=f"enc.{l}.w_self"),
                    "w_neigh": Tensor(orthogonal_rows(d, d, rng, dtype), param=True,
                                      name=f"enc.{l}.w_neigh"),
                }
            else:  # gin: 2-layer MLP on (1+eps)*z + sum-aggregate(z)
                layer = {
                    "eps": Tensor(np.zeros((1, 1), dtype=dtype), param=True,
                                  name=f"enc.{l}.eps"),
                    "w1": Tensor(orthogonal_rows(d, d, rng, dtype), param=True,
                                 name=f"enc.{l}.w1"),
                    "b1": Tensor(np.zeros((1, d), dtype=dtype), param=True,
                                 name=f"enc.{l}.b1"),
                    "w2": Tensor(orthogonal_rows(d, d, rng, dtype), param=True,
                                 name=f"enc.{l}.w2"),
                    "b2": Tensor(np.zeros((1, d), dtype=dtype), param=True,
                                 name=f"enc.{l}.b2"),
                }
            self.layers.append(layer)

    def params(self) -> list[Tensor]:
        return [t for layer in self.layers for t in layer.values()]

    def _conv(self, tape: Tape, ops: MessageOperators, z: Tensor, l: int) -> Tensor:
        layer = self.layers[l]
        if self.cfg.conv == "gcn":
            return tape.matmul(tape.spmm(ops.op, z), layer["w"])
        if self.cfg.conv == "sage":
            own = tape.matmul(z, layer["w_self"])
            agg = tape.matmul(tape.spmm(ops.op, z), layer["w_neigh"])
            return tape.add(own, agg)
        mixed = tape.add(tape.add(z, tape.scalar_mul(z, layer["eps"])),
                         tape.spmm(ops.op, z))
        h = tape.dense_block(mixed, layer["w1"], layer["b1"], None, 0.0, None)
        return tape.add(tape.matmul(h, layer["w2"]), layer["b2"])

    def forward(self, tape: Tape, ops: MessageOperators, z0: Tensor) -> Tensor:
        z = z0
        last = self.cfg.mpnn_layers - 1
        for l in range(self.cfg.mpnn_layers):
            c = self._conv(tape, ops, z, l)
            if not self.cfg.linear_encoder and l < last:
                c = tape.relu(c)
            z = tape.add(c, z0) if self.cfg.encoder_residual else c
        return tape.l2_normalize(z) if self.cfg.normalize_embeddings else z

    def forward_propagated(self, tape: Tape, ops: MessageOperators, x: np.ndarray,
                           w_proj: Tensor) -> Tensor:
        """The linear GCN/SAGE encoder on raw features x, as one GEMM.

        With z_0 = x W_proj and z_l = M z_{l-1} W_neigh,l + z_{l-1} W_self,l
        (+ z_0 with the residual), z_L = sum_k (M^k x) C_k exactly. The
        features are propagated as constants (no tape node, no backward);
        only the f x d coefficients C_k are built on the tape, by
        C_k <- C_k W_self,l + C_{k-1} W_neigh,l (+ W_proj for k = 0).
        Coefficients known to be zero are skipped.
        """
        coef: list[Tensor | None] = [w_proj]
        for layer in self.layers:
            w_self = layer.get("w_self")  # gcn has none
            w_neigh = layer["w"] if self.cfg.conv == "gcn" else layer["w_neigh"]
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
                for t in terms[1:]:
                    c = tape.add(c, t)
                nxt.append(c)
            coef = nxt
        keep = [k for k, c in enumerate(coef) if c is not None]
        stacked = coef[keep[0]]
        for k in keep[1:]:
            stacked = tape.concat_rows(stacked, coef[k])
        # The features are reused while ops.op and x are the objects of the
        # last call: operators are immutable and features are never written in
        # place. The old entry goes first, so a miss never holds two.
        hit = self._propagated
        if hit is None or hit[0] is not ops.op or hit[1] is not x:
            self._propagated = None
            feats = [x]
            for _ in self.layers:
                feats.append(ops.op.matvec(feats[-1]))
            hit = (ops.op, x, np.concatenate([feats[k] for k in keep], axis=1))
            hit[2].flags.writeable = False
            self._propagated = hit
        z = tape.matmul(Tensor(hit[2]), stacked)
        return tape.l2_normalize(z) if self.cfg.normalize_embeddings else z


class Decoder:
    """Dot-product or residual-MLP pair scorer; returns raw logits."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        self.w_head: Tensor | None = None
        self.b_head: Tensor | None = None
        dim, dtype = cfg.hidden_dim, cfg.np_dtype
        if cfg.decoder == "mlp":
            for l in range(cfg.mlp_layers):
                self.weights.append(Tensor(orthogonal_rows(dim, dim, rng, dtype),
                                           param=True, name=f"dec.{l}.w"))
                self.biases.append(Tensor(np.zeros((1, dim), dtype=dtype),
                                          param=True, name=f"dec.{l}.b"))
            self.w_head = Tensor(_glorot(dim, 1, rng, dtype), param=True, name="dec.head.w")
            self.b_head = Tensor(np.zeros((1, 1), dtype=dtype), param=True, name="dec.head.b")

    def params(self) -> list[Tensor]:
        out = list(self.weights) + list(self.biases)
        if self.w_head is not None:
            out += [self.w_head, self.b_head]
        return out

    def forward(self, tape: Tape, z: Tensor, edges: np.ndarray,
                rng: np.random.Generator | None = None) -> Tensor:
        """Logits for ``edges``; dropout runs only when given an ``rng``."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        zu = tape.gather_rows(z, edges[:, 0])
        zv = tape.gather_rows(z, edges[:, 1])
        if self.cfg.decoder == "dot":
            return tape.row_dot(zu, zv)
        h0 = tape.hadamard(zu, zv)
        h, res = h0, h0 if self.cfg.decoder_residual else None
        for w, b in zip(self.weights, self.biases):
            h = tape.dense_block(h, w, b, res, self.cfg.dropout, rng)
        return tape.add(tape.matmul(h, self.w_head), self.b_head)


class GAEModel:
    """Input representation + encoder + decoder over one graph."""

    def __init__(self, g: Graph, cfg: ModelConfig, seed: int | np.random.Generator = 0):
        rng = np.random.default_rng(seed)
        self.graph = g
        self.cfg = cfg
        self.input = InputRepresentation(g, cfg.input_mode, cfg.hidden_dim, rng, cfg.np_dtype)
        self.encoder = Encoder(cfg, rng)
        self.decoder = Decoder(cfg, rng)

    def params(self) -> list[Tensor]:
        return self.input.params() + self.encoder.params() + self.decoder.params()

    def named_params(self) -> dict[str, Tensor]:
        return {p.name: p for p in self.params()}

    @property
    def propagates_features(self) -> bool:
        """Whether ``encode`` runs ``Encoder.forward_propagated``: raw input,
        a linear GCN/SAGE encoder, and features no wider than the hidden
        width, where propagating the features is cheaper than the layers."""
        cfg = self.cfg
        return (cfg.input_mode == "raw" and cfg.linear_encoder
                and cfg.conv in ("gcn", "sage")
                and self.input.raw.shape[1] <= cfg.hidden_dim)

    def encode(self, tape: Tape, ops: MessageOperators) -> Tensor:
        if self.propagates_features:
            return self.encoder.forward_propagated(tape, ops, self.input.raw.value,
                                                   self.input.w_proj)
        return self.encoder.forward(tape, ops, self.input.forward(tape))

    def decode(self, tape: Tape, z: Tensor, edges: np.ndarray,
               rng: np.random.Generator | None = None) -> Tensor:
        return self.decoder.forward(tape, z, edges, rng)

    def embed(self, ops: MessageOperators) -> np.ndarray:
        """Eval-mode node embeddings: the encoder's forward pass on an
        unrecorded tape."""
        return self.encode(Tape(record=False), ops).value

    def score_pairs(self, z: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Eval-mode logits from embeddings ``z`` (see ``embed``) for pairs of
        shape (..., 2), returned as shape (...)."""
        edges = np.asarray(edges, dtype=np.int64)
        flat = edges.reshape(-1, 2)
        tape, zt = Tape(record=False), Tensor(z)
        parts = [self.decode(tape, zt, flat[i:i + SCORE_CHUNK]).value[:, 0]
                 for i in range(0, len(flat), SCORE_CHUNK)]
        scores = np.concatenate(parts) if parts else np.empty(0, dtype=self.cfg.np_dtype)
        return scores.reshape(edges.shape[:-1])

    def score_edges(self, ops: MessageOperators, edges: np.ndarray) -> np.ndarray:
        """Eval-mode logits for pairs of shape (..., 2), returned as shape (...).

        Encodes the graph on every call; to score several sets of pairs with
        the same weights, ``embed`` once and call ``score_pairs``."""
        return self.score_pairs(self.embed(ops), edges)

    def snapshot(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params()]

    def restore(self, snap: list[np.ndarray]) -> None:
        for p, v in zip(self.params(), snap):
            p.value = v.copy()
