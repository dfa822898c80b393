"""Input representations, the linear message-passing encoder, and decoders.

The encoder stacks GCN/SAGE/GIN convolutions without inter-layer
activations by default and adds the layer-0 representation back after
every layer (initial residual). The decoder scores node pairs either by
dot product or with a residual MLP over the Hadamard product of the
endpoint embeddings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .engine import Tape, Tensor
from .graph import (Graph, SparseOperator, mean_adjacency, normalize,
                    plain_adjacency)

INPUT_MODES = ("raw", "learnable-orthogonal", "fixed-orthogonal", "all-ones",
               "random-uniform", "raw-plus-learnable")
CHECKPOINT_VERSION = 1


def orthogonal_rows(n: int, d: int, rng: np.random.Generator,
                    dtype=np.float64) -> np.ndarray:
    """n unit rows in R^d, exactly orthonormal when n <= d.

    QR of a seeded Gaussian; for n > d the rows of the orthonormal-column
    factor are rescaled to unit norm, giving near-orthogonal rows.
    """
    if n <= d:
        q, r = np.linalg.qr(rng.standard_normal((d, n)))
        q = q * np.sign(np.diag(r))
        return np.ascontiguousarray(q.T, dtype=dtype)
    q, r = np.linalg.qr(rng.standard_normal((n, d)))
    q = q * np.sign(np.diag(r))
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    return q.astype(dtype)


def _glorot(rows: int, cols: int, rng: np.random.Generator, dtype) -> np.ndarray:
    std = np.sqrt(2.0 / (rows + cols))
    return (rng.standard_normal((rows, cols)) * std).astype(dtype)


class InputRepresentation:
    """Layer-0 node representation: a table, raw features, or both.

    The embedding table is a parameter for the learnable modes and a
    constant for fixed-orthogonal; raw modes project features to the
    hidden width with a learnable matrix.
    """

    def __init__(self, g: Graph, mode: str, dim: int, rng: np.random.Generator,
                 dtype=np.float64):
        if mode not in INPUT_MODES:
            raise ValueError(f"unknown input mode {mode!r}; choose from {INPUT_MODES}")
        if mode in ("raw", "raw-plus-learnable") and g.features is None:
            raise ValueError(
                f"input mode {mode!r} needs node features; this graph has none "
                "(use the all-ones or learnable-orthogonal mode instead)")
        self.mode = mode
        self.dim = dim
        n = g.num_nodes
        self.table: Tensor | None = None
        self.raw: Tensor | None = None
        self.w_proj: Tensor | None = None
        self.w_mix: Tensor | None = None

        if mode in ("raw", "raw-plus-learnable"):
            self.raw = Tensor(g.features.astype(dtype), name="features")
            d_f = g.features.shape[1]
            self.w_proj = Tensor(_glorot(d_f, dim, rng, dtype), param=True, name="input.w_proj")
        if mode in ("learnable-orthogonal", "fixed-orthogonal", "raw-plus-learnable"):
            table = orthogonal_rows(n, dim, rng, dtype)
            self.table = Tensor(table, param=(mode != "fixed-orthogonal"), name="input.table")
        elif mode == "all-ones":
            self.table = Tensor(np.ones((n, dim), dtype=dtype), param=True, name="input.table")
        elif mode == "random-uniform":
            table = rng.uniform(-1.0, 1.0, (n, dim)).astype(dtype)
            self.table = Tensor(table, param=True, name="input.table")
        if mode == "raw-plus-learnable":
            self.w_mix = Tensor(_glorot(2 * dim, dim, rng, dtype), param=True, name="input.w_mix")

    def params(self) -> list[Tensor]:
        cand = [self.table, self.w_proj, self.w_mix]
        return [t for t in cand if t is not None and t.param]

    def forward(self, tape: Tape) -> Tensor:
        if self.mode == "raw":
            return tape.matmul(self.raw, self.w_proj)
        if self.mode == "raw-plus-learnable":
            proj = tape.matmul(self.raw, self.w_proj)
            return tape.matmul(tape.concat_cols(proj, self.table), self.w_mix)
        return self.table


def build_input(g: Graph, mode: str, dim: int, seed: int | np.random.Generator,
                dtype=np.float64) -> InputRepresentation:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return InputRepresentation(g, mode, dim, rng, dtype)


@dataclass
class MessageOperators:
    """The sparse operators a convolution needs, built from train edges."""

    norm: SparseOperator
    mean: SparseOperator | None = None
    plain: SparseOperator | None = None

    @classmethod
    def build(cls, g: Graph, conv: str) -> "MessageOperators":
        return cls(
            norm=normalize(g),
            mean=mean_adjacency(g) if conv == "sage" else None,
            plain=plain_adjacency(g) if conv == "gin" else None,
        )

    def masked(self, edges: np.ndarray) -> "MessageOperators":
        """Copy with the given edges' values zeroed in every operator."""
        return MessageOperators(
            norm=self.norm.without_edges(edges),
            mean=self.mean.without_edges(edges) if self.mean is not None else None,
            plain=self.plain.without_edges(edges) if self.plain is not None else None,
        )


class Encoder:
    """Stack of message-passing layers sharing one width."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64):
        if cfg.conv not in ("gcn", "sage", "gin"):
            raise ValueError(f"unknown convolution {cfg.conv!r}")
        self.cfg = cfg
        d = cfg.hidden_dim
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

    def set_identity_weights(self) -> None:
        """Make every GCN layer a pure propagation step (used by checks)."""
        if self.cfg.conv != "gcn":
            raise ValueError("identity weights only make sense for the gcn conv")
        for layer in self.layers:
            layer["w"].value = np.eye(self.cfg.hidden_dim, dtype=layer["w"].value.dtype)

    def _conv(self, tape: Tape, ops: MessageOperators, z: Tensor, l: int) -> Tensor:
        layer = self.layers[l]
        if self.cfg.conv == "gcn":
            return tape.matmul(tape.spmm(ops.norm, z), layer["w"])
        if self.cfg.conv == "sage":
            own = tape.matmul(z, layer["w_self"])
            agg = tape.matmul(tape.spmm(ops.mean, z), layer["w_neigh"])
            return tape.add(own, agg)
        mixed = tape.add(tape.add(z, tape.scalar_mul(z, layer["eps"])),
                         tape.spmm(ops.plain, z))
        h = tape.relu(tape.add(tape.matmul(mixed, layer["w1"]), layer["b1"]))
        return tape.add(tape.matmul(h, layer["w2"]), layer["b2"])

    def forward(self, tape: Tape, ops: MessageOperators, z0: Tensor) -> Tensor:
        z = z0
        last = self.cfg.mpnn_layers - 1
        for l in range(self.cfg.mpnn_layers):
            c = self._conv(tape, ops, z, l)
            if not self.cfg.linear_encoder and l < last:
                c = tape.relu(c)
            z = tape.add(c, z0) if self.cfg.encoder_residual else c
        if self.cfg.normalize_embeddings:
            z = tape.l2_normalize(z)
        return z


class Decoder:
    """Dot-product or residual-MLP pair scorer; returns raw logits."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64):
        if cfg.decoder not in ("dot", "mlp"):
            raise ValueError(f"unknown decoder {cfg.decoder!r}")
        self.cfg = cfg
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        self.w_head: Tensor | None = None
        self.b_head: Tensor | None = None
        dim = cfg.hidden_dim
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

    def forward(self, tape: Tape, z: Tensor, edges: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        zu = tape.gather_rows(z, edges[:, 0])
        zv = tape.gather_rows(z, edges[:, 1])
        if self.cfg.decoder == "dot":
            return tape.row_dot(zu, zv)
        h0 = tape.hadamard(zu, zv)
        h = h0
        for w, b in zip(self.weights, self.biases):
            h = tape.relu(tape.add(tape.matmul(h, w), b))
            if train and self.cfg.dropout > 0.0:
                h = tape.dropout(h, self.cfg.dropout, rng, train)
            if self.cfg.decoder_residual:
                h = tape.add(h, h0)
        return tape.add(tape.matmul(h, self.w_head), self.b_head)


class GAEModel:
    """Input representation + encoder + decoder over one graph."""

    def __init__(self, g: Graph, cfg: ModelConfig, seed: int | np.random.Generator = 0):
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        dtype = cfg.np_dtype
        self.graph = g
        self.cfg = cfg
        self.input = InputRepresentation(g, cfg.input_mode, cfg.hidden_dim, rng, dtype)
        self.encoder = Encoder(cfg, rng, dtype)
        self.decoder = Decoder(cfg, rng, dtype)

    def params(self) -> list[Tensor]:
        return self.input.params() + self.encoder.params() + self.decoder.params()

    def named_params(self) -> dict[str, Tensor]:
        return {p.name: p for p in self.params()}

    def encode(self, tape: Tape, ops: MessageOperators) -> Tensor:
        return self.encoder.forward(tape, ops, self.input.forward(tape))

    def decode(self, tape: Tape, z: Tensor, edges: np.ndarray, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        return self.decoder.forward(tape, z, edges, train=train, rng=rng)

    def score_edges(self, ops: MessageOperators, edges: np.ndarray,
                    chunk: int = 16384) -> np.ndarray:
        """Eval-mode logits for pairs of shape (..., 2), returned as shape (...)."""
        edges = np.asarray(edges, dtype=np.int64)
        flat = edges.reshape(-1, 2)
        tape = Tape(record=False)
        z = self.encode(tape, ops)
        parts = [self.decode(tape, z, flat[i:i + chunk]).value[:, 0]
                 for i in range(0, len(flat), chunk)]
        scores = np.concatenate(parts) if parts else np.empty(0)
        return scores.reshape(edges.shape[:-1])

    def snapshot(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params()]

    def restore(self, snap: list[np.ndarray]) -> None:
        for p, v in zip(self.params(), snap):
            p.value = v.copy()

    def save(self, path: str | Path) -> None:
        arrays = {name: t.value for name, t in self.named_params().items()}
        np.savez_compressed(
            path, __meta__=np.frombuffer(
                json.dumps({"version": CHECKPOINT_VERSION,
                            "config": self.cfg.to_dict()}).encode(), dtype=np.uint8),
            **arrays)

    @classmethod
    def load(cls, path: str | Path, g: Graph) -> "GAEModel":
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["__meta__"]).decode())
            if meta["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']}")
            cfg = ModelConfig(**meta["config"])
            model = cls(g, cfg, seed=0)
            named = model.named_params()
            for name, t in named.items():
                t.value = blob[name].astype(t.value.dtype)
        return model
