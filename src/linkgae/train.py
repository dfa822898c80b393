"""BCE training loop: fresh negative sampling, batching, optional input
masking, and validation-based model selection."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .engine import Adam, Tape, Tensor
from .evaluation import MetricSpec
from .graph import EdgeSplit, Graph, sample_negatives
from .model import GAEModel, MessageOperators


def bce_loss(tape: Tape, pos_logits: Tensor | None, neg_logits: Tensor | None) -> Tensor:
    """Mean binary cross-entropy over positives (label 1) and negatives (label 0)."""
    n_pos = pos_logits.shape[0] if pos_logits is not None else 0
    n_neg = neg_logits.shape[0] if neg_logits is not None else 0
    if n_pos + n_neg == 0:
        raise ValueError("bce_loss needs at least one edge")
    if n_pos and n_neg:
        logits = tape.concat_rows(pos_logits, neg_logits)
    else:
        logits = pos_logits if n_pos else neg_logits
    labels = np.concatenate([np.ones((n_pos, 1)), np.zeros((n_neg, 1))])
    return tape.bce_with_logits(logits, Tensor(labels.astype(logits.dtype)))


def train_step(model: GAEModel, batch: np.ndarray, cfg: ModelConfig,
               ops: MessageOperators, adam: Adam, rng: np.random.Generator,
               on_batch=None) -> tuple[float, int]:
    """One optimizer step on a batch of positives plus fresh negatives.

    Returns the mean loss and the number of scored pairs.
    """
    negs = sample_negatives(model.graph, cfg.neg_ratio * len(batch), rng)
    bops = ops.masked(batch) if cfg.mask_input else ops
    if on_batch is not None:
        on_batch(batch, bops)
    tape = Tape()
    z = model.encode(tape, bops)
    logits_pos = model.decode(tape, z, batch, train=True, rng=rng)
    logits_neg = model.decode(tape, z, negs, train=True, rng=rng)
    loss = bce_loss(tape, logits_pos, logits_neg)
    tape.backward(loss)
    adam.step()
    return loss.item(), len(batch) + len(negs)


def train_epoch(model: GAEModel, split: EdgeSplit, cfg: ModelConfig, *,
                ops: MessageOperators, adam: Adam, rng: np.random.Generator,
                on_batch=None) -> float:
    """One pass over shuffled train positives; returns the mean loss."""
    m = len(split.train_pos)
    perm = rng.permutation(m)
    total, seen = 0.0, 0
    for s in range(0, m, cfg.batch_size):
        batch = split.train_pos[perm[s:s + cfg.batch_size]]
        loss, n = train_step(model, batch, cfg, ops, adam, rng, on_batch)
        total += loss * n
        seen += n
    return total / seen


@dataclass
class RunRecord:
    """Per-epoch trace plus the model-selection outcome of one run."""

    seed: int
    epochs: list[tuple] = field(default_factory=list)  # (epoch, loss, valid|None, secs)
    best_epoch: int = 0
    best_valid: float = float("-inf")
    test_metric: float = float("nan")

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,loss,valid_metric,seconds"]
        for epoch, loss, valid, secs in self.epochs:
            v = "" if valid is None else repr(valid)
            lines.append(f"{epoch},{repr(loss)},{v},{secs:.4f}")
        Path(path).write_text("\n".join(lines) + "\n")

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "epochs_run": len(self.epochs),
            "best_epoch": self.best_epoch,
            "best_valid": self.best_valid,
            "test_metric": self.test_metric,
        }


def fit(model: GAEModel, split: EdgeSplit, cfg: ModelConfig,
        seed: int | np.random.Generator = 0, on_batch=None,
        log=None) -> RunRecord:
    """Train with early stopping on the validation metric.

    Message passing sees train edges only; the reported test metric always
    comes from the checkpoint with the best validation metric.
    """
    if len(split.valid_pos) == 0:
        raise ValueError("fit needs validation edges for model selection")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seed_label = -1 if isinstance(seed, np.random.Generator) else int(seed)
    g_train = Graph.from_edges(model.graph.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, cfg.conv)
    adam = Adam(model.params(), cfg.lr)
    metric = MetricSpec.parse(cfg.metric)
    record = RunRecord(seed=seed_label)
    snap = None
    stale = 0

    def validate() -> float:
        pos = model.score_edges(ops, split.valid_pos)
        neg = model.score_edges(ops, split.valid_neg)
        return metric.evaluate(pos, neg)

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        loss = train_epoch(model, split, cfg, ops=ops, adam=adam, rng=rng,
                           on_batch=on_batch)
        secs = time.perf_counter() - t0
        valid = None
        if epoch % cfg.eval_every == 0:
            valid = validate()
            if valid > record.best_valid:
                record.best_valid = valid
                record.best_epoch = epoch
                snap = model.snapshot()
                stale = 0
            else:
                stale += 1
        record.epochs.append((epoch, loss, valid, secs))
        if log is not None:
            log(epoch, loss, valid)
        if valid is not None and stale >= cfg.patience:
            break

    if snap is None:  # epochs < eval_every: select the final state
        record.best_valid = validate()
        record.best_epoch = record.epochs[-1][0] if record.epochs else 0
        snap = model.snapshot()
    model.restore(snap)
    pos = model.score_edges(ops, split.test_pos)
    neg = model.score_edges(ops, split.test_neg)
    record.test_metric = metric.evaluate(pos, neg)
    return record


def single_batch_step(model: GAEModel, split: EdgeSplit, cfg: ModelConfig,
                      batch_size: int | None = None):
    """A closure running one full training step; used by the micro-benchmark."""
    b = batch_size or cfg.batch_size
    g_train = Graph.from_edges(model.graph.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, cfg.conv)
    adam = Adam(model.params(), cfg.lr)
    rng = np.random.default_rng(0)
    m = len(split.train_pos)
    batch = split.train_pos[np.resize(np.arange(m), b)]

    def step() -> None:
        train_step(model, batch, cfg, ops, adam, rng)

    return step
