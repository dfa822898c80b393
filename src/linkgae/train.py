"""BCE training loop: fresh negative sampling, batching, optional input
masking, and validation-based model selection."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .engine import Adam, Tape, Tensor
from .evaluation import MetricSpec
from .graph import EdgeSplit, Graph, sample_negatives
from .model import GAEModel, MessageOperators


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers
HEAP_SETTINGS = ((M_MMAP_THRESHOLD, 64 << 20), (M_TRIM_THRESHOLD, 1 << 30))
# mallopt acts on the whole process, so the check runs once per process.
_heap_checked = False


def _keep_heap_warm() -> None:
    """Keep freed training temporaries in the heap; runs once per process.

    By default glibc maps large blocks with mmap and trims the top of the
    heap once a few MB of it are free (both thresholds start at 128 KiB and
    follow the largest mmapped block freed so far), so the arrays of one
    training step go back to the kernel when freed and the next step
    page-faults the same memory in again. A 64 MiB mmap threshold and a 1 GiB
    trim threshold keep that memory in the process. The mmap threshold is set
    first: a trim threshold on its own switches off glibc's dynamic mmap
    threshold, and then every such array is mmapped. Does nothing off glibc
    or when the user has tuned malloc through the environment (a ``MALLOC_*``
    variable or a ``glibc.malloc.`` entry in ``GLIBC_TUNABLES``), which is
    also how to opt out.
    """
    global _heap_checked
    if _heap_checked:
        return
    _heap_checked = True
    tuned = (any(k.startswith("MALLOC_") for k in os.environ)
             or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))
    if platform.libc_ver()[0] != "glibc" or tuned:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in HEAP_SETTINGS:
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({param}, {value}) failed; later mallopt settings "
                          "were not applied", RuntimeWarning, stacklevel=3)
            return


def bce_loss(tape: Tape, logits: Tensor, positives: int) -> Tensor:
    """Mean binary cross-entropy; the first ``positives`` rows of ``logits``
    have label 1 and the rest label 0."""
    labels = np.zeros(logits.shape, dtype=logits.dtype)
    labels[:positives] = 1.0
    return tape.bce_with_logits(logits, Tensor(labels))


def batch_loss(tape: Tape, model: GAEModel, ops: MessageOperators, pos: np.ndarray,
               neg: np.ndarray, rng: np.random.Generator | None) -> Tensor:
    """The training loss: encode, then ``pair_loss`` over ``pos`` followed
    by ``neg``."""
    return pair_loss(tape, model, model.encode(tape, ops), np.concatenate([pos, neg]),
                     len(pos), rng)


def pair_loss(tape: Tape, model: GAEModel, z: Tensor, pairs: np.ndarray, positives: int,
              rng: np.random.Generator | None) -> Tensor:
    """``bce_loss`` of the decoder's logits for ``pairs`` from embeddings
    ``z``; the first ``positives`` pairs have label 1.

    Either decoder records one ``Tape.pair_blocks`` node, which runs
    ``decode_mlp`` and ``bce_loss`` on each block of ``BLOCK`` pairs, weighing a
    block's mean by its share of the pairs, with one dropout draw per layer and block.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    def block(bt: Tape, h0: Tensor, weights: list[Tensor], lo: int) -> Tensor:
        logits = model.decode_mlp(bt, h0, weights, rng)
        rows = logits.shape[0]
        share = Tensor(np.full((1, 1), rows / len(pairs), dtype=logits.dtype))
        return bt.scalar_mul(bce_loss(bt, logits, min(max(positives - lo, 0), rows)), share)

    return tape.pair_blocks(z, pairs[:, 0], pairs[:, 1], model.decoder_weights(), block)


def train_epoch(model: GAEModel, split: EdgeSplit, cfg: ModelConfig, *,
                g_train: Graph, ops: MessageOperators, adam: Adam, rng: np.random.Generator,
                on_batch=None, epoch: int = 0) -> float:
    """One pass over shuffled train positives; returns the mean loss per pair.

    Each batch gets fresh negatives from the non-edges of ``g_train`` (so, as
    in OGB and PyG, valid and test positives can be drawn), is masked out of
    ``ops`` when ``cfg.mask_input``, goes to ``on_batch`` with that operator,
    and takes one Adam step. A non-finite loss raises FloatingPointError
    naming ``epoch`` and the step, before any parameter is updated.
    """
    m = len(split.train_pos)
    perm = rng.permutation(m)
    total, seen = 0.0, 0
    for step, s in enumerate(range(0, m, cfg.batch_size), 1):
        batch = split.train_pos[perm[s:s + cfg.batch_size]]
        negs = sample_negatives(g_train, cfg.neg_ratio * len(batch), rng)
        bops = ops.masked(batch) if cfg.mask_input else ops
        if on_batch is not None:
            on_batch(batch, bops)
        tape = Tape()
        loss = batch_loss(tape, model, bops, batch, negs, rng)
        if not np.isfinite(loss.item()):
            raise FloatingPointError(
                f"non-finite training loss {loss.item()} at epoch {epoch}, step {step}")
        tape.backward(loss)
        adam.step()
        total += loss.item() * (len(batch) + len(negs))
        seen += len(batch) + len(negs)
    return total / seen


@dataclass
class RunRecord:
    """Per-epoch trace plus the model-selection outcome of one run."""

    seed: int
    epochs: list[tuple] = field(default_factory=list)  # (epoch, loss, valid|None, secs)
    memory: list[tuple] = field(default_factory=list)  # per epoch: (minor_faults, max_rss_mb)
    best_epoch: int = 0
    best_valid: float = float("-inf")
    test_metric: float = float("nan")

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,loss,valid_metric,seconds,minor_faults,max_rss_mb"]
        for (epoch, loss, valid, secs), (faults, rss) in zip(self.epochs, self.memory,
                                                             strict=True):
            v = "" if valid is None else repr(valid)
            lines.append(f"{epoch},{repr(loss)},{v},{secs:.4f},{faults},{rss:.1f}")
        Path(path).write_text("\n".join(lines) + "\n")

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "epochs_run": len(self.epochs),
            "best_epoch": self.best_epoch,
            "best_valid": self.best_valid,
            "test_metric": self.test_metric,
        }


def fit(model: GAEModel, split: EdgeSplit, cfg: ModelConfig, seed: int = 0,
        on_batch=None, log=None) -> RunRecord:
    """Train with early stopping on the validation metric, evaluated every
    ``cfg.eval_every`` epochs and at the last epoch.

    Message passing sees train edges only; the reported test metric always
    comes from the checkpoint with the best validation metric. The message
    operator follows the model's own conv and dtype (``model.cfg``); ``cfg``
    supplies the training settings. The first call in a process also applies
    ``_keep_heap_warm``. A split that fails ``EdgeSplit.validate`` against
    the metric raises ValueError before the first epoch.
    """
    metric = MetricSpec.parse(cfg.metric)
    split.validate(model.graph.num_nodes, metric)
    _keep_heap_warm()
    rng = np.random.default_rng(seed)
    g_train = Graph.from_edges(model.graph.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, model.cfg.conv, model.cfg.np_dtype)
    adam = Adam(model.params(), cfg.lr)
    record = RunRecord(seed=seed)
    snap = None
    stale = 0

    def evaluate(pos: np.ndarray, neg: np.ndarray) -> float:
        z = model.embed(ops)
        return metric.evaluate(model.score_pairs(z, pos), model.score_pairs(z, neg))

    for epoch in range(1, cfg.epochs + 1):
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        loss = train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam,
                           rng=rng, on_batch=on_batch, epoch=epoch)
        secs = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record.memory.append((usage.ru_minflt - faults0, usage.ru_maxrss / 1024.0))
        valid = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            valid = evaluate(split.valid_pos, split.valid_neg)
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

    model.restore(snap)
    record.test_metric = evaluate(split.test_pos, split.test_neg)
    return record

