import dataclasses
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import linkgae
from linkgae import train
from linkgae.checks import DECODER_BLOCK_CASES, decoder_block_deviation
from linkgae.config import ModelConfig
from linkgae.engine import BLOCK, Adam, Tape, Tensor
from linkgae.evaluation import orthogonality_stats
from linkgae.graph import Graph, random_split
from linkgae.model import GAEModel, MessageOperators
from linkgae.train import bce_loss, fit, train_epoch
from linkgae.synth import structure_dominant_graph
from tests.conftest import random_graph


def tiny_cfg(**kw) -> ModelConfig:
    base = dict(input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=32,
                mlp_layers=2, batch_size=256, dropout=0.0, lr=1e-2, epochs=20,
                eval_every=5, patience=5, metric="hits@5", dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def trainable_graph(seed=0, n=60):
    g = structure_dominant_graph(n=n, community_size=10, p_in=0.8,
                                 cross_degree=1.0, feature_dim=4, seed=seed)
    split = random_split(g, seed=seed)
    return g, split


# -- loss ---------------------------------------------------------------------

def test_bce_one_positive_at_zero_logit():
    tape = Tape()
    loss = bce_loss(tape, Tensor([[0.0]], param=True), 1)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_bce_saturated_pair_is_near_zero():
    tape = Tape()
    loss = bce_loss(tape, Tensor([[30.0], [-30.0]], param=True), 1)
    assert loss.item() < 1e-12


def test_bce_pos_and_neg_at_zero_logit():
    tape = Tape()
    loss = bce_loss(tape, Tensor([[0.0], [0.0]], param=True), 1)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_bce_empty_raises():
    with pytest.raises(ValueError):
        bce_loss(Tape(), Tensor(np.empty((0, 1))), 0)


# -- train_epoch ----------------------------------------------------------------

def _epoch_setup(g, split, cfg, seed=0):
    model = GAEModel(g, cfg, seed=seed)
    g_train = Graph.from_edges(g.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, cfg.conv, np.float64)
    adam = Adam(model.params(), cfg.lr)
    rng = np.random.default_rng(seed)
    return model, g_train, ops, adam, rng


def test_zero_lr_freezes_parameters_and_loss():
    g, split = trainable_graph()
    cfg = tiny_cfg(lr=0.0)
    model, g_train, ops, adam, _ = _epoch_setup(g, split, cfg)
    before = [p.value.copy() for p in model.params()]
    # replay the same sampling sequence each epoch: any loss change could
    # then only come from parameter drift
    losses = [train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam,
                          rng=np.random.default_rng(0))
              for _ in range(3)]
    for p, b in zip(model.params(), before):
        assert np.array_equal(p.value, b)
    assert losses[0] == losses[1] == losses[2]


def test_loss_decreases_over_first_ten_epochs(rng):
    g = random_graph(rng, n_min=50, n_max=50, p=0.15)
    split = random_split(g, seed=0)
    cfg = tiny_cfg()
    model, g_train, ops, adam, gen = _epoch_setup(g, split, cfg)
    losses = [train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam,
                          rng=gen)
              for _ in range(10)]
    assert np.mean(losses[-3:]) < losses[0]


def test_overfits_a_tiny_graph():
    g, split = trainable_graph(seed=1)
    cfg = tiny_cfg(hidden_dim=64, lr=1e-2)
    model, g_train, ops, adam, gen = _epoch_setup(g, split, cfg, seed=1)
    loss = None
    for _ in range(200):
        loss = train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam, rng=gen)
    assert loss < 0.1


def test_same_seed_identical_loss_curves():
    g, split = trainable_graph(seed=2)
    cfg = tiny_cfg(epochs=5)

    def run():
        model, g_train, ops, adam, gen = _epoch_setup(g, split, cfg, seed=2)
        return [train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam,
                            rng=gen)
                for _ in range(5)]

    assert run() == run()


def test_mask_input_removes_batch_edges_from_messages():
    g, split = trainable_graph(seed=3)
    cfg = tiny_cfg(mask_input=True, batch_size=8, epochs=1)
    model, g_train, ops, adam, gen = _epoch_setup(g, split, cfg, seed=3)
    checked = []

    def on_batch(batch, bops):
        dense = bops.op.mat.toarray()
        for u, v in batch:
            assert dense[u, v] == 0.0 and dense[v, u] == 0.0
        checked.append(len(batch))

    train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam, rng=gen,
                on_batch=on_batch)
    assert sum(checked) == len(split.train_pos)
    # the shared operator itself is never mutated
    assert ops.op.mat.data.min() > 0.0


def test_unmasked_training_passes_full_operator():
    g, split = trainable_graph(seed=4)
    cfg = tiny_cfg(mask_input=False, epochs=1)
    model, g_train, ops, adam, gen = _epoch_setup(g, split, cfg, seed=4)
    seen = []
    train_epoch(model, split, cfg, g_train=g_train, ops=ops, adam=adam, rng=gen,
                on_batch=lambda b, o: seen.append(o is ops))
    assert all(seen)


def test_training_negatives_come_from_the_train_graph(monkeypatch):
    import linkgae.train as train_mod

    g, split = trainable_graph(seed=6)
    cfg = tiny_cfg(epochs=2, eval_every=1, batch_size=64)
    sampled_from = []
    real = train_mod.sample_negatives

    def spy(graph, count, rng):
        sampled_from.append(graph.num_edges)
        return real(graph, count, rng)

    monkeypatch.setattr(train_mod, "sample_negatives", spy)
    fit(GAEModel(g, cfg, seed=6), split, cfg, seed=6)
    assert len(sampled_from) == 2 * -(-len(split.train_pos) // 64)
    assert set(sampled_from) == {len(split.train_pos)} != {g.num_edges}


# -- fit -----------------------------------------------------------------------

def test_fit_requires_validation_edges():
    g, split = trainable_graph(seed=5)
    split.valid_pos = np.empty((0, 2), dtype=np.int64)
    model = GAEModel(g, tiny_cfg(), seed=0)
    with pytest.raises(ValueError, match="split valid: no positive pairs"):
        fit(model, split, tiny_cfg(), seed=0)


def test_fit_requires_train_edges_before_the_first_epoch(monkeypatch):
    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    g, split = trainable_graph(seed=5)
    split.train_pos = np.empty((0, 2), dtype=np.int64)
    monkeypatch.setattr(train, "train_epoch", no_epoch)
    with pytest.raises(ValueError, match="split train: no positive pairs"):
        fit(GAEModel(g, tiny_cfg(), seed=0), split, tiny_cfg(), seed=0)


@pytest.mark.parametrize("metric, edit, message", [
    ("hits@5", lambda s: setattr(s, "test_pos", np.empty((0, 2), dtype=np.int64)),
     "split test: no positive pairs"),
    ("mrr", lambda s: setattr(s, "valid_neg", np.empty((0, 2), dtype=np.int64)),
     "split valid negatives: no negative pairs"),
    ("hits@5", lambda s: setattr(s, "valid_neg", np.concatenate([s.valid_neg, s.train_pos[:1]])),
     r"split valid negatives: \[\d+, \d+\] is a positive of the split"),
    ("mrr", lambda s: setattr(s, "test_neg", np.stack([s.test_neg[:len(s.test_pos) - 1]] * 3, 1)),
     r"split test negatives: \d+ per-source candidate sets for \d+ test positives"),
], ids=["no-test-positives", "empty-valid-pool-under-mrr", "valid-negative-is-a-train-positive",
        "per-source-negatives-one-short-under-mrr"])
def test_fit_rejects_a_bad_split_before_the_first_epoch(metric, edit, message, monkeypatch):
    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    g, split = trainable_graph(seed=5)
    edit(split)
    monkeypatch.setattr(train, "train_epoch", no_epoch)
    cfg = tiny_cfg(metric=metric)
    with pytest.raises(ValueError, match=message):
        fit(GAEModel(g, cfg, seed=0), split, cfg, seed=0)


@pytest.mark.parametrize("shape", ["shared", "per-source"])
def test_fit_rejects_too_few_test_negatives_before_the_first_epoch(shape, monkeypatch):
    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    g, split = trainable_graph(seed=5)
    k = 6  # the valid pool holds more
    if shape == "shared":
        split.test_neg = split.test_neg[:k - 1]
    else:
        split.test_neg = np.stack([split.test_pos] * (k - 1), axis=1)  # k - 1 per source
    monkeypatch.setattr(train, "train_epoch", no_epoch)
    cfg = tiny_cfg(metric=f"hits@{k}")
    want = f"hits@{k} needs at least {k} negatives{' per source' if shape == 'per-source' else ''}"
    with pytest.raises(ValueError, match=f"{want}, got {k - 1} in neg.test of the split"):
        fit(GAEModel(g, cfg, seed=0), split, cfg, seed=0)


def test_fit_selects_best_validation_checkpoint():
    g, split = trainable_graph(seed=6)
    cfg = tiny_cfg(epochs=30, eval_every=2, patience=100)
    model = GAEModel(g, cfg, seed=6)
    record = fit(model, split, cfg, seed=6)
    evals = [(e, v) for e, _, v, _ in record.epochs if v is not None]
    best_epoch, best_valid = max(evals, key=lambda t: t[1])
    assert record.best_valid == best_valid
    # ties keep the earliest evaluation
    first_hit = next(e for e, v in evals if v == best_valid)
    assert record.best_epoch == first_hit
    # the returned model *is* the best checkpoint: re-scoring reproduces
    # the recorded test metric exactly
    from linkgae.evaluation import MetricSpec
    g_train = Graph.from_edges(g.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, cfg.conv, np.float64)
    metric = MetricSpec.parse(cfg.metric)
    again = metric.evaluate(model.score_edges(ops, split.test_pos),
                            model.score_edges(ops, split.test_neg))
    assert again == record.test_metric


def test_fit_evaluates_the_final_epoch():
    g, split = trainable_graph(seed=13)
    cfg = tiny_cfg(epochs=7, eval_every=5, patience=100)
    record = fit(GAEModel(g, cfg, seed=13), split, cfg, seed=13)
    evaluated = [e for e, _, v, _ in record.epochs if v is not None]
    assert evaluated == [5, 7]
    assert record.best_epoch in evaluated


def test_fit_early_stops_after_patience_without_improvement():
    g, split = trainable_graph(seed=7)
    # lr=0 never improves: first eval sets best, second is a tie -> stale,
    # patience=1 stops the run after exactly 2 evaluations
    cfg = tiny_cfg(lr=0.0, epochs=50, eval_every=1, patience=1)
    model = GAEModel(g, cfg, seed=7)
    record = fit(model, split, cfg, seed=7)
    assert len(record.epochs) == 2
    assert record.best_epoch == 1


def test_fit_same_seed_bit_identical():
    g, split = trainable_graph(seed=8)
    cfg = tiny_cfg(epochs=8, eval_every=4)
    rec_a = fit(GAEModel(g, cfg, seed=8), split, cfg, seed=8)
    rec_b = fit(GAEModel(g, cfg, seed=8), split, cfg, seed=8)
    assert rec_a.test_metric == rec_b.test_metric
    assert [e[:3] for e in rec_a.epochs] == [e[:3] for e in rec_b.epochs]


def test_fit_builds_the_operator_from_the_model_config():
    # Architecture comes from the model, training settings from cfg: a sage
    # float64 model fitted with a cfg naming gcn/float32 trains exactly as
    # with its own config.
    g, split = trainable_graph(seed=11)
    cfg = tiny_cfg(conv="sage", epochs=4, eval_every=2, dropout=0.2, mask_input=True)

    def hexes(fit_cfg):
        rec = fit(GAEModel(g, cfg, seed=11), split, fit_cfg, seed=11)
        return ([float.hex(v) for _, loss, valid, _ in rec.epochs
                 for v in (loss, valid) if v is not None]
                + [float.hex(rec.best_valid), float.hex(rec.test_metric)])

    assert hexes(cfg.replace(conv="gcn", dtype="float32")) == hexes(cfg)


def test_fit_writes_csv(tmp_path):
    g, split = trainable_graph(seed=9)
    cfg = tiny_cfg(epochs=4, eval_every=2)
    record = fit(GAEModel(g, cfg, seed=9), split, cfg, seed=9)
    path = tmp_path / "epochs.csv"
    record.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,valid_metric,seconds,minor_faults,max_rss_mb"
    assert len(lines) == len(record.epochs) + 1 == len(record.memory) + 1
    assert lines[1].startswith("1,")
    for line, (faults, rss) in zip(lines[1:], record.memory):
        cells = line.split(",")
        assert len(cells) == 6
        assert int(cells[4]) == faults >= 0 and float(cells[5]) > 0.0


def test_fit_encodes_once_per_evaluation(monkeypatch):
    g, split = trainable_graph(seed=12)
    calls = []
    real = GAEModel.encode

    def counting(self, tape, ops):
        calls.append(tape.record)
        return real(self, tape, ops)

    monkeypatch.setattr(GAEModel, "encode", counting)
    for epochs, validations in ((8, 2), (3, 1)):  # 3 < eval_every: one final validation
        cfg = tiny_cfg(epochs=epochs, eval_every=4, patience=100)
        calls.clear()
        record = fit(GAEModel(g, cfg, seed=12), split, cfg, seed=12)
        steps = epochs * -(-len(split.train_pos) // cfg.batch_size)
        assert len(record.epochs) == epochs
        assert calls.count(True) == steps
        assert calls.count(False) == validations + 1  # + the test


def test_learnable_embeddings_stay_near_orthogonal():
    g, split = trainable_graph(seed=10, n=100)
    cfg = tiny_cfg(hidden_dim=64, epochs=30, eval_every=10, patience=50)
    model = GAEModel(g, cfg, seed=10)
    before, _ = orthogonality_stats(model.tensors["input.table"].value)
    fit(model, split, cfg, seed=10)
    after, _ = orthogonality_stats(model.tensors["input.table"].value)
    assert before < 0.15
    assert after < 0.15  # drift stays small at desk scale


def test_train_epoch_runs_and_updates():
    g, split = trainable_graph(seed=11)
    cfg = tiny_cfg(batch_size=16)
    model = GAEModel(g, cfg, seed=11)
    before = model.snapshot()
    g_train = Graph.from_edges(g.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, cfg.conv, cfg.np_dtype)
    one_batch = dataclasses.replace(split, train_pos=split.train_pos[:16])
    loss = train_epoch(model, one_batch, cfg, g_train=g_train, ops=ops,
                       adam=Adam(model.params(), cfg.lr), rng=np.random.default_rng(0))
    assert np.isfinite(loss)
    changed = any(not np.array_equal(a, b)
                  for a, b in zip(before, model.snapshot()))
    assert changed


def test_train_epoch_decodes_positives_then_negatives_once(monkeypatch):
    # the MLP decoder's loss is one pair_blocks node over the positives, then
    # the negatives
    g, split = trainable_graph(seed=11)
    cfg = tiny_cfg(batch_size=16, dropout=0.3)
    model = GAEModel(g, cfg, seed=11)
    g_train = Graph.from_edges(g.num_nodes, split.train_pos)
    ops = MessageOperators.build(g_train, cfg.conv, cfg.np_dtype)
    decoded = []
    pair_blocks = Tape.pair_blocks

    def spy(self, z, u, v, params, block):
        decoded.append(np.stack([u, v], axis=1))
        return pair_blocks(self, z, u, v, params, block)

    monkeypatch.setattr(Tape, "pair_blocks", spy)
    one_batch = dataclasses.replace(split, train_pos=split.train_pos[:16])
    train_epoch(model, one_batch, cfg, g_train=g_train, ops=ops,
                adam=Adam(model.params(), cfg.lr), rng=np.random.default_rng(0))
    rng = np.random.default_rng(0)
    batch = one_batch.train_pos[rng.permutation(16)]
    negs = train.sample_negatives(g_train, cfg.neg_ratio * 16, rng)
    assert len(decoded) == 1 and len(decoded[0]) == 16 * (1 + cfg.neg_ratio)
    assert np.array_equal(decoded[0], np.concatenate([batch, negs]))


@pytest.mark.parametrize("pairs,decoder,layers,residual", DECODER_BLOCK_CASES,
                         ids=[f"{p}-{l}-{r}" if d == "mlp" else f"{p}-dot"
                              for p, d, l, r in DECODER_BLOCK_CASES])
def test_blocked_decoder_loss_equals_one_block(pairs, decoder, layers, residual):
    assert decoder_block_deviation(pairs, decoder, layers, residual) <= 1e-12


@pytest.mark.parametrize("decoder", ["dot", "mlp"])
def test_a_training_step_records_one_pair_blocks_node(decoder):
    # either decoder's loss, the bce included, runs inside one pair_blocks node
    g, split = trainable_graph(seed=11)
    cfg = tiny_cfg(decoder=decoder, dropout=0.3)
    model, g_train, ops, _, rng = _epoch_setup(g, split, cfg)
    negs = train.sample_negatives(g_train, 48, rng)
    tape = Tape()
    loss = train.batch_loss(tape, model, ops, split.train_pos[:16], negs, rng)
    names = [node.backward.__qualname__.split(".")[1] for node in tape.nodes]
    assert names.count("pair_blocks") == 1 and names[-1] == "pair_blocks"
    assert tape.nodes[-1].out is loss and "bce_with_logits" not in names


def test_blocked_decoder_loss_draws_the_words_of_one_block():
    # with d divisible by 4, dropout draws as many words per step as one
    # block would, so the negatives of later steps do not move
    g, split = trainable_graph()
    model = GAEModel(g, tiny_cfg(dropout=0.3), seed=0)
    z = Tensor(np.random.default_rng(1).standard_normal((g.num_nodes, 32)), param=True)
    edges = np.random.default_rng(2).integers(0, g.num_nodes, (2 * BLOCK + 7, 2))
    rngs = np.random.default_rng(3), np.random.default_rng(3)
    tape = Tape()
    train.pair_loss(tape, model, z, edges, 10, rngs[0])
    h0 = Tensor(z.value[edges[:, 0]] * z.value[edges[:, 1]], param=True)
    model.decode_mlp(Tape(), h0, model.decoder_weights(), rngs[1])
    assert rngs[0].integers(2 ** 62) == rngs[1].integers(2 ** 62)


def _step_transient_bytes(batch_size: int, decoder: str) -> int:
    """tracemalloc's peak above the start of one recorded training step
    (loss, then backward) on the benchmark's train-masked model, with
    ``decoder``."""
    g = structure_dominant_graph(2000, seed=1)
    split = random_split(g, seed=1)
    cfg = ModelConfig(input_mode="learnable-orthogonal", conv="gcn", mpnn_layers=2,
                      hidden_dim=128, decoder=decoder, mlp_layers=3, dropout=0.2,
                      mask_input=True, batch_size=batch_size)
    model = GAEModel(g, cfg, seed=1)
    g_train = Graph.from_edges(g.num_nodes, split.train_pos)
    rng = np.random.default_rng(1)
    batch = split.train_pos[:batch_size]
    negs = train.sample_negatives(g_train, cfg.neg_ratio * batch_size, rng)
    ops = MessageOperators.build(g_train, cfg.conv, cfg.np_dtype).masked(batch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        tape.backward(train.batch_loss(tape, model, ops, batch, negs, rng))
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_step_memory_does_not_scale_with_the_decoder_activations():
    # 4 x 1,024 against 4 x 4,096 pairs of width 128: for either decoder each
    # extra pair may add at most three float32 rows of width d (the blocked
    # decoder loss keeps one)
    for decoder in ("dot", "mlp"):
        small, large = (_step_transient_bytes(b, decoder) for b in (1024, 4096))
        per_pair = (large - small) / ((4096 - 1024) * 4)
        assert per_pair <= 3 * 128 * 4, f"{decoder}: {per_pair:.0f} bytes per extra pair"


def nan_loss(tape, logits, positives):
    return tape.add(bce_loss(tape, logits, positives), Tensor(np.array([[np.nan]])))


def test_non_finite_loss_stops_training_naming_epoch_and_step(monkeypatch):
    from linkgae import train

    g, split = trainable_graph()
    cfg = tiny_cfg(batch_size=32, epochs=3, eval_every=1)
    model = GAEModel(g, cfg, seed=0)
    before = model.snapshot()
    monkeypatch.setattr(train, "bce_loss", nan_loss)
    with pytest.raises(FloatingPointError, match="non-finite training loss nan at epoch 1, step 1"):
        fit(model, split, cfg, seed=0)
    # the step stops before backward and Adam, so no NaN reaches a parameter
    assert all(np.array_equal(a, b) for a, b in zip(before, model.snapshot()))


# -- heap settings -------------------------------------------------------------

@pytest.fixture
def mallopt_calls(monkeypatch):
    """A fresh process's view of ``_keep_heap_warm`` on glibc with an untuned
    malloc, recording mallopt calls instead of making them."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(train.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(train.platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(train, "_heap_checked", False)
    for var in [k for k in os.environ if k.startswith("MALLOC_")] + ["GLIBC_TUNABLES"]:
        monkeypatch.delenv(var, raising=False)
    return calls


@pytest.mark.parametrize("tunables", [None, "glibc.rtld.nns=2"])
def test_heap_settings_mmap_threshold_first_then_trim(mallopt_calls, monkeypatch, tunables):
    if tunables is not None:  # tunables of other glibc parts leave malloc untuned
        monkeypatch.setenv("GLIBC_TUNABLES", tunables)
    train._keep_heap_warm()
    assert mallopt_calls == [(train.M_MMAP_THRESHOLD, 64 << 20),
                             (train.M_TRIM_THRESHOLD, 1 << 30)]


def test_heap_settings_run_once_per_process(mallopt_calls):
    g, split = trainable_graph(seed=13)
    cfg = tiny_cfg(epochs=1, eval_every=1)
    fit(GAEModel(g, cfg, seed=13), split, cfg, seed=13)
    fit(GAEModel(g, cfg, seed=13), split, cfg, seed=13)
    train._keep_heap_warm()
    assert len(mallopt_calls) == len(train.HEAP_SETTINGS)


@pytest.mark.parametrize("var, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_ARENA_MAX", "2"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.mmap_threshold=131072"),
])
def test_heap_settings_leave_a_user_tuned_malloc_alone(mallopt_calls, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    train._keep_heap_warm()
    assert mallopt_calls == []


def test_heap_settings_do_nothing_off_glibc(mallopt_calls, monkeypatch):
    monkeypatch.setattr(train.platform, "libc_ver", lambda: ("", ""))
    train._keep_heap_warm()
    assert mallopt_calls == []


def test_heap_settings_warn_and_stop_when_mallopt_fails(monkeypatch, mallopt_calls):
    calls = []

    def failing(param, value):
        calls.append(param)
        return 0

    monkeypatch.setattr(train.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=failing))
    with pytest.warns(RuntimeWarning, match="mallopt"):
        train._keep_heap_warm()
    assert calls == [train.M_MMAP_THRESHOLD]  # no trim threshold without the mmap one


FIT_CHILD = """
import json
from linkgae import train
from linkgae.cli import SYNTH_DEFAULT
from linkgae.graph import random_split
from linkgae.model import GAEModel
from linkgae.synth import structure_dominant_graph

g = structure_dominant_graph(1500, seed=3)
cfg = SYNTH_DEFAULT.replace(epochs=4, eval_every=2)
rec = train.fit(GAEModel(g, cfg, seed=3), random_split(g, seed=3), cfg, seed=3)
print(json.dumps({"numbers": [e[1].hex() for e in rec.epochs]
                  + [rec.best_valid.hex(), rec.test_metric.hex()],
                  "faults": [faults for faults, _ in rec.memory]}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap settings apply on glibc only")
def test_trained_numbers_do_not_depend_on_the_heap_settings():
    src = str(Path(linkgae.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = src

    def run(extra):
        out = subprocess.run([sys.executable, "-c", FIT_CHILD], env={**env, **extra},
                             capture_output=True, text=True, check=True, timeout=300)
        return json.loads(out.stdout.splitlines()[-1])

    kept = run({})
    opted_out = run({"MALLOC_TRIM_THRESHOLD_": "131072"})
    assert kept["numbers"] == opted_out["numbers"]
    # the settings took effect: after the first epoch the heap stays warm
    assert 10 * sum(kept["faults"][1:]) < sum(opted_out["faults"][1:])
