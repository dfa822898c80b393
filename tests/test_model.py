import tracemalloc

import numpy as np
import pytest

from linkgae.config import ModelConfig
from linkgae.engine import Tape
from linkgae.graph import Graph, SparseOperator, normalize
from linkgae.model import (CONV_OPERATORS, Decoder, Encoder, GAEModel,
                           InputRepresentation, MessageOperators, orthogonal_rows)
from linkgae.evaluation import orthogonality_stats
from tests.conftest import random_graph


def p3(features=None) -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]), features)


# -- input representations -----------------------------------------------------

def test_orthogonal_gram_is_identity_when_n_below_d():
    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    rep = InputRepresentation(g, "learnable-orthogonal", 8, np.random.default_rng(0))
    gram = rep.table.value @ rep.table.value.T
    assert np.allclose(gram, np.eye(4), atol=1e-6)
    assert rep.table.tracked


def test_all_ones_table():
    g = p3()
    rep = InputRepresentation(g, "all-ones", 3, np.random.default_rng(0))
    assert np.array_equal(rep.table.value, np.ones((3, 3)))


def test_random_uniform_in_range():
    g = p3()
    rep = InputRepresentation(g, "random-uniform", 64, np.random.default_rng(1))
    assert rep.table.value.min() >= -1.0 and rep.table.value.max() <= 1.0


def test_wide_orthogonal_rows_unit_norm_and_low_coherence():
    rng = np.random.default_rng(3)
    n, d = 500, 64
    table = orthogonal_rows(n, d, rng)
    assert np.allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-6)
    mean, _ = orthogonality_stats(table)
    assert mean <= 2.0 / np.sqrt(d)


def test_large_orthogonal_init_matches_expected_coherence():
    rng = np.random.default_rng(4)
    table = orthogonal_rows(4267, 1024, rng)
    mean, _ = orthogonality_stats(table, sample_pairs=100_000)
    assert 0.015 < mean < 0.045  # about 0.03 at this width


def _householder_rows(n, d, rng):
    # The reference for the tall branch: Householder QR, R's diagonal made
    # positive, rows rescaled to unit norm.
    q, r = np.linalg.qr(rng.standard_normal((n, d)))
    q = q * np.sign(np.diag(r))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


@pytest.mark.parametrize("n, d", [(129, 128), (300, 32), (1000, 64)])
def test_tall_orthogonal_rows_match_householder_qr(n, d):
    # (129, 128) is n = d + 1, the worst-conditioned tall draw.
    for seed in range(5):
        table = orthogonal_rows(n, d, np.random.default_rng(seed))
        want = _householder_rows(n, d, np.random.default_rng(seed))
        assert np.abs(table - want).max() <= 1e-13
        assert np.abs(np.linalg.norm(table, axis=1) - 1.0).max() <= 1e-12


def test_tall_orthogonal_rows_peak_at_about_two_tables():
    # The float64 draw and one n x d product live at once, then the cast;
    # Householder QR held about three.
    n, d = 20000, 64
    tracemalloc.start()
    try:
        orthogonal_rows(n, d, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * d * 8


def test_fixed_orthogonal_excluded_from_params():
    g = p3()
    rep = InputRepresentation(g, "fixed-orthogonal", 8, np.random.default_rng(0))
    assert rep.params() == []
    assert not rep.table.tracked


def test_raw_mode_requires_features():
    with pytest.raises(ValueError, match="all-ones"):
        InputRepresentation(p3(), "raw", 8, np.random.default_rng(0))


def test_raw_mode_projects_to_hidden_width():
    g = p3(features=np.eye(3))
    rep = InputRepresentation(g, "raw", 8, np.random.default_rng(0))
    tape = Tape()
    z0 = rep.forward(tape)
    assert z0.shape == (3, 8)
    assert [p.name for p in rep.params()] == ["input.w_proj"]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        InputRepresentation(p3(), "onehot", 8, np.random.default_rng(0))


# -- encoder -----------------------------------------------------------------

def _identity_encoder(g, k, d, residual=False, linear=True):
    rng = np.random.default_rng(0)
    enc = Encoder(ModelConfig(conv="gcn", mpnn_layers=k, hidden_dim=d,
                              linear_encoder=linear, encoder_residual=residual), rng)
    for layer in enc.layers:
        layer["w"].value = np.eye(d)
    return enc


def test_identity_linear_encoder_reproduces_matrix_powers(rng):
    # dot products of the k-layer identity-weight linear encoder equal
    # (A_norm^{2k})_{ij} on exactly orthonormal inputs
    for _ in range(10):
        g = random_graph(rng, n_min=4, n_max=20)
        n = g.num_nodes
        rep = InputRepresentation(g, "fixed-orthogonal", n, np.random.default_rng(1))
        ops = MessageOperators.build(g, "gcn", np.float64)
        dense = normalize(g).toarray()
        for k in (1, 2, 3):
            enc = _identity_encoder(g, k, n)
            z = enc.forward(Tape(record=False), ops, rep.forward(Tape(record=False)))
            oracle = np.linalg.matrix_power(dense, 2 * k)
            assert np.max(np.abs(z.value @ z.value.T - oracle)) < 1e-9


def test_p3_identity_encoder_logit_is_one_sixth():
    g = p3()
    rep = InputRepresentation(g, "fixed-orthogonal", 3, np.random.default_rng(0))
    enc = _identity_encoder(g, 1, 3)
    ops = MessageOperators.build(g, "gcn", np.float64)
    tape = Tape(record=False)
    z = enc.forward(tape, ops, rep.forward(tape))
    dec = Decoder(ModelConfig(decoder="dot", hidden_dim=3), np.random.default_rng(0))
    logit = dec.forward(tape, z, np.array([[0, 2]]))
    assert abs(logit.item() - 1.0 / 6.0) < 1e-12


def test_edgeless_graph_residual_doubles_input():
    g = Graph.from_edges(4, np.empty((0, 2), dtype=np.int64))
    rep = InputRepresentation(g, "fixed-orthogonal", 4, np.random.default_rng(0))
    enc = _identity_encoder(g, 1, 4, residual=True)
    ops = MessageOperators.build(g, "gcn", np.float64)
    tape = Tape(record=False)
    z0 = rep.forward(tape)
    z = enc.forward(tape, ops, z0)
    assert np.allclose(z.value, 2.0 * z0.value, atol=1e-12)


def test_residual_survives_zeroed_conv_weights(rng):
    g = random_graph(rng, n_min=6, n_max=12)
    enc = Encoder(ModelConfig(mpnn_layers=3, hidden_dim=8, encoder_residual=True),
                  np.random.default_rng(0))
    for layer in enc.layers:
        layer["w"].value[:] = 0.0
    rep = InputRepresentation(g, "learnable-orthogonal", 8, np.random.default_rng(2))
    ops = MessageOperators.build(g, "gcn", np.float64)
    tape = Tape(record=False)
    z0 = rep.forward(tape)
    z = enc.forward(tape, ops, z0)
    assert np.array_equal(z.value, z0.value)


def test_permutation_equivariance(rng):
    g = random_graph(rng, n_min=8, n_max=16)
    n = g.num_nodes
    perm = rng.permutation(n)
    edges = g.edge_list()
    g2 = Graph.from_edges(n, perm[edges])
    rep = InputRepresentation(g, "fixed-orthogonal", n, np.random.default_rng(5))
    table2 = np.empty_like(rep.table.value)
    table2[perm] = rep.table.value  # node u keeps its signature after relabel
    enc = Encoder(ModelConfig(mpnn_layers=2, hidden_dim=n), np.random.default_rng(1))
    from linkgae.engine import Tensor
    z1 = enc.forward(Tape(record=False), MessageOperators.build(g, "gcn", np.float64),
                     Tensor(rep.table.value))
    z2 = enc.forward(Tape(record=False), MessageOperators.build(g2, "gcn", np.float64),
                     Tensor(table2))
    assert np.max(np.abs(z2.value[perm] - z1.value)) < 1e-9


def test_nonlinear_variant_changes_output():
    g = p3()
    cfg = ModelConfig(mpnn_layers=2, hidden_dim=4, linear_encoder=True)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    enc_lin = Encoder(cfg, rng_a)
    enc_nl = Encoder(cfg.replace(linear_encoder=False), rng_b)
    rep = InputRepresentation(g, "fixed-orthogonal", 4, np.random.default_rng(0))
    ops = MessageOperators.build(g, "gcn", np.float64)
    z_lin = enc_lin.forward(Tape(record=False), ops, rep.forward(Tape(record=False)))
    z_nl = enc_nl.forward(Tape(record=False), ops, rep.forward(Tape(record=False)))
    assert not np.allclose(z_lin.value, z_nl.value)


def test_relu_is_identity_on_positive_preactivations():
    g = p3()
    cfg = ModelConfig(mpnn_layers=2, hidden_dim=4, linear_encoder=True,
                      encoder_residual=False)
    enc_lin = Encoder(cfg, np.random.default_rng(2))
    enc_nl = Encoder(cfg.replace(linear_encoder=False), np.random.default_rng(3))
    for la, lb in zip(enc_lin.layers, enc_nl.layers):
        w = np.abs(la["w"].value)
        la["w"].value = w
        lb["w"].value = w.copy()
    from linkgae.engine import Tensor
    z0 = Tensor(np.full((3, 4), 0.7))
    ops = MessageOperators.build(g, "gcn", np.float64)
    z_lin = enc_lin.forward(Tape(record=False), ops, z0)
    z_nl = enc_nl.forward(Tape(record=False), ops, z0)
    assert np.array_equal(z_lin.value, z_nl.value)


def test_sage_and_gin_encoders_run_and_differ(rng):
    g = random_graph(rng, n_min=8, n_max=12)
    rep = InputRepresentation(g, "learnable-orthogonal", 16, np.random.default_rng(0))
    outs = {}
    for conv in ("gcn", "sage", "gin"):
        enc = Encoder(ModelConfig(conv=conv, mpnn_layers=2, hidden_dim=16),
                      np.random.default_rng(4))
        ops = MessageOperators.build(g, conv, np.float64)
        tape = Tape(record=False)
        outs[conv] = enc.forward(tape, ops, rep.forward(tape)).value
    assert not np.allclose(outs["gcn"], outs["sage"])
    assert not np.allclose(outs["gcn"], outs["gin"])


def test_encoder_l2_normalization_flag(rng):
    g = random_graph(rng, n_min=6, n_max=10)
    rep = InputRepresentation(g, "learnable-orthogonal", 8, np.random.default_rng(0))
    enc = Encoder(ModelConfig(mpnn_layers=2, hidden_dim=8, normalize_embeddings=True),
                  np.random.default_rng(0))
    tape = Tape(record=False)
    z = enc.forward(tape, MessageOperators.build(g, "gcn", np.float64), rep.forward(tape))
    assert np.allclose(np.linalg.norm(z.value, axis=1), 1.0, atol=1e-12)


# -- propagated-feature encoder ------------------------------------------------

def _loss_and_grads(model, tape, z, weights):
    from linkgae.engine import Tensor
    loss = tape.sum(tape.hadamard(z, Tensor(weights)))
    encoder_params = model.input.params() + model.encoder.params()
    for p in encoder_params:
        p.grad = None
    tape.backward(loss)
    return {p.name: p.grad.copy() for p in encoder_params}


@pytest.mark.parametrize("conv", ["gcn", "sage"])
@pytest.mark.parametrize("masked", [False, True])
def test_propagated_features_equal_the_layer_wise_loop(conv, masked, rng):
    # z_L = sum_k (M^k X) C_k exactly; float64 leaves only rounding.
    g = random_graph(rng, n_min=20, n_max=30, p=0.25, features=5)
    ops = MessageOperators.build(g, conv, np.float64)
    if masked:
        ops = ops.masked(g.edge_list()[::4])
    weights = rng.standard_normal((g.num_nodes, 8))
    for layers in range(1, 5):
        for residual in (True, False):
            for norm in (True, False):
                cfg = small_cfg(input_mode="raw", conv=conv, mpnn_layers=layers,
                                hidden_dim=8, encoder_residual=residual,
                                normalize_embeddings=norm)
                model = GAEModel(g, cfg, seed=layers)
                for p in model.params():
                    p.value = rng.standard_normal(p.shape) / np.sqrt(p.shape[0])
                tape = Tape()
                looped = model.encoder.forward(tape, ops, model.input.forward(tape))
                grads_looped = _loss_and_grads(model, tape, looped, weights)
                tape = Tape()
                unrolled = model.encode(tape, ops)
                grads = _loss_and_grads(model, tape, unrolled, weights)
                assert np.max(np.abs(unrolled.value - looped.value)) <= 1e-12
                for name, want in grads_looped.items():
                    err = np.max(np.abs(grads[name] - want)) / np.max(np.abs(want))
                    assert err <= 1e-10, (name, err)


def _spmm_calls(model, ops, monkeypatch) -> int:
    calls = []
    original = Tape.spmm
    monkeypatch.setattr(Tape, "spmm",
                        lambda self, adj, x: calls.append(1) or original(self, adj, x))
    model.encode(Tape(), ops)
    return len(calls)


@pytest.mark.parametrize("conv", ["gcn", "sage"])
@pytest.mark.parametrize("masked", [False, True])
def test_raw_linear_encoders_propagate_features(conv, masked, rng, monkeypatch):
    g = random_graph(rng, n_min=10, n_max=14, p=0.4, features=6)
    ops = MessageOperators.build(g, conv, np.float64)
    if masked:
        ops = ops.masked(g.edge_list()[:3])
    model = GAEModel(g, small_cfg(input_mode="raw", conv=conv, hidden_dim=6), seed=0)
    assert model.propagates_features
    assert _spmm_calls(model, ops, monkeypatch) == 0


def _matvec_calls(monkeypatch) -> list:
    calls = []
    original = SparseOperator.matvec
    monkeypatch.setattr(SparseOperator, "matvec",
                        lambda self, x: calls.append(1) or original(self, x))
    return calls


@pytest.mark.parametrize("conv", ["gcn", "sage"])
def test_encodes_on_one_operator_propagate_the_features_once(conv, rng, monkeypatch):
    g = random_graph(rng, n_min=20, n_max=30, p=0.3, features=5)
    ops = MessageOperators.build(g, conv, np.float64)
    cfg = small_cfg(input_mode="raw", conv=conv, mpnn_layers=3, hidden_dim=8)
    model = GAEModel(g, cfg, seed=0)
    calls = _matvec_calls(monkeypatch)
    first = model.encode(Tape(), ops).value
    second = model.embed(ops)
    assert len(calls) == 3
    assert first.tobytes() == second.tobytes()
    cached = model.encoder._propagated[2]
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0


def test_a_new_operator_or_new_features_rebuild_the_propagated_entry(rng, monkeypatch):
    g = random_graph(rng, n_min=20, n_max=30, p=0.3, features=5)
    ops = MessageOperators.build(g, "gcn", np.float64)
    model = GAEModel(g, small_cfg(input_mode="raw", mpnn_layers=2, hidden_dim=8), seed=0)
    model.embed(ops)
    calls = _matvec_calls(monkeypatch)
    masked = ops.masked(g.edge_list()[:4])
    z_masked = model.embed(masked)
    assert len(calls) == 2 and model.encoder._propagated[0] is masked.op
    model.input.raw.value = model.input.raw.value + 1.0
    z_shifted = model.embed(masked)
    assert len(calls) == 4 and model.encoder._propagated[1] is model.input.raw.value
    assert not np.array_equal(z_shifted, z_masked)
    model.embed(masked)
    assert len(calls) == 4
    fresh = GAEModel(g, model.cfg, seed=0)  # nothing propagated before the masked operator
    assert z_masked.tobytes() == fresh.embed(masked).tobytes()


@pytest.mark.parametrize("change", [
    {"input_mode": "learnable-orthogonal"}, {"input_mode": "fixed-orthogonal"},
    {"input_mode": "all-ones"}, {"input_mode": "random-uniform"}, {"conv": "gin"},
    {"linear_encoder": False}, {"hidden_dim": 5},  # 6 features > hidden width 5
])
def test_other_encoders_keep_the_layer_wise_loop(change, rng, monkeypatch):
    g = random_graph(rng, n_min=10, n_max=14, p=0.4, features=6)
    cfg = small_cfg(input_mode="raw", hidden_dim=6).replace(**change)
    model = GAEModel(g, cfg, seed=0)
    assert not model.propagates_features
    assert _spmm_calls(model, MessageOperators.build(g, cfg.conv, np.float64), monkeypatch) == 2


# -- decoder -----------------------------------------------------------------

def test_dot_decoder_unit_and_orthogonal_pairs():
    from linkgae.engine import Tensor
    z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    dec = Decoder(ModelConfig(decoder="dot", hidden_dim=2), np.random.default_rng(0))
    tape = Tape(record=False)
    logits = dec.forward(tape, z, np.array([[0, 1], [0, 2]]))
    assert np.allclose(logits.value[:, 0], [1.0, 0.0])


def test_mlp_decoder_zero_head_gives_chance_probability():
    from linkgae.engine import Tensor
    from scipy.special import expit
    rng = np.random.default_rng(0)
    dec = Decoder(ModelConfig(decoder="mlp", mlp_layers=3, dropout=0.0, hidden_dim=8), rng)
    dec.w_head.value[:] = 0.0
    dec.b_head.value[:] = 0.0
    z = Tensor(rng.standard_normal((5, 8)))
    logits = dec.forward(Tape(record=False), z, np.array([[0, 1], [2, 3], [1, 4]]))
    assert np.array_equal(logits.value, np.zeros((3, 1)))
    assert np.all(expit(logits.value) == 0.5)


def test_mlp_decoder_records_one_block_node_per_layer():
    from linkgae.engine import Tensor
    rng = np.random.default_rng(0)
    for residual in (True, False):
        dec = Decoder(ModelConfig(decoder="mlp", mlp_layers=3, dropout=0.2, hidden_dim=8,
                                  decoder_residual=residual), rng)
        tape = Tape()
        dec.forward(tape, Tensor(rng.standard_normal((5, 8)), param=True),
                    np.array([[0, 1], [2, 3], [1, 4]]), rng=rng)
        ops = [node.backward.__qualname__.split(".")[1] for node in tape.nodes]
        assert ops.count("dense_block") == 3
        assert not {"relu", "dropout"} & set(ops)
        assert ops.count("add") == 1  # the head's bias


def test_decoder_rejects_out_of_range_edge():
    from linkgae.engine import Tensor
    dec = Decoder(ModelConfig(decoder="dot", hidden_dim=2), np.random.default_rng(0))
    z = Tensor(np.ones((3, 2)))
    with pytest.raises(IndexError):
        dec.forward(Tape(record=False), z, np.array([[0, 5]]))


# -- whole model ----------------------------------------------------------------

def small_cfg(**kw) -> ModelConfig:
    base = dict(input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=16,
                mlp_layers=2, batch_size=64, dropout=0.0, dtype="float64",
                epochs=5, metric="hits@1")
    base.update(kw)
    return ModelConfig(**base)


def test_model_masked_operators_zero_batch_edges(rng):
    g = random_graph(rng, n_min=10, n_max=14, p=0.4)
    edges = g.edge_list()[:3]
    for conv in ("gcn", "sage", "gin"):
        masked = MessageOperators.build(g, conv, np.float64).masked(edges)
        want = CONV_OPERATORS[conv](g, np.float64).toarray()
        want[edges[:, 0], edges[:, 1]] = 0.0
        want[edges[:, 1], edges[:, 0]] = 0.0
        assert np.array_equal(masked.op.toarray(), want)


def test_score_edges_of_zero_pairs_has_the_model_dtype(rng):
    g = random_graph(rng, n_min=10, n_max=14)
    model = GAEModel(g, small_cfg(dtype="float32"), seed=7)
    ops = MessageOperators.build(g, "gcn", np.float32)
    empty = model.score_edges(ops, np.empty((0, 2), dtype=np.int64))
    some = model.score_edges(ops, g.edge_list()[:3])
    assert empty.shape == (0,)
    assert empty.dtype == some.dtype == np.float32


def test_model_scores_are_deterministic(rng):
    g = random_graph(rng, n_min=10, n_max=14)
    cfg = small_cfg()
    a = GAEModel(g, cfg, seed=7)
    b = GAEModel(g, cfg, seed=7)
    ops = MessageOperators.build(g, "gcn", np.float64)
    edges = g.edge_list()[:4]
    assert np.array_equal(a.score_edges(ops, edges), b.score_edges(ops, edges))
