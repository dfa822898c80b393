import numpy as np
import pytest

from linkgae.config import ModelConfig
from linkgae.engine import Tape
from linkgae.graph import Graph, normalize
from linkgae.model import (Decoder, Encoder, GAEModel, MessageOperators,
                           build_input, orthogonal_rows)
from linkgae.evaluation import orthogonality_stats
from tests.conftest import random_graph


def p3(features=None) -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]), features)


# -- input representations -----------------------------------------------------

def test_orthogonal_gram_is_identity_when_n_below_d():
    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    rep = build_input(g, "learnable-orthogonal", 8, seed=0)
    gram = rep.table.value @ rep.table.value.T
    assert np.allclose(gram, np.eye(4), atol=1e-6)
    assert rep.table.param


def test_all_ones_table():
    g = p3()
    rep = build_input(g, "all-ones", 3, seed=0)
    assert np.array_equal(rep.table.value, np.ones((3, 3)))


def test_random_uniform_in_range():
    g = p3()
    rep = build_input(g, "random-uniform", 64, seed=1)
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


def test_fixed_orthogonal_excluded_from_params():
    g = p3()
    rep = build_input(g, "fixed-orthogonal", 8, seed=0)
    assert rep.params() == []
    assert not rep.table.param


def test_raw_mode_requires_features():
    with pytest.raises(ValueError, match="all-ones"):
        build_input(p3(), "raw", 8, seed=0)


def test_raw_mode_projects_to_hidden_width():
    g = p3(features=np.eye(3))
    rep = build_input(g, "raw", 8, seed=0)
    tape = Tape()
    z0 = rep.forward(tape)
    assert z0.shape == (3, 8)
    assert [p.name for p in rep.params()] == ["input.w_proj"]


def test_raw_plus_learnable_concatenates_then_projects():
    g = p3(features=np.eye(3))
    rep = build_input(g, "raw-plus-learnable", 8, seed=0)
    z0 = rep.forward(Tape())
    assert z0.shape == (3, 8)
    names = {p.name for p in rep.params()}
    assert names == {"input.w_proj", "input.table", "input.w_mix"}


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        build_input(p3(), "onehot", 8, seed=0)


# -- encoder -----------------------------------------------------------------

def _identity_encoder(g, k, d, residual=False, linear=True):
    rng = np.random.default_rng(0)
    enc = Encoder(ModelConfig(conv="gcn", mpnn_layers=k, hidden_dim=d,
                              linear_encoder=linear, encoder_residual=residual), rng)
    enc.set_identity_weights()
    return enc


def test_identity_linear_encoder_reproduces_matrix_powers(rng):
    # dot products of the k-layer identity-weight linear encoder equal
    # (A_norm^{2k})_{ij} on exactly orthonormal inputs
    for _ in range(10):
        g = random_graph(rng, n_min=4, n_max=20)
        n = g.num_nodes
        rep = build_input(g, "fixed-orthogonal", n, seed=1)
        ops = MessageOperators.build(g, "gcn")
        dense = normalize(g).toarray()
        for k in (1, 2, 3):
            enc = _identity_encoder(g, k, n)
            z = enc.forward(Tape(record=False), ops, rep.forward(Tape(record=False)))
            oracle = np.linalg.matrix_power(dense, 2 * k)
            assert np.max(np.abs(z.value @ z.value.T - oracle)) < 1e-9


def test_p3_identity_encoder_logit_is_one_sixth():
    g = p3()
    rep = build_input(g, "fixed-orthogonal", 3, seed=0)
    enc = _identity_encoder(g, 1, 3)
    ops = MessageOperators.build(g, "gcn")
    tape = Tape(record=False)
    z = enc.forward(tape, ops, rep.forward(tape))
    dec = Decoder(ModelConfig(decoder="dot", hidden_dim=3), np.random.default_rng(0))
    logit = dec.forward(tape, z, np.array([[0, 2]]))
    assert abs(logit.item() - 1.0 / 6.0) < 1e-12


def test_edgeless_graph_residual_doubles_input():
    g = Graph.from_edges(4, np.empty((0, 2), dtype=np.int64))
    rep = build_input(g, "fixed-orthogonal", 4, seed=0)
    enc = _identity_encoder(g, 1, 4, residual=True)
    ops = MessageOperators.build(g, "gcn")
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
    rep = build_input(g, "learnable-orthogonal", 8, seed=2)
    ops = MessageOperators.build(g, "gcn")
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
    rep = build_input(g, "fixed-orthogonal", n, seed=5)
    table2 = np.empty_like(rep.table.value)
    table2[perm] = rep.table.value  # node u keeps its signature after relabel
    enc = Encoder(ModelConfig(mpnn_layers=2, hidden_dim=n), np.random.default_rng(1))
    from linkgae.engine import Tensor
    z1 = enc.forward(Tape(record=False), MessageOperators.build(g, "gcn"),
                     Tensor(rep.table.value))
    z2 = enc.forward(Tape(record=False), MessageOperators.build(g2, "gcn"),
                     Tensor(table2))
    assert np.max(np.abs(z2.value[perm] - z1.value)) < 1e-9


def test_nonlinear_variant_changes_output():
    g = p3()
    cfg = ModelConfig(mpnn_layers=2, hidden_dim=4, linear_encoder=True)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    enc_lin = Encoder(cfg, rng_a)
    enc_nl = Encoder(cfg.replace(linear_encoder=False), rng_b)
    rep = build_input(g, "fixed-orthogonal", 4, seed=0)
    ops = MessageOperators.build(g, "gcn")
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
    ops = MessageOperators.build(g, "gcn")
    z_lin = enc_lin.forward(Tape(record=False), ops, z0)
    z_nl = enc_nl.forward(Tape(record=False), ops, z0)
    assert np.array_equal(z_lin.value, z_nl.value)


def test_sage_and_gin_encoders_run_and_differ(rng):
    g = random_graph(rng, n_min=8, n_max=12)
    rep = build_input(g, "learnable-orthogonal", 16, seed=0)
    outs = {}
    for conv in ("gcn", "sage", "gin"):
        enc = Encoder(ModelConfig(conv=conv, mpnn_layers=2, hidden_dim=16),
                      np.random.default_rng(4))
        ops = MessageOperators.build(g, conv)
        tape = Tape(record=False)
        outs[conv] = enc.forward(tape, ops, rep.forward(tape)).value
    assert not np.allclose(outs["gcn"], outs["sage"])
    assert not np.allclose(outs["gcn"], outs["gin"])


def test_encoder_l2_normalization_flag(rng):
    g = random_graph(rng, n_min=6, n_max=10)
    rep = build_input(g, "learnable-orthogonal", 8, seed=0)
    enc = Encoder(ModelConfig(mpnn_layers=2, hidden_dim=8, normalize_embeddings=True),
                  np.random.default_rng(0))
    tape = Tape(record=False)
    z = enc.forward(tape, MessageOperators.build(g, "gcn"), rep.forward(tape))
    assert np.allclose(np.linalg.norm(z.value, axis=1), 1.0, atol=1e-12)


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
        ops = MessageOperators.build(g, conv)
        masked = ops.masked(edges)
        for name in ("norm", "mean", "plain"):
            op = getattr(masked, name)
            if op is None:
                continue
            dense = op.toarray()
            for u, v in edges:
                assert dense[u, v] == 0.0 and dense[v, u] == 0.0


def test_model_checkpoint_roundtrip(tmp_path, rng):
    g = random_graph(rng, n_min=8, n_max=12, features=5)
    cfg = small_cfg(input_mode="raw")
    model = GAEModel(g, cfg, seed=3)
    ops = MessageOperators.build(g, "gcn")
    edges = np.array([[0, 1], [2, 3]])
    before = model.score_edges(ops, edges)
    path = tmp_path / "model.npz"
    model.save(path)
    back = GAEModel.load(path, g)
    assert back.cfg == cfg
    after = back.score_edges(ops, edges)
    assert np.allclose(before, after, atol=1e-12)


def test_model_scores_are_deterministic(rng):
    g = random_graph(rng, n_min=10, n_max=14)
    cfg = small_cfg()
    a = GAEModel(g, cfg, seed=7)
    b = GAEModel(g, cfg, seed=7)
    ops = MessageOperators.build(g, "gcn")
    edges = g.edge_list()[:4]
    assert np.array_equal(a.score_edges(ops, edges), b.score_edges(ops, edges))
