import itertools
import tracemalloc

import numpy as np
import pytest

from scipy.special import expit

from linkgae import evaluation
from linkgae.checks import max_ulps
from linkgae.config import CHOICES, ModelConfig
from linkgae.engine import BLOCK, Tape, Tensor
from linkgae.graph import Graph, SparseOperator
from linkgae.model import (CONV_OPERATORS, GAEModel, MessageOperators, _glorot,
                           orthogonal_rows)
from linkgae.evaluation import orthogonality_stats
from tests.conftest import random_graph


def p3(features=None) -> Graph:
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]), features)


def small_cfg(**kw) -> ModelConfig:
    base = dict(input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=16,
                mlp_layers=2, batch_size=64, dropout=0.0, dtype="float64",
                epochs=5, metric="hits@1")
    base.update(kw)
    return ModelConfig(**base)


def gcn_ops(g: Graph) -> MessageOperators:
    return MessageOperators.build(g, "gcn", np.float64)


# -- parameter table -----------------------------------------------------------

LAYER_NAMES = {"gcn": ["w"], "sage": ["w_self", "w_neigh"],
               "gin": ["eps", "w1", "b1", "w2", "b2"]}


@pytest.mark.parametrize("decoder", ["dot", "mlp"])
@pytest.mark.parametrize("conv", ["gcn", "sage", "gin"])
@pytest.mark.parametrize("mode", CHOICES["input_mode"])
def test_tensors_are_drawn_in_table_order(mode, conv, decoder, rng):
    # Trained bits depend on the draw order: the input, each encoder layer's
    # weights, the decoder layers' weights, then the head.
    g = random_graph(rng, n_min=6, n_max=10, features=5)
    n, d, seed = g.num_nodes, 4, 3
    model = GAEModel(g, small_cfg(input_mode=mode, conv=conv, decoder=decoder,
                                  hidden_dim=d, dtype="float32"), seed=seed)
    draw = np.random.default_rng(seed)
    want = {}
    if mode == "raw":
        want["input.w_proj"] = _glorot(5, d, draw, np.float64)
    elif mode == "all-ones":
        want["input.table"] = np.ones((n, d))
    elif mode == "random-uniform":
        want["input.table"] = draw.uniform(-1.0, 1.0, (n, d))
    else:
        want["input.table"] = orthogonal_rows(n, d, draw)
    for l in range(2):
        for name in LAYER_NAMES[conv]:
            want[f"enc.{l}.{name}"] = (np.zeros((1, 1)) if name == "eps" else
                                       np.zeros((1, d)) if name[0] == "b" else
                                       orthogonal_rows(d, d, draw))
    if decoder == "mlp":
        for l in range(2):
            want[f"dec.{l}.w"] = orthogonal_rows(d, d, draw)
            want[f"dec.{l}.b"] = np.zeros((1, d))
    # the dot decoder is the head alone, frozen at ones, and draws nothing
    want["dec.head.w"] = _glorot(d, 1, draw, np.float64) if decoder == "mlp" else np.ones((d, 1))
    want["dec.head.b"] = np.zeros((1, 1))
    assert list(model.tensors) == list(want)
    for name, t in model.tensors.items():
        assert t.dtype == np.float32, name
        assert np.array_equal(t.value, want[name].astype(np.float32)), name
    frozen = ["input.table"] if mode == "fixed-orthogonal" else []
    frozen += ["dec.head.w", "dec.head.b"] if decoder == "dot" else []
    assert list(model.named_params()) == [k for k in want if k not in frozen]
    assert [id(p) for p in model.params()] == [id(model.tensors[k])
                                               for k in model.named_params()]


# -- input representations -----------------------------------------------------

def test_orthogonal_gram_is_identity_when_n_below_d():
    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    table = GAEModel(g, small_cfg(hidden_dim=8)).tensors["input.table"]
    gram = table.value @ table.value.T
    assert np.allclose(gram, np.eye(4), atol=1e-6)
    assert table.tracked


def test_all_ones_table():
    model = GAEModel(p3(), small_cfg(input_mode="all-ones", hidden_dim=3))
    assert np.array_equal(model.tensors["input.table"].value, np.ones((3, 3)))


def test_random_uniform_in_range():
    model = GAEModel(p3(), small_cfg(input_mode="random-uniform", hidden_dim=64), seed=1)
    table = model.tensors["input.table"].value
    assert table.min() >= -1.0 and table.max() <= 1.0


def test_wide_orthogonal_rows_unit_norm_and_low_coherence():
    rng = np.random.default_rng(3)
    n, d = 500, 64
    table = orthogonal_rows(n, d, rng)
    assert np.allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-6)
    mean, _ = orthogonality_stats(table)
    assert mean <= 2.0 / np.sqrt(d)


def test_large_orthogonal_init_matches_expected_coherence(monkeypatch):
    monkeypatch.setattr(evaluation, "ORTHOGONALITY_PAIRS", 100_000)
    rng = np.random.default_rng(4)
    table = orthogonal_rows(4267, 1024, rng)
    mean, _ = orthogonality_stats(table)
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
    model = GAEModel(p3(), small_cfg(input_mode="fixed-orthogonal", hidden_dim=8))
    table = model.tensors["input.table"]
    assert not table.tracked
    assert "input.table" not in model.named_params()
    assert all(p is not table for p in model.params())


def test_raw_mode_requires_features():
    with pytest.raises(ValueError, match="all-ones"):
        GAEModel(p3(), small_cfg(input_mode="raw", hidden_dim=8))


def test_raw_mode_projects_to_hidden_width():
    g = p3(features=np.eye(3))
    model = GAEModel(g, small_cfg(input_mode="raw", mpnn_layers=1, hidden_dim=8))
    model.tensors["enc.0.w"].value[:] = 0.0  # z = z0 through the residual
    z = model.embed(gcn_ops(g))
    assert z.shape == (3, 8)
    assert np.allclose(z, model.tensors["input.w_proj"].value)  # z0 = I W_proj
    assert not model.features.tracked
    assert [k for k in model.named_params() if k.startswith("input.")] == ["input.w_proj"]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="input_mode"):
        small_cfg(input_mode="onehot")


# -- encoder -----------------------------------------------------------------

def _identity_model(g, k, d, residual=False, decoder="mlp"):
    model = GAEModel(g, small_cfg(input_mode="fixed-orthogonal", mpnn_layers=k,
                                  hidden_dim=d, encoder_residual=residual,
                                  decoder=decoder))
    for l in range(k):
        model.tensors[f"enc.{l}.w"].value = np.eye(d)
    return model


def test_p3_identity_encoder_logit_is_one_sixth():
    g = p3()
    model = _identity_model(g, 1, 3, decoder="dot")
    logit = model.score_edges(gcn_ops(g), np.array([[0, 2]]))
    assert abs(logit[0] - 1.0 / 6.0) < 1e-12


def test_edgeless_graph_residual_doubles_input():
    g = Graph.from_edges(4, np.empty((0, 2), dtype=np.int64))
    model = _identity_model(g, 1, 4, residual=True)
    z0 = model.tensors["input.table"].value
    assert np.allclose(model.embed(gcn_ops(g)), 2.0 * z0, atol=1e-12)


def test_residual_survives_zeroed_conv_weights(rng):
    g = random_graph(rng, n_min=6, n_max=12)
    model = GAEModel(g, small_cfg(mpnn_layers=3, hidden_dim=8, encoder_residual=True))
    for l in range(3):
        model.tensors[f"enc.{l}.w"].value[:] = 0.0
    assert np.array_equal(model.embed(gcn_ops(g)), model.tensors["input.table"].value)


def test_permutation_equivariance(rng):
    g = random_graph(rng, n_min=8, n_max=16)
    n = g.num_nodes
    perm = rng.permutation(n)
    edges = g.edge_list()
    g2 = Graph.from_edges(n, perm[edges])
    model = GAEModel(g, small_cfg(input_mode="fixed-orthogonal", hidden_dim=n), seed=5)
    table = model.tensors["input.table"].value
    table2 = np.empty_like(table)
    table2[perm] = table  # node u keeps its signature after relabel
    tape = Tape(record=False)
    z1 = model.encode_layers(tape, gcn_ops(g), Tensor(table))
    z2 = model.encode_layers(tape, gcn_ops(g2), Tensor(table2))
    assert np.max(np.abs(z2.value[perm] - z1.value)) < 1e-9


def test_nonlinear_variant_changes_output():
    g = p3()
    cfg = small_cfg(input_mode="fixed-orthogonal", hidden_dim=4, linear_encoder=True)
    z_lin = GAEModel(g, cfg, seed=9).embed(gcn_ops(g))
    z_nl = GAEModel(g, cfg.replace(linear_encoder=False), seed=9).embed(gcn_ops(g))
    assert not np.allclose(z_lin, z_nl)


def test_relu_is_identity_on_positive_preactivations():
    g = p3()
    cfg = small_cfg(hidden_dim=4, linear_encoder=True, encoder_residual=False)
    lin = GAEModel(g, cfg, seed=2)
    nl = GAEModel(g, cfg.replace(linear_encoder=False), seed=3)
    for l in range(2):
        w = np.abs(lin.tensors[f"enc.{l}.w"].value)
        lin.tensors[f"enc.{l}.w"].value = w
        nl.tensors[f"enc.{l}.w"].value = w.copy()
    z0 = Tensor(np.full((3, 4), 0.7))
    z_lin = lin.encode_layers(Tape(record=False), gcn_ops(g), z0)
    z_nl = nl.encode_layers(Tape(record=False), gcn_ops(g), z0)
    assert np.array_equal(z_lin.value, z_nl.value)


def test_sage_and_gin_encoders_run_and_differ(rng):
    g = random_graph(rng, n_min=8, n_max=12)
    outs = {}
    for conv in ("gcn", "sage", "gin"):  # one seed, so one input table
        model = GAEModel(g, small_cfg(conv=conv), seed=4)
        outs[conv] = model.embed(MessageOperators.build(g, conv, np.float64))
    assert not np.allclose(outs["gcn"], outs["sage"])
    assert not np.allclose(outs["gcn"], outs["gin"])


def test_encoder_l2_normalization_flag(rng):
    g = random_graph(rng, n_min=6, n_max=10)
    model = GAEModel(g, small_cfg(hidden_dim=8, normalize_embeddings=True))
    z = model.embed(gcn_ops(g))
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)


# -- propagated-feature encoder ------------------------------------------------

def _loss_and_grads(model, tape, z, weights):
    loss = tape.sum(tape.hadamard(z, Tensor(weights)))
    encoder_params = {k: p for k, p in model.named_params().items()
                      if not k.startswith("dec.")}
    for p in encoder_params.values():
        p.grad = None
    tape.backward(loss)
    return {k: p.grad.copy() for k, p in encoder_params.items()}


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
                z0 = tape.matmul(model.features, model.tensors["input.w_proj"])
                looped = model.encode_layers(tape, ops, z0)
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
    cached = model._propagated[2]
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
    assert len(calls) == 2 and model._propagated[0] is masked.op
    model.features.value = model.features.value + 1.0
    z_shifted = model.embed(masked)
    assert len(calls) == 4 and model._propagated[1] is model.features.value
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
    z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    model = GAEModel(p3(), small_cfg(decoder="dot", hidden_dim=2))
    logits = model.decode(Tape(record=False), z, np.array([[0, 1], [0, 2]]))
    assert np.allclose(logits.value[:, 0], [1.0, 0.0])


@pytest.mark.parametrize("dtype, tol", [("float32", 1e-5), ("float64", 1e-12)])
def test_dot_decoder_scores_are_endpoint_dot_products(dtype, tol, rng):
    g = random_graph(rng, n_min=8, n_max=12)
    model = GAEModel(g, small_cfg(decoder="dot", dtype=dtype), seed=0)
    ops = MessageOperators.build(g, "gcn", model.cfg.np_dtype)
    z = model.embed(ops)
    edges = rng.integers(0, g.num_nodes, (2 * BLOCK + 7, 2))
    want = np.sum(z[edges[:, 0]] * z[edges[:, 1]], axis=1)
    assert np.allclose(model.score_pairs(z, edges), want, rtol=tol, atol=tol)
    assert np.allclose(model.score_edges(ops, edges), want, rtol=tol, atol=tol)


def test_mlp_decoder_zero_head_gives_chance_probability():
    rng = np.random.default_rng(0)
    model = GAEModel(p3(), small_cfg(mlp_layers=3, hidden_dim=8))
    model.tensors["dec.head.w"].value[:] = 0.0
    model.tensors["dec.head.b"].value[:] = 0.0
    z = Tensor(rng.standard_normal((5, 8)))
    logits = model.decode(Tape(record=False), z, np.array([[0, 1], [2, 3], [1, 4]]))
    assert np.array_equal(logits.value, np.zeros((3, 1)))
    assert np.all(expit(logits.value) == 0.5)


def test_mlp_decoder_records_one_block_node_per_layer():
    rng = np.random.default_rng(0)

    def recorded(tape):
        return [node.backward.__qualname__.split(".")[1] for node in tape.nodes]

    for residual in (True, False):
        model = GAEModel(p3(), small_cfg(mlp_layers=3, dropout=0.2, hidden_dim=8,
                                         decoder_residual=residual))
        z = Tensor(rng.standard_normal((5, 8)), param=True)
        tape = Tape()
        model.decode(tape, z, np.array([[0, 1], [2, 3], [1, 4]]))
        head = ["matmul", "add"]  # the head's weight and bias
        assert recorded(tape) == ["gather_rows", "gather_rows", "hadamard",
                                  *["dense_block"] * 3, *head]
        # given an rng, dropout runs inside the blocks, as no node of its own
        weights = model.decoder_weights()
        tape = Tape()
        dropped = model.decode_mlp(tape, z, weights, np.random.default_rng(1)).value
        assert recorded(tape) == ["dense_block"] * 3 + head
        assert not np.array_equal(dropped, model.decode_mlp(Tape(), z, weights).value)


def test_mlp_decoder_with_no_layers_is_the_head_on_the_hadamard_product(rng):
    model = GAEModel(p3(), small_cfg(mlp_layers=0, hidden_dim=4))
    assert [k for k in model.tensors if k.startswith("dec.")] == ["dec.head.w", "dec.head.b"]
    model.tensors["dec.head.b"].value[:] = 0.5
    z = rng.standard_normal((3, 4))
    edges = np.array([[0, 1], [2, 1]])
    want = (z[edges[:, 0]] * z[edges[:, 1]]) @ model.tensors["dec.head.w"].value + 0.5
    assert np.allclose(model.decode(Tape(record=False), Tensor(z), edges).value, want)
    with pytest.raises(ValueError, match="mlp_layers must be >= 0"):
        small_cfg(mlp_layers=-1)


def test_score_pairs_decodes_in_blocks(monkeypatch, rng):
    model = GAEModel(p3(), small_cfg(hidden_dim=4))
    z = rng.standard_normal((3, 4))
    edges = rng.integers(0, 3, (2 * BLOCK + 7, 2))
    one_call = model.decode(Tape(record=False), Tensor(z), edges).value[:, 0]
    sizes = []
    decode = GAEModel.decode

    def spy(self, tape, z, edges):
        sizes.append(len(edges))
        return decode(self, tape, z, edges)

    monkeypatch.setattr(GAEModel, "decode", spy)
    scores = model.score_pairs(z, edges)
    assert sizes == [BLOCK, BLOCK, 7]
    assert np.allclose(scores, one_call, rtol=1e-12, atol=1e-12)


def test_decoder_rejects_out_of_range_edge():
    model = GAEModel(p3(), small_cfg(decoder="dot", hidden_dim=2))
    z = Tensor(np.ones((3, 2)))
    with pytest.raises(IndexError):
        model.decode(Tape(record=False), z, np.array([[0, 5]]))


def test_mlp_decoder_rejects_a_negative_edge_id():
    model = GAEModel(p3(), small_cfg(hidden_dim=2))
    z = Tensor(np.ones((3, 2)), param=True)
    for tape in (Tape(), Tape(record=False)):
        with pytest.raises(IndexError):
            model.decode(tape, z, np.array([[0, 1], [-1, 2]]))


# -- whole model ----------------------------------------------------------------

def test_model_masked_operators_zero_batch_edges(rng):
    g = random_graph(rng, n_min=10, n_max=14, p=0.4)
    edges = g.edge_list()[:3]
    for conv in ("gcn", "sage", "gin"):
        masked = MessageOperators.build(g, conv, np.float64).masked(edges)
        want = CONV_OPERATORS[conv](g, np.float64).mat.toarray()
        want[edges[:, 0], edges[:, 1]] = 0.0
        want[edges[:, 1], edges[:, 0]] = 0.0
        assert np.array_equal(masked.op.mat.toarray(), want)


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


# -- scoring from the pairs' receptive field ----------------------------------------

def _with_isolated_nodes(rng, features: int) -> Graph:
    """50 connected-ish nodes and 10 isolated ones, with raw features."""
    n = 60
    iu, ju = np.triu_indices(50, k=1)
    keep = rng.random(len(iu)) < 0.05
    return Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1),
                            rng.standard_normal((n, features)))


def _pools(rng, n: int, isolated: int) -> list[np.ndarray]:
    return [rng.integers(0, n, (7, 2)), rng.integers(0, n, (3, 4, 2)),
            np.array([[5, 5]]), np.array([[isolated, isolated]]), np.array([[isolated, 3]]),
            np.array([[0, 1]]), np.empty((0, 2), dtype=np.int64),
            np.stack([np.arange(n), np.arange(n)[::-1]], axis=1)]


INPUTS = {  # input name -> (input mode, feature width); hidden width 16
    "learnable": ("learnable-orthogonal", 5), "fixed": ("fixed-orthogonal", 5),
    "all-ones": ("all-ones", 5), "random-uniform": ("random-uniform", 5),
    "raw-propagated": ("raw", 5), "raw-wide": ("raw", 24),
}


@pytest.mark.parametrize("inputs", list(INPUTS))
@pytest.mark.parametrize("conv", ["gcn", "sage", "gin"])
def test_score_edges_is_bit_identical_to_scoring_the_whole_embedding(conv, inputs, rng):
    # Depends on the BLAS kernel: bit equality holds only where a GEMM row
    # does not depend on the row count. A failure names its ulp distance; a
    # few ulps point at the kernel, more at a defect.
    mode, width = INPUTS[inputs]
    g = _with_isolated_nodes(rng, width)
    checked = 0
    for linear, residual, normalized, dtype, masked in itertools.product(
            (True, False), (True, False), (True, False), ("float32", "float64"), (False, True)):
        cfg = small_cfg(input_mode=mode, conv=conv, mpnn_layers=3, linear_encoder=linear,
                        encoder_residual=residual, normalize_embeddings=normalized,
                        dtype=dtype)
        model = GAEModel(g, cfg, seed=3)
        ops = MessageOperators.build(g, conv, cfg.np_dtype)
        if masked:
            ops = ops.masked(g.edge_list()[::3])
        z = model.embed(ops)
        for pairs in _pools(rng, g.num_nodes, isolated=55):
            got, want = model.score_edges(ops, pairs), model.score_pairs(z, pairs)
            assert got.shape == want.shape == pairs.shape[:-1] and got.dtype == want.dtype
            assert [x.hex() for x in got.ravel().tolist()] == \
                [x.hex() for x in want.ravel().tolist()], (
                    f"{max_ulps(got, want):.3g} ulps", linear, residual, normalized,
                    dtype, masked, pairs.tolist())
            checked += 1
    assert checked == 32 * 8


@pytest.mark.parametrize("bad", [-1, 60])
def test_score_edges_rejects_node_ids_outside_the_graph(bad, rng):
    g = _with_isolated_nodes(rng, 5)
    model = GAEModel(g, small_cfg())
    ops = MessageOperators.build(g, "gcn", np.float64)
    with pytest.raises(IndexError, match="out of range"):
        model.score_edges(ops, np.array([[0, 1], [bad, 2]]))


@pytest.mark.parametrize("conv", ["sage", "gin"])
def test_restricted_encode_has_the_whole_encodes_gradients(conv, rng):
    g = _with_isolated_nodes(rng, 5)
    model = GAEModel(g, small_cfg(conv=conv, mpnn_layers=2, normalize_embeddings=True), seed=1)
    ops = MessageOperators.build(g, conv, np.float64)
    nodes = np.array([0, 3, 17, 55])
    w = Tensor(rng.standard_normal((len(nodes), 16)))
    grads = []
    for restricted in (True, False):
        for p in model.params():
            p.grad = None
        tape = Tape()
        z = (model.encode(tape, ops, nodes) if restricted
             else tape.gather_rows(model.encode(tape, ops), nodes))
        tape.backward(tape.sum(tape.hadamard(z, w)))
        grads.append([np.zeros_like(p.value) if p.grad is None else p.grad
                      for p in model.params()])
    for a, b in zip(*grads):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_fifty_pairs_on_a_large_graph_reach_few_rows_of_the_last_layer(monkeypatch):
    from linkgae.synth import structure_dominant_graph
    g = structure_dominant_graph(20000, seed=1)
    model = GAEModel(g, small_cfg(hidden_dim=16, dtype="float32"), seed=1)
    ops = MessageOperators.build(g, "gcn", np.float32)
    rows = []
    original = SparseOperator.matvec
    monkeypatch.setattr(SparseOperator, "matvec",
                        lambda self, x: rows.append(self.shape[0]) or original(self, x))
    model.score_edges(ops, g.edge_list()[::1000][:50])
    assert len(rows) == 2 and rows[-1] < g.num_nodes / 4, rows


def test_a_pool_covering_every_node_runs_on_the_operator_itself(rng, monkeypatch):
    g = _with_isolated_nodes(rng, 5)
    model = GAEModel(g, small_cfg(conv="sage", mpnn_layers=3), seed=1)
    ops = MessageOperators.build(g, "sage", np.float64)
    seen = []
    original = SparseOperator.matvec
    monkeypatch.setattr(SparseOperator, "matvec",
                        lambda self, x: seen.append(self) or original(self, x))
    model.score_edges(ops, np.stack([np.arange(60), np.arange(60)[::-1]], axis=1))
    assert len(seen) == 3 and all(op is ops.op for op in seen)
