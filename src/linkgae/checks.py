"""The checks ``linkgae verify`` runs, one pass/fail line each.

Finite-difference gradients of every tape op and of the full training loss,
the blocked decoder loss against one block, the unrolled-encoder identity,
restricted scoring against the whole graph's embedding,
the common-neighbor equivalence of the identity-weight linear encoder,
CN/AA/RA against a sparse product, and the orthogonal initialization.
Only the CLI imports this module, so it may import every other layer.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import heuristics
from .config import CHOICES, ModelConfig
from .engine import BLOCK, Tape, Tensor
from .evaluation import orthogonality_stats
from .graph import Graph, mean_adjacency, normalize
from .model import GAEModel, MessageOperators, orthogonal_rows
from .train import batch_loss, bce_loss, pair_loss


def _p(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64), param=True)


def _op_cases(rng: np.random.Generator) -> dict[str, tuple[list[Tensor], Callable]]:
    """One representative call per registered op, inputs kept away from kinks."""
    a = _p(rng.standard_normal((4, 3)))
    b = _p(rng.standard_normal((3, 5)))
    c = _p(rng.standard_normal((4, 3)))
    row = _p(rng.standard_normal((1, 3)))
    scalar = _p(rng.standard_normal((1, 1)))
    relu_in = _p(rng.standard_normal((4, 3)) + np.sign(rng.standard_normal((4, 3))) * 0.5)
    norm_in = _p(rng.standard_normal((4, 3)) + 2.0)
    logits = _p(rng.standard_normal((6, 1)) * 2.0)
    labels = Tensor(rng.integers(0, 2, (6, 1)).astype(np.float64))
    idx = np.array([0, 2, 2, 3, 1])

    g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 4]]))
    adj = normalize(g)
    mean_adj = mean_adjacency(g)  # asymmetric: exercises the transpose path
    spmm_in = _p(rng.standard_normal((5, 3)))
    spmm_in2 = _p(rng.standard_normal((5, 3)))
    # dense_block's pre-activation h @ w + b is relu_in up to rounding
    block_w = _p(rng.standard_normal((3, 3)) + 2.0 * np.eye(3))
    block_h = _p((relu_in.value - row.value) @ np.linalg.inv(block_w.value))
    block = [block_h, block_w, row]
    # pair_blocks over BLOCK + 7 pairs, two blocks, of a logistic head
    pair_u, pair_v = rng.integers(0, 5, (2, BLOCK + 7))
    pair_labels = rng.integers(0, 2, (BLOCK + 7, 1)).astype(np.float64)

    def pair_block(t, h, leaves, lo):
        logits = t.add(t.matmul(h, leaves[0]), leaves[1])
        return t.bce_with_logits(logits, Tensor(pair_labels[lo:lo + h.shape[0]]))

    return {
        "matmul": ([a, b], lambda t, x, y: t.matmul(x, y)),
        "matmul_column": ([a, _p(rng.standard_normal((3, 1)))], lambda t, x, y: t.matmul(x, y)),
        "spmm": ([spmm_in], lambda t, x: t.spmm(adj, x)),
        "spmm_asymmetric": ([spmm_in2], lambda t, x: t.spmm(mean_adj, x)),
        "add": ([a, c], lambda t, x, y: t.add(x, y)),
        "add_row_broadcast": ([a, row], lambda t, x, y: t.add(x, y)),
        "hadamard": ([a, c], lambda t, x, y: t.hadamard(x, y)),
        "scalar_mul": ([a, scalar], lambda t, x, s: t.scalar_mul(x, s)),
        "row_dot": ([a, c], lambda t, x, y: t.row_dot(x, y)),
        "gather_rows": ([a], lambda t, x: t.gather_rows(x, idx)),
        "pair_blocks": ([spmm_in, _p(rng.standard_normal((3, 1))), scalar],
                        lambda t, x, w, b: t.pair_blocks(x, pair_u, pair_v, [w, b], pair_block)),
        "relu": ([relu_in], lambda t, x: t.relu(x)),
        "dropout": ([a], lambda t, x: t.dropout(x, 0.4, np.random.default_rng(123))),
        "dense_block": (block, lambda t, x, w, b: t.dense_block(x, w, b, None, 0.0, None)),
        "dense_block_residual": (block + [c], lambda t, x, w, b, r: t.dense_block(
            x, w, b, r, 0.0, None)),
        "dense_block_dropout": (block, lambda t, x, w, b: t.dense_block(
            x, w, b, x, 0.4, np.random.default_rng(123))),  # h is h0, as in layer 0
        "concat_rows": ([a, c], lambda t, x, y: t.concat_rows(x, y)),
        "sum": ([a], lambda t, x: t.sum(x)),
        "l2_normalize": ([norm_in], lambda t, x: t.l2_normalize(x)),
        "bce_with_logits": ([logits], lambda t, x: t.bce_with_logits(x, labels)),
    }


# finite_difference_check skips a coordinate whose central differences at h
# and h/4 differ by more than KINK_TOL (relative); on the full-model checks of
# `linkgae verify`, smooth coordinates differ by at most 7e-8. Skipping more
# than MAX_KINK_SHARE of the coordinates fails the check.
KINK_TOL = 1e-5
MAX_KINK_SHARE = 0.05


def finite_difference_check(inputs: Sequence[Tensor],
                            forward: Callable[..., Tensor],
                            h: float = 1e-5) -> float:
    """Max relative error of analytic grads vs central differences.

    ``forward(tape, *inputs)`` may return any shape; it is reduced with a
    weighted sum so every output entry influences the scalar.

    A coordinate whose ±h step crosses a kink (a ReLU input changing sign)
    has no finite-difference derivative at step h. So a coordinate that
    fails the comparison is differenced again at h/4: on a smooth coordinate
    the two agree to truncation and rounding error, and when they disagree
    the coordinate is skipped. The skip is decided by the forward pass
    alone, so a wrong backward cannot cause one. Returns inf when more than
    ``MAX_KINK_SHARE`` of the coordinates are skipped.
    """
    tape = Tape()
    out = forward(tape, *inputs)
    w = np.random.default_rng(99).standard_normal(out.shape)
    loss = tape.sum(tape.hadamard(out, Tensor(w)))
    for t in inputs:
        t.grad = None
    tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.value)
                for t in inputs]

    def f() -> float:
        return float(np.sum(forward(Tape(record=False), *inputs).value * w))

    def central(flat: np.ndarray, i: int, step: float) -> float:
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        return (fp - fm) / (2.0 * step)

    def rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)

    worst, skipped, total = 0.0, 0, 0
    for t, an in zip(inputs, analytic):
        flat = t.value.reshape(-1)
        fd = np.array([central(flat, i, h) for i in range(flat.size)])
        err = rel(an.reshape(-1), fd)
        for i in np.flatnonzero(err > KINK_TOL):  # an agreeing coordinate passes anyway
            if rel(fd[i], central(flat, i, h / 4)) > KINK_TOL:
                err[i] = 0.0
                skipped += 1
        total += flat.size
        worst = max(worst, float(np.max(err, initial=0.0)))
    return worst if skipped <= MAX_KINK_SHARE * total else float("inf")


def gradient_check_all() -> dict[str, float]:
    """Run the finite-difference oracle over every registered op."""
    rng = np.random.default_rng(7)
    return {name: finite_difference_check(inputs, fwd)
            for name, (inputs, fwd) in _op_cases(rng).items()}


def verify_cn_equivalence(g: Graph, k: int) -> float:
    """Max |z_i . z_j - (A_norm^{2k})_{ij}| for the identity-weight linear encoder.

    Embeds with a fixed-orthogonal model (exactly orthonormal inputs) whose
    encoder weights are identities and compares every pairwise dot product
    against the dense matrix-power oracle.
    """
    n = g.num_nodes
    if n > 512:
        raise ValueError("dense-power oracle is limited to n <= 512")
    model = GAEModel(g, ModelConfig(input_mode="fixed-orthogonal", conv="gcn",
                                    mpnn_layers=k, hidden_dim=n, encoder_residual=False,
                                    dtype="float64"), seed=0)
    for l in range(k):
        model.tensors[f"enc.{l}.w"].value = np.eye(n)  # each layer a pure propagation step
    z = model.embed(MessageOperators.build(g, "gcn", np.float64))
    oracle = np.linalg.matrix_power(normalize(g).mat.toarray(), 2 * k)
    return float(np.max(np.abs(z @ z.T - oracle)))


def sweep_graphs(num_graphs: int):
    """The random graphs the verify sweeps draw: 3 to 20 nodes each."""
    rng = np.random.default_rng(123)
    for _ in range(num_graphs):
        n = int(rng.integers(3, 21))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < rng.uniform(0.1, 0.5)
        yield Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))


def cn_equivalence_sweep(num_graphs: int) -> float:
    """Worst common-neighbor-equivalence deviation over the sweep's graphs, k = 1..3."""
    worst = 0.0
    for g in sweep_graphs(num_graphs):
        for k in (1, 2, 3):
            worst = max(worst, verify_cn_equivalence(g, k))
    return worst


def heuristic_product_sweep(num_graphs: int) -> dict[str, float]:
    """Worst |score_edges - (A diag(w) A)_uv| per structural heuristic.

    Checks every ordered pair u != v of the sweep's graphs against the scipy
    product with w = 1 (CN), 1/ln deg (AA) and 1/deg (RA). Only nodes of
    degree >= 2 can be shared by two distinct nodes, so the rest weigh 0.
    """
    worst = {"cn": 0.0, "aa": 0.0, "ra": 0.0}
    for g in sweep_graphs(num_graphs):
        n = g.num_nodes
        a = sp.csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(n, n))
        deg = g.degrees
        shareable = deg >= 2
        aa, ra = np.zeros(n), np.zeros(n)
        aa[shareable] = 1.0 / np.log(deg[shareable])
        ra[shareable] = 1.0 / deg[shareable]
        pairs = np.argwhere(~np.eye(n, dtype=bool))
        for which, w in (("cn", np.ones(n)), ("aa", aa), ("ra", ra)):
            want = (a @ sp.diags(w) @ a).toarray()[pairs[:, 0], pairs[:, 1]]
            dev = np.max(np.abs(heuristics.score_edges(g, pairs, which) - want))
            worst[which] = max(worst[which], float(dev))
    return worst


def _feature_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """A random graph on n nodes with edge probability p and 5 raw features."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    feats = rng.standard_normal((n, 5))
    return Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1), feats)


def model_gradient_check(conv: str = "gcn", seed: int = 0,
                         input_mode: str = "learnable-orthogonal") -> float:
    """Finite-difference check of ``train.batch_loss``, the loss
    each training step differentiates, wrt every parameter.

    Builds a small 64-bit model (``input_mode`` on a random 12-node graph
    with 5 raw features, residuals, dropout, output normalization) and compares
    analytic gradients against central differences, returning the max
    relative error. ``input_mode="raw"`` with gcn or sage checks the
    propagated-feature encoder; with gin, the layer-wise loop.
    """
    rng = np.random.default_rng(seed)
    n = 12
    g = _feature_graph(rng, n, p=0.35)
    cfg = ModelConfig(input_mode=input_mode, conv=conv, mpnn_layers=2,
                      hidden_dim=8, mlp_layers=2, dropout=0.3,
                      normalize_embeddings=True, batch_size=8, dtype="float64",
                      metric="hits@1")
    model = GAEModel(g, cfg, seed=seed)
    ops = MessageOperators.build(g, conv, np.float64)
    pos = g.edge_list()[:6]
    neg_rng = np.random.default_rng(seed + 1)
    neg = np.stack([neg_rng.integers(0, n, 18), neg_rng.integers(0, n, 18)], axis=1)
    neg = neg[neg[:, 0] != neg[:, 1]]

    def loss(tape: Tape, *_params):
        # a fresh rng draws the same dropout masks on every evaluation
        return batch_loss(tape, model, ops, pos, neg, np.random.default_rng(55))

    return finite_difference_check(model.params(), loss)


# (pairs, mlp_layers, decoder_residual) of decoder_block_deviation's cases
DECODER_BLOCK_CASES = tuple(itertools.product((1, BLOCK - 1, BLOCK, 2 * BLOCK + 7),
                                              (0, 3), (True, False)))


def decoder_block_deviation(pairs: int, mlp_layers: int, residual: bool) -> float:
    """Max relative deviation of ``train.pair_loss``, the MLP decoder's loss
    in blocks of ``BLOCK`` pairs, from the one-block composition
    ``bce_loss(decode(z, pairs))``, in float64 at dropout 0.

    Compares the loss and the gradients of z and of every decoder weight,
    each relative to its largest magnitude, for random weights, embeddings
    and pairs on 40 nodes of width 8, a quarter of the pairs positive.
    """
    rng = np.random.default_rng(pairs)
    n = 40
    cfg = ModelConfig(hidden_dim=8, mlp_layers=mlp_layers, decoder_residual=residual,
                      dropout=0.0, dtype="float64")
    model = GAEModel(_feature_graph(rng, n, p=0.2), cfg, seed=0)
    weights = model.decoder_weights()
    for w in weights:
        w.value = rng.standard_normal(w.shape) / np.sqrt(w.shape[0])
    z0 = rng.standard_normal((n, cfg.hidden_dim))
    edges = rng.integers(0, n, (pairs, 2))
    positives = (pairs + 3) // 4

    def run(loss_fn) -> list[np.ndarray]:
        z = Tensor(z0.copy(), param=True)
        for w in weights:
            w.grad = None
        tape = Tape()
        loss = loss_fn(tape, z)
        tape.backward(loss)
        return [loss.value, z.grad] + [w.grad for w in weights]

    blocked = run(lambda t, z: pair_loss(t, model, z, edges, positives, None))
    whole = run(lambda t, z: bce_loss(t, model.decode(t, z, edges), positives))
    return max(float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
               for a, b in zip(blocked, whole))


def unrolled_encoder_deviation() -> float:
    """Max |z| difference between ``GAEModel.encode`` on raw features (the
    propagated-feature path) and ``GAEModel.encode_layers``, in float64.

    Covers gcn and sage, 1-4 layers, the residual on and off, and the plain
    and a masked operator, each with fresh Gaussian weights scaled by
    1/sqrt(rows) on one random 16-node graph with 5 features.
    """
    rng = np.random.default_rng(0)
    g = _feature_graph(rng, 16, p=0.3)
    worst = 0.0
    for conv, masked, layers, residual in itertools.product(
            ("gcn", "sage"), (False, True), range(1, 5), (True, False)):
        ops = MessageOperators.build(g, conv, np.float64)
        if masked:
            ops = ops.masked(g.edge_list()[::3])
        cfg = ModelConfig(input_mode="raw", conv=conv, mpnn_layers=layers, hidden_dim=8,
                          encoder_residual=residual, dtype="float64")
        model = GAEModel(g, cfg, seed=0)
        for p in model.params():
            p.value = rng.standard_normal(p.shape) / np.sqrt(p.shape[0])
        tape = Tape(record=False)
        z0 = tape.matmul(model.features, model.tensors["input.w_proj"])
        looped = model.encode_layers(tape, ops, z0)
        unrolled = model.encode(tape, ops)
        worst = max(worst, float(np.max(np.abs(unrolled.value - looped.value))))
    return worst


def max_ulps(got: np.ndarray, want: np.ndarray) -> float:
    """The largest |got - want| in units in the last place of the larger of
    the two; 0 for empty arrays."""
    if got.size == 0:
        return 0.0
    scale = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    return float(np.max(np.abs(got - want) / scale))


def restricted_scoring_mismatches(num_graphs: int) -> tuple[int, int, float]:
    """Logits of ``score_edges`` that differ in any bit from
    ``score_pairs(embed(ops))``, logits compared, and the largest difference
    in ulps (``max_ulps``), over the sweep's graphs.

    Float64 models of width 16 with 2 layers, gcn, sage and gin, learnable
    inputs; per graph one random pair, one (u, u) pair, five random pairs and
    every ordered pair. Bit equality holds only where the BLAS kernel
    computes a GEMM row alike for any row count.
    """
    bad = total = 0
    worst = 0.0
    rng = np.random.default_rng(7)
    for g, conv in itertools.product(sweep_graphs(num_graphs), CHOICES["conv"]):
        model = GAEModel(g, ModelConfig(conv=conv, mpnn_layers=2, hidden_dim=16,
                                        mlp_layers=2, dtype="float64"), seed=1)
        ops = MessageOperators.build(g, conv, np.float64)
        z = model.embed(ops)
        n = g.num_nodes
        u = int(rng.integers(n))
        for pairs in (rng.integers(0, n, (1, 2)), np.array([[u, u]]),
                      rng.integers(0, n, (5, 2)), np.argwhere(np.ones((n, n), dtype=bool))):
            got, want = model.score_edges(ops, pairs), model.score_pairs(z, pairs)
            bad += int(np.sum(got.view(np.int64) != want.view(np.int64)))
            total += len(pairs)
            worst = max(worst, max_ulps(got, want))
    return bad, total, worst


def verify(graphs: int) -> int:
    """Run every check, print one line each, and return the exit code:
    0 when all pass, 1 otherwise. The two sweeps draw ``graphs`` graphs."""
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1

    for name, err in sorted(gradient_check_all().items()):
        check(f"gradient {name}", err < 1e-4, f"rel err {err:.2e}")
    for conv in CHOICES["conv"]:
        for mode in ("learnable-orthogonal", "raw"):
            err = model_gradient_check(conv, input_mode=mode)
            check(f"gradient full model ({conv}, {mode})", err < 1e-4, f"rel err {err:.2e}")
    dev = max(decoder_block_deviation(*case) for case in DECODER_BLOCK_CASES)
    check("decoder blocks equal one block", dev <= 1e-12,
          f"max rel dev {dev:.2e} of the loss and the z and decoder gradients "
          f"(<= 1e-12), float64, dropout 0, 1/{BLOCK - 1}/{BLOCK}/{2 * BLOCK + 7} "
          "pairs, 0 and 3 layers, residual on/off")
    dev = unrolled_encoder_deviation()
    check("unrolled encoder identity", dev <= 1e-12,
          f"max |dz| {dev:.2e} against the layer-wise loop (<= 1e-12), "
          "gcn/sage, 1-4 layers, residual on/off, plain/masked")
    bad, total, ulps = restricted_scoring_mismatches(graphs)
    check("restricted scoring equals full embedding", bad == 0,
          f"{bad} of {total} logits differ in their bits ({ulps:.3g} ulps at most) "
          f"over {graphs} graphs, float64, gcn/sage/gin; needs a BLAS kernel "
          "whose GEMM rows do not depend on the row count")
    dev = cn_equivalence_sweep(num_graphs=graphs)
    check("common-neighbor equivalence", dev < 1e-9,
          f"max deviation {dev:.2e} over {graphs} graphs, k in 1..3")
    dev = heuristic_product_sweep(num_graphs=graphs)
    check("heuristics vs sparse product",
          dev["cn"] == 0.0 and dev["aa"] <= 1e-12 and dev["ra"] <= 1e-12,
          f"max deviation CN {dev['cn']:.0e} (exact), AA {dev['aa']:.2e}, "
          f"RA {dev['ra']:.2e} (<= 1e-12) over {graphs} graphs")
    rng = np.random.default_rng(0)
    m, _ = orthogonality_stats(orthogonal_rows(24, 64, rng))
    check("orthogonal init (n <= d)", m < 1e-6, f"mean |cos| {m:.2e}")
    wide = orthogonal_rows(300, 32, rng)
    m, _ = orthogonality_stats(wide)
    unit = np.allclose(np.linalg.norm(wide, axis=1), 1.0, atol=1e-6)
    check("orthogonal init (n > d)", unit and m <= 2.0 / np.sqrt(32),
          f"mean |cos| {m:.3f}, bound {2.0 / np.sqrt(32):.3f}")
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1
