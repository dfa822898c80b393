import weakref

import numpy as np
import pytest

from linkgae import checks, engine
from linkgae.checks import finite_difference_check, gradient_check_all, _op_cases
from linkgae.config import ModelConfig
from linkgae.engine import Adam, Tape, Tensor, _accumulate


def test_tensor_rejects_non_2d():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3))


def test_bce_logit_zero_label_one_is_ln2():
    tape = Tape()
    loss = tape.bce_with_logits(Tensor([[0.0]], param=True), Tensor([[1.0]]))
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_row_dot_hand_value():
    tape = Tape()
    out = tape.row_dot(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
    assert out.value.shape == (1, 1)
    assert out.item() == 11.0


def test_bce_matches_naive_formula():
    # loss == -[y ln s(x) + (1-y) ln(1-s(x))] within 1e-10 for |x| <= 30;
    # the textbook formula is evaluated in 50-digit arithmetic since plain
    # float64 cancels catastrophically in 1-s(x) near x = 30.
    import mpmath

    mpmath.mp.dps = 50
    rng = np.random.default_rng(0)
    x = rng.uniform(-30, 30, (200, 1))
    y = rng.integers(0, 2, (200, 1)).astype(float)
    tape = Tape()
    loss = tape.bce_with_logits(Tensor(x), Tensor(y))
    total = mpmath.mpf(0)
    for xi, yi in zip(x.ravel(), y.ravel()):
        s = 1 / (1 + mpmath.exp(-mpmath.mpf(xi)))
        total += yi * mpmath.log(s) + (1 - yi) * mpmath.log(1 - s)
    naive = float(-total / len(x))
    assert abs(loss.item() - naive) < 1e-10


def test_backward_sum_gives_all_ones():
    w = Tensor(np.arange(4.0).reshape(2, 2), param=True)
    tape = Tape()
    loss = tape.sum(w)
    tape.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_backward_bce_linear_model_at_zero_weights():
    # loss = bce(w . x, 1) at w = 0 has gradient -x/2
    x = np.array([[1.5, -2.0, 0.5]])
    w = Tensor(np.zeros((1, 3)), param=True)
    tape = Tape()
    logit = tape.row_dot(w, Tensor(x))
    loss = tape.bce_with_logits(logit, Tensor([[1.0]]))
    tape.backward(loss)
    assert np.allclose(w.grad, -x / 2.0, atol=1e-12)


def test_backward_requires_scalar_and_recorded_loss():
    tape = Tape()
    w = Tensor(np.ones((2, 2)), param=True)
    out = tape.relu(w)
    with pytest.raises(ValueError):
        tape.backward(out)
    untaped = Tensor(np.ones((1, 1)), param=True)
    with pytest.raises(RuntimeError):
        Tape().backward(untaped)


def test_shape_mismatches_raise():
    tape = Tape()
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        tape.matmul(a, b)
    with pytest.raises(ValueError):
        tape.add(a, Tensor(np.ones((3, 3))))
    with pytest.raises(ValueError):
        tape.dropout(a, 1.0, np.random.default_rng(0))


def test_dropout_eval_is_identity():
    x = Tensor(np.random.default_rng(1).standard_normal((5, 4)))
    out = Tape().dropout(x, 0.5, None)
    assert out is x
    with pytest.raises(ValueError):
        Tape().dropout(x, 1.0, None)


def test_dropout_train_preserves_expectation():
    rng = np.random.default_rng(2)
    x = Tensor(np.ones((400, 250)))
    out = Tape().dropout(x, 0.3, rng)
    # inverted dropout: E[out] == x
    assert abs(out.value.mean() - 1.0) < 0.01
    kept = out.value[out.value > 0]
    assert np.allclose(kept, 1.0 / 0.7)


def test_every_registered_op_passes_finite_difference_check():
    for name, err in gradient_check_all().items():
        assert err < 1e-4, f"op {name} rel error {err:.2e}"


def test_every_public_tape_op_has_a_gradient_case():
    plumbing = {"backward"}
    ops = {name for name, attr in vars(Tape).items()
           if callable(attr) and not name.startswith("_")} - plumbing
    cases = _op_cases(np.random.default_rng(0))
    covered = {name for name in ops if any(c == name or c.startswith(name + "_") for c in cases)}
    assert ops - covered == set(), "tape ops without an _op_cases entry"
    assert {"matmul", "spmm", "relu"} <= ops  # the scan sees the op methods


def test_finite_difference_catches_a_wrong_gradient():
    # negative control: a gather_rows backward scaled by 1.05 must fail the check
    class BrokenTape(Tape):
        def gather_rows(self, x, idx):
            def bwd(up):
                g = np.zeros_like(x.value)
                np.add.at(g, idx, up * 1.05)
                _accumulate(x, g)

            return self._emit(x.value[idx], (x,), bwd)

    x = Tensor(np.random.default_rng(3).standard_normal((3, 3)), param=True)
    idx = np.array([0, 2, 2, 1])
    err = finite_difference_check([x], lambda t, a: BrokenTape.gather_rows(t, a, idx))
    assert err > 1e-2


def test_finite_difference_skips_a_coordinate_whose_step_crosses_a_relu_kink(monkeypatch):
    # x[0, 0] sits 2e-6 from the kink: its ±1e-5 step crosses it, so no
    # central difference at that step equals either one-sided slope
    x = Tensor(np.array([[0.3, 0.7, -0.4]] * 20), param=True)
    x.value[0, 0] = 2e-6
    assert finite_difference_check([x], lambda t, a: t.relu(a)) < 1e-8
    monkeypatch.setattr(checks, "KINK_TOL", np.inf)  # detection off: the kink fails
    assert finite_difference_check([x], lambda t, a: t.relu(a)) > 0.1
    monkeypatch.undo()
    # a wrong backward still fails on the coordinates that are not skipped
    class BrokenTape(Tape):
        def relu(self, a):
            val = np.maximum(a.value, 0.0)
            return self._emit(val, (a,), lambda up: _accumulate(a, up * (a.value > 0) * 1.05))

    assert finite_difference_check([x], lambda t, a: BrokenTape.relu(t, a)) > 1e-2


def test_finite_difference_fails_when_too_many_coordinates_are_skipped():
    x = Tensor(np.full((4, 3), 2e-6), param=True)  # every step crosses the kink
    assert finite_difference_check([x], lambda t, a: t.relu(a)) == float("inf")


def test_adam_first_step_matches_bias_corrected_update():
    p = Tensor(np.array([[1.0]]), param=True)
    p.grad = np.array([[1.0]])
    opt = Adam([p], lr=0.1)
    opt.step()
    delta = p.value[0, 0] - 1.0
    assert abs(delta - (-0.1 / (1.0 + 1e-8))) < 1e-12
    assert p.grad is None  # grads zeroed after the step


def test_adam_zero_gradient_means_zero_update():
    p = Tensor(np.array([[3.0]]), param=True)
    p.grad = np.array([[0.0]])
    Adam([p], lr=0.5).step()
    assert p.value[0, 0] == 3.0


def test_adam_step_without_grads_raises():
    p = Tensor(np.array([[1.0]]), param=True)
    with pytest.raises(RuntimeError):
        Adam([p], lr=0.1).step()


def test_adam_runs_are_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        w = Tensor(rng.standard_normal((4, 4)), param=True)
        opt = Adam([w], lr=0.01)
        for _ in range(10):
            tape = Tape()
            h = tape.matmul(w, Tensor(rng.standard_normal((4, 4))))
            loss = tape.bce_with_logits(tape.sum(h), Tensor([[1.0]]))
            tape.backward(loss)
            opt.step()
        return w.value

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_op_case_inputs_are_reproducible():
    a = _op_cases(np.random.default_rng(7))
    b = _op_cases(np.random.default_rng(7))
    for name in a:
        for ta, tb in zip(a[name][0], b[name][0]):
            assert np.array_equal(ta.value, tb.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_rows_backward_equals_add_at(dtype):
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((50, 7)).astype(dtype), param=True)
    idx = rng.integers(0, 40, 300)  # repeated rows, and rows 40..49 never gathered
    up = rng.standard_normal((300, 7)).astype(dtype)
    tape = Tape()
    out = tape.gather_rows(x, idx)
    tape.nodes[-1].backward(up)
    want = np.zeros_like(x.value)
    np.add.at(want, idx, up)
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, want)
    assert out.value.shape == (300, 7)


def test_dropout_mask_matches_the_16bit_lane_formula():
    # 63 * 33 elements is not a multiple of 4: the last word's spare lanes go unused.
    x = Tensor(np.ones((63, 33), dtype=np.float32))
    out = Tape().dropout(x, 0.3, np.random.default_rng(4))
    t = round(0.3 * 65536)
    words = np.random.default_rng(4).bit_generator.random_raw(-(-x.value.size // 4))
    lanes = np.array([(int(w) >> (16 * k)) & 0xFFFF for w in words for k in range(4)])
    keep = (lanes[:x.value.size] >= t).reshape(x.shape)
    want = np.where(keep, np.float32(65536 / (65536 - t)), np.float32(0.0))
    assert out.value.dtype == np.float32
    assert np.array_equal(out.value, want)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
def test_dropout_keep_rate_and_mean_on_a_million_elements(p):
    x = Tensor(np.full((1000, 1000), 2.0))
    out = Tape().dropout(x, p, np.random.default_rng(11))
    keep = 1.0 - engine.dropout_threshold(p) / engine.LANES
    sigma = np.sqrt(keep * (1.0 - keep) / x.value.size)
    assert abs(np.mean(out.value != 0.0) - keep) < 4 * sigma
    # mean(out) / x is the kept share times 1/keep
    assert abs(out.value.mean() / 2.0 - 1.0) < 4 * sigma / keep


@pytest.mark.parametrize("p", [1.0 - 2.0**-17, 1.0 - 2.0**-20, 1.0, -0.1])
def test_dropout_rate_that_rounds_to_every_lane_is_rejected(p):
    x = Tensor(np.ones((2, 3)))
    for rng in (np.random.default_rng(0), None):
        with pytest.raises(ValueError, match="dropout rate"):
            Tape().dropout(x, p, rng)
    with pytest.raises(ValueError, match="dropout rate"):
        ModelConfig(dropout=p)


def test_largest_accepted_dropout_rate_keeps_one_lane_value():
    p = np.nextafter(1.0 - 2.0**-17, 0.0)
    assert engine.dropout_threshold(p) == 65535
    ModelConfig(dropout=p)
    out = Tape().dropout(Tensor(np.ones((1000, 1000))), p, np.random.default_rng(0))
    assert set(np.unique(out.value)) <= {0.0, 65536.0}


def test_backward_frees_each_node_once_it_has_run():
    # probe is recorded before dropout, so its backward runs after dropout's;
    # by then the dropout node and the mask its closure saved must be gone.
    x = Tensor(np.ones((8, 4)), param=True)
    tape = Tape()
    mask_ref, mask_alive = [], []

    def probe_bwd(up):
        mask_alive.append(mask_ref[0]() is not None)
        _accumulate(x, up)

    h = tape._emit(x.value.copy(), (x,), probe_bwd)
    d = tape.dropout(h, 0.5, np.random.default_rng(0))
    saved = [c.cell_contents for c in tape.nodes[-1].backward.__closure__]
    mask_ref.append(weakref.ref(next(a for a in saved if isinstance(a, np.ndarray))))
    del saved
    tape.backward(tape.sum(d))
    assert mask_alive == [False]
    assert tape.nodes == []
    assert mask_ref[0]() is None
    assert np.array_equal(x.grad, d.value)  # d = x * mask with x = 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_matches_the_out_of_place_formula(dtype):
    rng = np.random.default_rng(5)
    p = Tensor(rng.standard_normal((6, 5)).astype(dtype), param=True)
    adam = Adam([p], lr=0.01)
    want = p.value.copy()
    m, v = np.zeros_like(want), np.zeros_like(want)
    for t in range(1, 4):
        g = rng.standard_normal(p.shape).astype(dtype)
        p.grad = g
        before = g.copy()
        adam.step()
        assert np.array_equal(g, before)  # the gradient is only read
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        want -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        assert p.value.dtype == dtype
        assert ([float(a).hex() for a in p.value.ravel()]
                == [float(a).hex() for a in want.ravel()])


def _hex(a: np.ndarray) -> list[str]:
    return [float(x).hex() for x in a.ravel()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_width_one_matmul_backward_matches_the_gemm(dtype):
    rng = np.random.default_rng(6)
    h = Tensor(rng.standard_normal((300, 16)).astype(dtype), param=True)
    w = Tensor(rng.standard_normal((16, 1)).astype(dtype), param=True)
    w.value[::3] *= -1.0
    up = rng.standard_normal((300, 1)).astype(dtype)
    up[::7] = 0.0  # zero times a negative weight: the GEMM gives +0.0
    up[1::7] = -0.0
    tape = Tape()
    tape.matmul(h, w)
    tape.nodes[-1].backward(up)
    assert h.grad.dtype == dtype
    assert _hex(h.grad) == _hex(up @ w.value.T)
    assert _hex(w.grad) == _hex(h.value.T @ up)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_l2_normalize_backward_matches_the_formula(dtype):
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((200, 12)).astype(dtype), param=True)
    x.value[3] = 0.0  # a zero row keeps the eps floor in play
    up = rng.standard_normal((200, 12)).astype(dtype)
    tape = Tape()
    val = tape.l2_normalize(x).value
    tape.nodes[-1].backward(up)
    norms = np.maximum(np.sqrt(np.sum(x.value * x.value, axis=1, keepdims=True)), 1e-12)
    proj = np.sum(up * val, axis=1, keepdims=True)
    assert x.grad.dtype == dtype
    assert _hex(x.grad) == _hex((up - val * proj) / norms)


def _aliasing_case(add):
    # y reaches the output through add and through y * y; add runs first in
    # backward, so y's gradient buffer starts as what add hands it and the
    # square's terms are then added into that buffer in place.
    def forward(tape, x, y):
        p = tape.hadamard(y, y)
        return tape.hadamard(add(tape, x, y), p)

    return forward


def test_add_gives_each_input_its_own_gradient_buffer():
    def sharing_add(tape, a, b):  # hands the same upstream array to both inputs
        def bwd(up):
            _accumulate(a, up)
            _accumulate(b, up)

        return tape._emit(a.value + b.value, (a, b), bwd)

    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 3)), param=True)
    y = Tensor(rng.standard_normal((4, 3)), param=True)
    assert finite_difference_check([x, y], _aliasing_case(Tape.add)) < 1e-6
    assert finite_difference_check([x, y], _aliasing_case(sharing_add)) > 1e-2


def _composed_block(tape, h, w, b, h0, p, rng):
    """dense_block as the five ops it replaces."""
    out = tape.dropout(tape.relu(tape.add(tape.matmul(h, w), b)), p, rng)
    return out if h0 is None else tape.add(out, h0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("residual", [False, True])
def test_dense_block_equals_the_composed_ops_to_the_bit(dtype, p, residual):
    # Two layers as in the decoder: with the residual, layer 0's h is h0.
    def run(block):
        rng = np.random.default_rng(21)
        x0 = Tensor(rng.standard_normal((37, 6)).astype(dtype), param=True)
        params = [x0]
        for _ in range(2):
            params.append(Tensor(rng.standard_normal((6, 6)).astype(dtype), param=True))
            params.append(Tensor(rng.standard_normal((1, 6)).astype(dtype), param=True))
        tape, drop_rng, h = Tape(), np.random.default_rng(5), x0
        for w, b in zip(params[1::2], params[2::2]):
            h = block(tape, h, w, b, x0 if residual else None, p, drop_rng)
        weights = Tensor(rng.standard_normal(h.shape).astype(dtype))
        tape.backward(tape.sum(tape.hadamard(h, weights)))
        return [h.value] + [t.grad for t in params] + [drop_rng.random()]

    want, got = run(_composed_block), run(Tape.dense_block)
    for a, b in zip(want, got, strict=True):
        assert np.array_equal(a, b)
        assert np.asarray(a).dtype == np.asarray(b).dtype


def test_dense_block_saves_only_its_masks_and_inputs():
    rng = np.random.default_rng(3)
    h = Tensor(rng.standard_normal((9, 4)), param=True)
    w = Tensor(rng.standard_normal((4, 4)), param=True)
    b = Tensor(np.zeros((1, 4)), param=True)
    tape = Tape()
    tape.dense_block(h, w, b, h, 0.5, np.random.default_rng(0))
    saved = [c.cell_contents for c in tape.nodes[-1].backward.__closure__]
    # the pre > 0 and dropout masks are saved as one
    assert sorted(a.dtype.name for a in saved if isinstance(a, np.ndarray)) == ["bool"]
    # unrecorded, as in scoring: no node, and the same value
    eval_tape = Tape(record=False)
    out = eval_tape.dense_block(h, w, b, h, 0.5, None)
    assert eval_tape.nodes == []
    assert np.array_equal(out.value, _composed_block(eval_tape, h, w, b, h, 0.5, None).value)


def test_dense_block_shape_mismatches_raise():
    h, w = Tensor(np.ones((5, 3))), Tensor(np.ones((3, 4)))
    for args in ((Tensor(np.ones((4, 4))), Tensor(np.ones((1, 4))), None),
                 (w, Tensor(np.ones((1, 3))), None),
                 (w, Tensor(np.ones((1, 4))), h)):
        with pytest.raises(ValueError, match="dense_block"):
            Tape().dense_block(h, *args, 0.0, None)
    with pytest.raises(ValueError, match="dropout rate"):
        Tape().dense_block(h, w, Tensor(np.ones((1, 4))), None, 1.0, None)


def test_pair_blocks_checks_its_indices_as_gather_rows_does():
    z, w = Tensor(np.ones((4, 3)), param=True), Tensor(np.ones((3, 1)), param=True)

    def block(tape, h, leaves, lo):
        return tape.sum(tape.matmul(h, leaves[0]))

    for u, v in (([0, -1], [1, 2]), ([0, 1], [2, 4])):
        for tape in (Tape(), Tape(record=False)):
            with pytest.raises(IndexError):
                tape.pair_blocks(z, np.array(u), np.array(v), [w], block)
    with pytest.raises(ValueError, match="1-D"):
        Tape().pair_blocks(z, np.array([[0, 1]]), np.array([[1, 2]]), [w], block)
