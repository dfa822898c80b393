"""Reverse-mode automatic differentiation over dense 2-D arrays.

Just enough machinery for a fixed encoder/decoder computation graph:
every value is a 2-D Tensor, ops are recorded on a Tape, and backward
replays the recorded closures in reverse order. An Adam optimizer and
a finite-difference gradient checker round out the module.

All ops keep a deterministic accumulation order, so two identical runs
produce bit-identical results.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

# Flipped on by debug paths/tests: every op output is checked for NaN/Inf.
CHECK_FINITE = False


class Tensor:
    """A dense 2-D value with an optional same-shape gradient buffer."""

    __slots__ = ("value", "grad", "param", "tracked", "name")

    def __init__(self, value, param: bool = False, name: str | None = None, dtype=None):
        arr = np.asarray(value, dtype=dtype)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.value = arr
        self.grad: np.ndarray | None = None
        self.param = param
        # Tracked tensors participate in backward; constants do not.
        self.tracked = param
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def item(self) -> float:
        if self.value.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        tag = self.name or ("param" if self.param else "tensor")
        return f"Tensor({tag}, shape={self.shape}, dtype={self.dtype})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.astype(t.value.dtype, copy=True)
    else:
        t.grad += g


class _Node:
    __slots__ = ("out", "backward")

    def __init__(self, out: Tensor, backward: Callable[[np.ndarray], None]):
        self.out = out
        self.backward = backward


class Tape:
    """Ordered record of forward ops; recording order is topological order.

    Ops are methods so a forward pass reads as ``tape.matmul(x, w)``.
    With ``record=False`` the same ops run value-only (used for eval).
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[_Node] = []

    # -- plumbing ----------------------------------------------------------

    def _emit(self, value: np.ndarray, parents: Sequence[Tensor],
              backward: Callable[[np.ndarray], None]) -> Tensor:
        if CHECK_FINITE and not np.all(np.isfinite(value)):
            raise FloatingPointError("non-finite value produced by a tape op")
        out = Tensor(value)
        out.tracked = any(p.tracked for p in parents)
        if self.record and out.tracked:
            self.nodes.append(_Node(out, backward))
        return out

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into every tracked parent's .grad."""
        if loss.value.shape != (1, 1):
            raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
        if not loss.tracked or not self.nodes or self.nodes[-1].out is not loss:
            raise RuntimeError("loss was not recorded on this tape")
        loss.grad = np.ones((1, 1), dtype=loss.value.dtype)
        for node in reversed(self.nodes):
            if node.out.grad is None:
                continue  # branch not reaching the loss
            node.backward(node.out.grad)
            if not node.out.param:
                node.out.grad = None  # free intermediate buffers
        self.nodes.clear()

    # -- forward ops -------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
        val = a.value @ b.value

        def bwd(up):
            if a.tracked:
                _accumulate(a, up @ b.value.T)
            if b.tracked:
                _accumulate(b, a.value.T @ up)

        return self._emit(val, (a, b), bwd)

    def spmm(self, adj, x: Tensor) -> Tensor:
        """Sparse @ dense product against a fixed sparse operator."""
        if adj.shape[1] != x.shape[0]:
            raise ValueError(f"spmm shape mismatch {adj.shape} @ {x.shape}")
        val = adj.matvec(x.value)

        def bwd(up):
            if x.tracked:
                # rmatvec reuses the forward kernel when adj is symmetric
                _accumulate(x, adj.rmatvec(up))

        return self._emit(val, (x,), bwd)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise add; b may be a single row broadcast over a's rows."""
        row_broadcast = b.shape == (1, a.shape[1]) and a.shape[0] != 1
        if not row_broadcast and a.shape != b.shape:
            raise ValueError(f"add shape mismatch {a.shape} + {b.shape}")
        val = a.value + b.value

        def bwd(up):
            if a.tracked:
                _accumulate(a, up)
            if b.tracked:
                _accumulate(b, up.sum(axis=0, keepdims=True) if row_broadcast else up)

        return self._emit(val, (a, b), bwd)

    def hadamard(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ValueError(f"hadamard shape mismatch {a.shape} * {b.shape}")
        val = a.value * b.value

        def bwd(up):
            if a.tracked:
                _accumulate(a, up * b.value)
            if b.tracked:
                _accumulate(b, up * a.value)

        return self._emit(val, (a, b), bwd)

    def scalar_mul(self, x: Tensor, s: Tensor) -> Tensor:
        """Multiply x by a 1x1 tensor (learnable scalar)."""
        if s.shape != (1, 1):
            raise ValueError(f"scalar_mul needs a 1x1 scalar, got {s.shape}")
        val = x.value * s.value[0, 0]

        def bwd(up):
            if x.tracked:
                _accumulate(x, up * s.value[0, 0])
            if s.tracked:
                _accumulate(s, np.array([[np.sum(up * x.value)]], dtype=s.value.dtype))

        return self._emit(val, (x, s), bwd)

    def row_dot(self, a: Tensor, b: Tensor) -> Tensor:
        """Per-row dot product: (m,d),(m,d) -> (m,1)."""
        if a.shape != b.shape:
            raise ValueError(f"row_dot shape mismatch {a.shape} . {b.shape}")
        val = np.sum(a.value * b.value, axis=1, keepdims=True)

        def bwd(up):
            if a.tracked:
                _accumulate(a, up * b.value)
            if b.tracked:
                _accumulate(b, up * a.value)

        return self._emit(val, (a, b), bwd)

    def gather_rows(self, x: Tensor, idx: np.ndarray) -> Tensor:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("gather_rows expects a 1-D index array")
        if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
            raise IndexError("gather_rows index out of range")
        val = x.value[idx]

        def bwd(up):
            if x.tracked:
                g = np.zeros_like(x.value)
                np.add.at(g, idx, up)
                _accumulate(x, g)

        return self._emit(val, (x,), bwd)

    def sigmoid(self, x: Tensor) -> Tensor:
        val = expit(x.value)

        def bwd(up):
            if x.tracked:
                _accumulate(x, up * val * (1.0 - val))

        return self._emit(val, (x,), bwd)

    def relu(self, x: Tensor) -> Tensor:
        val = np.maximum(x.value, 0.0)

        def bwd(up):
            if x.tracked:
                _accumulate(x, up * (x.value > 0.0))

        return self._emit(val, (x,), bwd)

    def dropout(self, x: Tensor, p: float, rng: np.random.Generator,
                train: bool) -> Tensor:
        """Inverted dropout: scales by 1/(1-p) at train time, identity in eval."""
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        if not train or p == 0.0:
            return x
        mask = (rng.random(x.shape) >= p) / (1.0 - p)
        mask = mask.astype(x.value.dtype)
        val = x.value * mask

        def bwd(up):
            if x.tracked:
                _accumulate(x, up * mask)

        return self._emit(val, (x,), bwd)

    def concat_rows(self, a: Tensor, b: Tensor) -> Tensor:
        """Stack b's rows below a's: (m,d),(k,d) -> (m+k,d)."""
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"concat_rows width mismatch {a.shape} / {b.shape}")
        val = np.concatenate([a.value, b.value], axis=0)
        m = a.shape[0]

        def bwd(up):
            if a.tracked:
                _accumulate(a, up[:m])
            if b.tracked:
                _accumulate(b, up[m:])

        return self._emit(val, (a, b), bwd)

    def concat_cols(self, a: Tensor, b: Tensor) -> Tensor:
        """Concatenate per-row features: (n,da),(n,db) -> (n,da+db)."""
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"concat_cols height mismatch {a.shape} / {b.shape}")
        val = np.concatenate([a.value, b.value], axis=1)
        da = a.shape[1]

        def bwd(up):
            if a.tracked:
                _accumulate(a, up[:, :da])
            if b.tracked:
                _accumulate(b, up[:, da:])

        return self._emit(val, (a, b), bwd)

    def sum(self, x: Tensor) -> Tensor:
        val = np.array([[x.value.sum()]], dtype=x.value.dtype)

        def bwd(up):
            if x.tracked:
                _accumulate(x, np.full_like(x.value, up[0, 0]))

        return self._emit(val, (x,), bwd)

    def l2_normalize(self, x: Tensor, eps: float = 1e-12) -> Tensor:
        """L2-normalize each row. Zero rows stay (numerically) zero."""
        norms = np.sqrt(np.sum(x.value * x.value, axis=1, keepdims=True))
        norms = np.maximum(norms, eps)
        val = x.value / norms

        def bwd(up):
            if x.tracked:
                proj = np.sum(up * val, axis=1, keepdims=True)
                _accumulate(x, (up - val * proj) / norms)

        return self._emit(val, (x,), bwd)

    def bce_with_logits(self, logits: Tensor, targets: Tensor) -> Tensor:
        """Mean binary cross-entropy in the stable log-sum-exp form.

        loss = mean( max(x,0) - x*y + log(1 + exp(-|x|)) )
        """
        if logits.shape != targets.shape:
            raise ValueError(f"bce shape mismatch {logits.shape} vs {targets.shape}")
        x, y = logits.value, targets.value
        n = x.size
        if n == 0:
            raise ValueError("bce_with_logits needs at least one element")
        terms = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
        val = np.array([[terms.sum() / n]], dtype=x.dtype)

        def bwd(up):
            if logits.tracked:
                _accumulate(logits, up[0, 0] * (expit(x) - y) / n)
            if targets.tracked:
                raise RuntimeError("bce targets must be constants")

        return self._emit(val, (logits, targets), bwd)


class Adam:
    """Bias-corrected Adam.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)

    Grads are cleared after each step.
    """

    def __init__(self, params: Sequence[Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        if all(p.grad is None for p in self.params):
            raise RuntimeError("Adam.step called with no gradients populated")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def _p(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64), param=True)


def _op_cases(rng: np.random.Generator) -> dict[str, tuple[list[Tensor], Callable]]:
    """One representative call per registered op, inputs kept away from kinks."""
    from .graph import Graph, mean_adjacency, normalize  # engine stays base layer

    a = _p(rng.standard_normal((4, 3)))
    b = _p(rng.standard_normal((3, 5)))
    c = _p(rng.standard_normal((4, 3)))
    row = _p(rng.standard_normal((1, 3)))
    scalar = _p(rng.standard_normal((1, 1)))
    wide = _p(rng.standard_normal((4, 2)))
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

    def dropout_case(tape, x):
        return tape.dropout(x, 0.4, np.random.default_rng(123), train=True)

    return {
        "matmul": ([a, b], lambda t, x, y: t.matmul(x, y)),
        "spmm": ([spmm_in], lambda t, x: t.spmm(adj, x)),
        "spmm_asymmetric": ([spmm_in2], lambda t, x: t.spmm(mean_adj, x)),
        "add": ([a, c], lambda t, x, y: t.add(x, y)),
        "add_row_broadcast": ([a, row], lambda t, x, y: t.add(x, y)),
        "hadamard": ([a, c], lambda t, x, y: t.hadamard(x, y)),
        "scalar_mul": ([a, scalar], lambda t, x, s: t.scalar_mul(x, s)),
        "row_dot": ([a, c], lambda t, x, y: t.row_dot(x, y)),
        "gather_rows": ([a], lambda t, x: t.gather_rows(x, idx)),
        "sigmoid": ([a], lambda t, x: t.sigmoid(x)),
        "relu": ([relu_in], lambda t, x: t.relu(x)),
        "dropout": ([a], dropout_case),
        "concat_rows": ([a, c], lambda t, x, y: t.concat_rows(x, y)),
        "concat_cols": ([a, wide], lambda t, x, y: t.concat_cols(x, y)),
        "sum": ([a], lambda t, x: t.sum(x)),
        "l2_normalize": ([norm_in], lambda t, x: t.l2_normalize(x)),
        "bce_with_logits": ([logits], lambda t, x: t.bce_with_logits(x, labels)),
    }


def registered_ops() -> list[str]:
    return sorted(_op_cases(np.random.default_rng(0)).keys())


def finite_difference_check(inputs: Sequence[Tensor],
                            forward: Callable[..., Tensor],
                            h: float = 1e-5) -> float:
    """Max relative error of analytic grads vs central differences.

    ``forward(tape, *inputs)`` may return any shape; it is reduced with a
    weighted sum so every output entry influences the scalar.
    """
    rng = np.random.default_rng(99)

    def scalar_out(tape: Tape) -> tuple[Tensor, np.ndarray]:
        out = forward(tape, *inputs)
        w = rng.standard_normal(out.shape)
        return out, w

    tape = Tape()
    out, w = scalar_out(tape)
    weights = Tensor(w)
    loss = tape.sum(tape.hadamard(out, weights))
    for t in inputs:
        t.grad = None
    tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.value)
                for t in inputs]

    def f() -> float:
        t = Tape(record=False)
        out2 = forward(t, *inputs)
        return float(np.sum(out2.value * w))

    worst = 0.0
    for t, an in zip(inputs, analytic):
        flat = t.value.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            fd[i] = (fp - fm) / (2.0 * h)
        fd = fd.reshape(t.value.shape)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-4)
        worst = max(worst, float(np.max(np.abs(an - fd) / denom)))
    return worst


def gradient_check_all(h: float = 1e-5) -> dict[str, float]:
    """Run the finite-difference oracle over every registered op."""
    rng = np.random.default_rng(7)
    report = {}
    for name, (inputs, fwd) in _op_cases(rng).items():
        report[name] = finite_difference_check(inputs, fwd, h=h)
    return report
