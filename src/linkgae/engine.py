"""Reverse-mode automatic differentiation over dense 2-D arrays.

Just enough machinery for a fixed encoder/decoder computation graph:
every value is a 2-D Tensor, ops are recorded on a Tape, and backward
replays the recorded closures in reverse order. An Adam optimizer rounds
out the module; the finite-difference gradient checks live in ``checks``.

``Tape.dense_block`` is one MLP layer, ``dropout(relu(h @ w + b)) (+ h0)``,
as one node: it computes in place on one buffer and saves only ``h`` and
one 1-byte mask (``pre > 0`` and kept by dropout) for backward, where the
composed ops would keep five (rows x width) arrays alive.
``Tape.pair_blocks`` is a loss over the decoder's input ``z[u] * z[v]``,
computed ``BLOCK`` pairs at a time: each block runs forward and backward on
a private tape, so the node keeps only the per-pair gradient of
``z[u] * z[v]``, not every layer's (pairs x width) activations.

All ops keep a deterministic accumulation order, so two identical runs
produce bit-identical results.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


class Tensor:
    """A dense 2-D value with an optional same-shape gradient buffer."""

    __slots__ = ("value", "grad", "tracked")

    def __init__(self, value, param: bool = False):
        arr = np.asarray(value)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.value = arr
        self.grad: np.ndarray | None = None
        # Tracked tensors (parameters, and op outputs of a tracked parent)
        # participate in backward; constants do not.
        self.tracked = param

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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # The first write keeps ``g`` as the gradient buffer, and later writes add
    # into it in place. So a backward closure must pass each input an array
    # no other input receives: ``up`` itself may go to one input only.
    if t.grad is None:
        t.grad = g if g.dtype == t.value.dtype else g.astype(t.value.dtype)
    else:
        t.grad += g


class _Node:
    __slots__ = ("out", "backward")

    def __init__(self, out: Tensor, backward: Callable[[np.ndarray], None]):
        self.out = out
        self.backward = backward


LANES = 1 << 16  # dropout draws one uint16 lane per element
BLOCK = 1024  # pairs per block of Tape.pair_blocks, and per GAEModel.score_pairs decode


def dropout_threshold(p: float) -> int:
    """The lane threshold ``round(p * LANES)`` of dropout rate ``p``.

    Raises ValueError unless p is in [0, 1) and rounds below LANES, the
    threshold that would drop every element.
    """
    t = round(p * LANES) if 0.0 <= p < 1.0 else LANES
    if t == LANES:
        raise ValueError(f"dropout rate must be in [0, 1 - 2^-17), got {p}")
    return t


def _dropout_mask(shape: tuple[int, int], dtype, t: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.floating]:
    """The keep mask and scale of ``Tape.dropout`` at lane threshold ``t > 0``.

    Backward keeps only the 1-byte mask; multiplying by it before the scale
    is exact, so the order does not change a bit.
    """
    n = shape[0] * shape[1]
    lanes = rng.bit_generator.random_raw((n + 3) // 4).view(np.uint16)[:n]
    return lanes.reshape(shape) >= t, dtype.type(LANES / (LANES - t))


def _scatter_rows(idx: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, width) sum that adds g[j] into row idx[j], in increasing j,
    exactly as np.add.at would: one CSC one-hot product, column j a one at
    row idx[j]."""
    ones = np.ones(len(idx), dtype=g.dtype)
    onehot = sp.csc_matrix((ones, idx, np.arange(len(idx) + 1)), shape=(rows, len(idx)))
    return onehot @ g


def _left_grad(up: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d(a @ b)/da applied to ``up``. For a width-1 output this is an outer
    product, not a k=1 GEMM; + 0.0 turns -0.0 into the +0.0 of the GEMM's
    zero-started sum."""
    return np.add(g := up * b.T, 0.0, out=g) if up.shape[1] == 1 else up @ b.T


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
        # Popping each node drops its closure, and with it the arrays the
        # closure saved, as soon as the node has run.
        while self.nodes:
            node = self.nodes.pop()
            if node.out.grad is None:
                continue  # branch not reaching the loss
            node.backward(node.out.grad)
            node.out.grad = None  # _emit outputs are never params: free the buffer

    # -- forward ops -------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
        val = a.value @ b.value

        def bwd(up):
            if a.tracked:
                _accumulate(a, _left_grad(up, b.value))
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
            if b.tracked and row_broadcast:
                _accumulate(b, up.sum(axis=0, keepdims=True))
            elif b.tracked:
                _accumulate(b, up.copy() if a.tracked else up)

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

    def gather_rows(self, x: Tensor, idx: np.ndarray) -> Tensor:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("gather_rows expects a 1-D index array")
        if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
            raise IndexError("gather_rows index out of range")
        val = x.value[idx]

        def bwd(up):
            if x.tracked:
                _accumulate(x, _scatter_rows(idx, up, x.shape[0]))

        return self._emit(val, (x,), bwd)

    def pair_blocks(self, z: Tensor, u: np.ndarray, v: np.ndarray,
                    params: Sequence[Tensor],
                    block: Callable[[Tape, Tensor, list[Tensor], int], Tensor]) -> Tensor:
        """The 1x1 sum of ``block(tape, h, leaves, lo)`` over blocks of
        ``BLOCK`` pairs: ``h`` is ``z[u] * z[v]`` on rows ``lo:lo + len(h)``
        and ``leaves`` are new leaf tensors over the values of ``params``,
        the only other tensors ``block`` may read.

        Each block runs on a private tape; a recorded node runs its backward
        right after its forward, so no block's activations outlive it. The
        node keeps the leaves' gradients, summed in block order, and the
        (pairs x width) gradient of ``h``; backward scales them by ``up`` and
        scatters the latter into z once, with one gathered (pairs x width)
        buffer for both endpoints.
        """
        u, v = (np.asarray(i, dtype=np.int64) for i in (u, v))
        if u.ndim != 1 or v.shape != u.shape:
            raise ValueError(f"pair_blocks expects two 1-D index arrays of one "
                             f"length, got shapes {u.shape} and {v.shape}")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= z.shape[0]):
            raise IndexError("pair_blocks index out of range")
        params = list(params)
        saves = self.record and (z.tracked or any(p.tracked for p in params))
        leaves = [Tensor(p.value, param=p.tracked) for p in params]
        grad_h = np.empty((len(u), z.shape[1]), z.dtype) if saves and z.tracked else None
        val = np.zeros((1, 1), dtype=z.dtype)
        for lo in range(0, len(u), BLOCK):
            rows = slice(lo, lo + BLOCK)
            h = Tensor(z.value[u[rows]] * z.value[v[rows]], param=z.tracked)
            tape = Tape(record=saves)
            loss = block(tape, h, leaves, lo)
            val += loss.value
            if saves:
                tape.backward(loss)
                if grad_h is not None:
                    grad_h[rows] = h.grad

        def bwd(up):
            s = up[0, 0]
            for p, leaf in zip(params, leaves):
                if leaf.grad is not None:
                    _accumulate(p, leaf.grad if s == 1 else leaf.grad * s)
            if grad_h is not None:
                # gh * z[u] into the v rows, then gh * z[v] into the u rows,
                # the order of the gather/hadamard chain's backward. np.take
                # runs in "clip" mode, which the checked indices never reach,
                # because its default mode copies through a second buffer.
                gh = grad_h if s == 1 else grad_h * s
                g = z.value[u]
                g *= gh
                _accumulate(z, _scatter_rows(v, g, z.shape[0]))
                np.take(z.value, v, axis=0, out=g, mode="clip")
                g *= gh
                _accumulate(z, _scatter_rows(u, g, z.shape[0]))

        return self._emit(val, (z, *params), bwd)

    def relu(self, x: Tensor) -> Tensor:
        val = np.maximum(x.value, 0.0)

        def bwd(up):
            if x.tracked:
                _accumulate(x, up * (x.value > 0.0))

        return self._emit(val, (x,), bwd)

    def dropout(self, x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
        """Inverted dropout when given an rng (training); the identity without
        one (eval).

        Each element draws a 16-bit lane, four to one 64-bit word of the
        generator, and is kept iff its lane is at least
        ``t = dropout_threshold(p)``; kept elements are scaled by
        ``LANES/(LANES - t)``. The applied rate is ``t/LANES``, within 2^-17
        of ``p``, and E[out] = x.
        """
        t = dropout_threshold(p)
        if rng is None or t == 0:
            return x
        mask, scale = _dropout_mask(x.shape, x.dtype, t, rng)
        val = x.value * mask
        val *= scale

        def bwd(up):
            if x.tracked:
                g = up * mask
                g *= scale
                _accumulate(x, g)

        return self._emit(val, (x,), bwd)

    def dense_block(self, h: Tensor, w: Tensor, b: Tensor, h0: Tensor | None,
                    p: float, rng: np.random.Generator | None) -> Tensor:
        """One MLP layer as one node: ``dropout(relu(h @ w + b), p, rng)``,
        plus ``h0`` when given (an initial residual).

        Values and gradients equal those of the composed ``matmul``, ``add``,
        ``relu``, ``dropout`` and ``add`` to the bit: forward runs the same
        elementwise steps in place on the product's buffer, and backward the
        composed closures' steps in their order, with the 0/1 ``pre > 0`` and
        dropout masks merged, which keeps the bits unless ``up * scale``
        overflows. A recorded node saves ``h`` and that one 1-byte mask.
        """
        out_shape = (h.shape[0], w.shape[1])
        if h.shape[1] != w.shape[0]:
            raise ValueError(f"dense_block shape mismatch {h.shape} @ {w.shape}")
        if b.shape != (1, w.shape[1]):
            raise ValueError(f"dense_block bias shape {b.shape}, want (1, {w.shape[1]})")
        if h0 is not None and h0.shape != out_shape:
            raise ValueError(f"dense_block residual shape {h0.shape}, want {out_shape}")
        t = dropout_threshold(p)
        parents = (h, w, b) if h0 is None else (h, w, b, h0)
        saves = self.record and any(x.tracked for x in parents)
        val = h.value @ w.value
        val += b.value
        keep = val > 0.0 if saves else None
        np.maximum(val, 0.0, out=val)
        scale = None
        if rng is not None and t > 0:
            mask, scale = _dropout_mask(out_shape, val.dtype, t, rng)
            val *= mask
            val *= scale
            if saves:
                keep &= mask
        if h0 is not None:
            val += h0.value

        def bwd(up):
            g = up * keep
            if scale is not None:
                g *= scale
            if h0 is not None and h0.tracked:
                # up is not read again, so h0 may keep it as its buffer; when
                # h is h0 (a first layer), h0 still gets up before g @ w.T.
                _accumulate(h0, up)
            if b.tracked:
                _accumulate(b, g.sum(axis=0, keepdims=True))
            if h.tracked:
                _accumulate(h, _left_grad(g, w.value))
            if w.tracked:
                _accumulate(w, h.value.T @ g)

        return self._emit(val, parents, bwd)

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

    def sum(self, x: Tensor) -> Tensor:
        val = np.array([[x.value.sum()]], dtype=x.value.dtype)

        def bwd(up):
            if x.tracked:
                _accumulate(x, np.full_like(x.value, up[0, 0]))

        return self._emit(val, (x,), bwd)

    def l2_normalize(self, x: Tensor) -> Tensor:
        """L2-normalize each row; norms floor at 1e-12, so zero rows stay zero."""
        norms = np.sqrt(np.sum(x.value * x.value, axis=1, keepdims=True))
        norms = np.maximum(norms, 1e-12)
        val = x.value / norms

        def bwd(up):
            if x.tracked:
                g = val * np.sum(up * val, axis=1, keepdims=True)
                np.subtract(up, g, out=g)  # (up - val * proj) / norms, one temporary
                g /= norms
                _accumulate(x, g)

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

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        if all(p.grad is None for p in self.params):
            raise RuntimeError("Adam.step called with no gradients populated")
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            # In place, in the docstring formula's operation order, so the
            # result matches it to the bit; p.grad is only read.
            g, m, v = p.grad, self.m[i], self.v[i]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            tmp = g * g
            tmp *= 1.0 - self.BETA2
            v *= self.BETA2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.EPS
            step = m / c1
            step *= self.lr
            step /= tmp
            p.value -= step
            p.grad = None
