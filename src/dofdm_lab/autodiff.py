"""Tape-based reverse-mode autodiff over dense real numpy tensors.

Every operation computes its result eagerly and, when a recording tape is
passed, pushes a backward closure onto that tape. ``Tape.backward`` walks the
closures in reverse execution order and accumulates gradients into ``.grad``.
The op set is exactly what the detector networks need; there is no general
broadcasting, no complex dtype, no higher-order gradients.

Training runs in single precision; the gradient-check suite runs the same
code paths in double precision. A tape is single-threaded; independent tapes
share no mutable state.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes violate an operation's contract."""


def _as_array(data, dtype):
    if dtype is None and not (isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)):
        dtype = np.float32
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """Dense real array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_on_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._on_tape = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() needs a scalar tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of backward closures for one forward pass."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        self._nodes = []
        self._consumed = False

    def __len__(self):
        return len(self._nodes)

    def _wants(self, *tensors) -> bool:
        return self.recording and any(
            t.requires_grad or t._on_tape for t in tensors if isinstance(t, Tensor)
        )

    def _record(self, out: Tensor, fn) -> None:
        out._on_tape = True
        self._nodes.append(fn)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and accumulate grads along the tape, in reverse."""
        if self._consumed:
            raise RuntimeError("backward() already ran on this tape; build a new tape")
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise DimensionError("backward() expects a scalar loss tensor")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self._nodes):
            fn()


def _accum(t: Tensor, g) -> None:
    """Add g into t.grad, adopting g itself as the first contribution.

    An adopted array may be shared: by both operands of an add, or as a view
    of the upstream gradient. Later contributions therefore add out of place;
    nothing writes into a .grad in place.
    """
    if not (t.requires_grad or t._on_tape):
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _check_dtypes(*tensors):
    dts = {t.dtype for t in tensors}
    if len(dts) > 1:
        raise DimensionError(f"mixed dtypes on one op: {sorted(str(d) for d in dts)}")


# ---- structural ops ----


def matmul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes: equal leading batch axes, or a
    2-D b applied to every matrix of a."""
    _check_dtypes(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs operands of at least 2 axes, got {a.shape} @ {b.shape}")
    if a.ndim == 2 and b.ndim > 2:
        raise DimensionError("matmul does not broadcast an unbatched left operand over a batched right one")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul batch dims differ: {a.shape} @ {b.shape}")
    flat = a.ndim > 2 and b.ndim == 2
    if flat:
        # one (batch*rows, d) GEMM instead of a batched product
        a2 = a.data.reshape(-1, a.shape[-1])
        out = Tensor((a2 @ b.data).reshape(a.shape[:-1] + b.shape[-1:]))
    else:
        out = Tensor(a.data @ b.data)
    if tape._wants(a, b):

        def fn():
            g = out.grad
            if g is None:
                return
            if flat:
                g2 = g.reshape(-1, g.shape[-1])
                _accum(a, (g2 @ b.data.T).reshape(a.shape))
                _accum(b, a2.T @ g2)
                return
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

        tape._record(out, fn)
    return out


def transpose(tape: Tape, x: Tensor, axes=None) -> Tensor:
    """Permute the axes (default: swap the last two); the result is a view of x's data."""
    if axes is None:
        if x.ndim < 2:
            raise DimensionError("transpose needs at least 2 axes")
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose axes {axes} are not a permutation of {x.ndim} axes")
    back = tuple(np.argsort(axes))
    out = Tensor(np.transpose(x.data, axes))
    if tape._wants(x):

        def fn():
            if out.grad is not None:
                _accum(x, np.transpose(out.grad, back))

        tape._record(out, fn)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may match a trailing suffix of a's shape (bias add)."""
    _check_dtypes(a, b)
    if a.shape != b.shape:
        if b.ndim > a.ndim or a.shape[a.ndim - b.ndim :] != b.shape:
            raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}")
    lead = a.ndim - b.ndim
    out = Tensor(a.data + b.data)
    if tape._wants(a, b):

        def fn():
            g = out.grad
            if g is None:
                return
            _accum(a, g)
            _accum(b, g.sum(axis=tuple(range(lead))) if lead else g)

        tape._record(out, fn)
    return out


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)
    if tape._wants(a, b):

        def fn():
            g = out.grad
            if g is None:
                return
            _accum(a, g * b.data)
            _accum(b, g * a.data)

        tape._record(out, fn)
    return out


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    out = Tensor(x.data * c)
    if tape._wants(x):

        def fn():
            if out.grad is not None:
                _accum(x, out.grad * c)

        tape._record(out, fn)
    return out


def concat_rows(tape: Tape, parts) -> Tensor:
    """Concatenate along the row (second-to-last) axis."""
    parts = list(parts)
    _check_dtypes(*parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=-2))
    sizes = [p.shape[-2] for p in parts]
    if tape._wants(*parts):

        def fn():
            g = out.grad
            if g is None:
                return
            ofs = 0
            for p, n in zip(parts, sizes):
                _accum(p, g[..., ofs : ofs + n, :])
                ofs += n

        tape._record(out, fn)
    return out


def concat_cols(tape: Tape, parts) -> Tensor:
    """Concatenate along the last axis (head merge)."""
    parts = list(parts)
    _check_dtypes(*parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    sizes = [p.shape[-1] for p in parts]
    if tape._wants(*parts):

        def fn():
            g = out.grad
            if g is None:
                return
            ofs = 0
            for p, n in zip(parts, sizes):
                _accum(p, g[..., ofs : ofs + n])
                ofs += n

        tape._record(out, fn)
    return out


def stack_channels(tape: Tape, parts) -> Tensor:
    """Stack same-shape matrices along a new channel axis before the last two."""
    parts = list(parts)
    _check_dtypes(*parts)
    shapes = {p.shape for p in parts}
    if len(shapes) > 1:
        raise DimensionError(f"stack_channels needs same-shape parts, got {sorted(shapes)}")
    out = Tensor(np.stack([p.data for p in parts], axis=-3))
    if tape._wants(*parts):

        def fn():
            g = out.grad
            if g is None:
                return
            for i, p in enumerate(parts):
                _accum(p, g[..., i, :, :])

        tape._record(out, fn)
    return out


def slice_rows(tape: Tape, x: Tensor, start: int, stop: int) -> Tensor:
    """Take rows [start, stop) along the second-to-last axis, as a view."""
    n = x.shape[-2]
    if not (0 <= start < stop <= n):
        raise DimensionError(f"row slice [{start}:{stop}) out of range for {x.shape}")
    out = Tensor(x.data[..., start:stop, :])
    if tape._wants(x):

        def fn():
            g = out.grad
            if g is None:
                return
            full = np.zeros_like(x.data)
            full[..., start:stop, :] = g
            _accum(x, full)

        tape._record(out, fn)
    return out


def slice_cols(tape: Tape, x: Tensor, start: int, stop: int) -> Tensor:
    """Take columns [start, stop) along the last axis, as a view."""
    n = x.shape[-1]
    if not (0 <= start < stop <= n):
        raise DimensionError(f"column slice [{start}:{stop}) out of range for {x.shape}")
    out = Tensor(x.data[..., start:stop])
    if tape._wants(x):

        def fn():
            g = out.grad
            if g is None:
                return
            full = np.zeros_like(x.data)
            full[..., start:stop] = g
            _accum(x, full)

        tape._record(out, fn)
    return out


def reshape(tape: Tape, x: Tensor, shape) -> Tensor:
    """New shape over the same data; a view unless x's data is non-contiguous."""
    shape = tuple(int(s) for s in shape)
    out = Tensor(x.data.reshape(shape))
    if tape._wants(x):

        def fn():
            if out.grad is not None:
                _accum(x, out.grad.reshape(x.shape))

        tape._record(out, fn)
    return out


# ---- reductions ----


def mean(tape: Tape, x: Tensor) -> Tensor:
    if x.size == 0:
        raise DimensionError("mean of an empty tensor")
    out = Tensor(np.asarray(x.data.mean(), dtype=x.dtype))
    inv = 1.0 / x.size
    if tape._wants(x):

        def fn():
            if out.grad is not None:
                _accum(x, np.full_like(x.data, out.grad.reshape(()) * inv))

        tape._record(out, fn)
    return out


# ---- elementwise nonlinearities ----


def tanh_op(tape: Tape, x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    if tape._wants(x):

        def fn():
            if out.grad is not None:
                _accum(x, out.grad * (1.0 - y * y))

        tape._record(out, fn)
    return out


def mish(tape: Tape, x: Tensor) -> Tensor:
    """x * tanh(softplus(x)), with softplus(x) = max(x, 0) + log1p(exp(-|x|)).

    exp(-|x|) never overflows and is kept for the backward sigmoid. The
    forward writes in place: it needs three full-size buffers when recording
    and two otherwise, where the result reuses the buffer of exp(-|x|).
    """
    wants = tape._wants(x)
    xd = x.data
    e = np.abs(xd)
    np.negative(e, out=e)
    np.exp(e, out=e)
    t = np.maximum(xd, 0)
    y = np.log1p(e, out=None if wants else e)
    t += y
    np.tanh(t, out=t)
    np.multiply(xd, t, out=y)
    out = Tensor(y)
    if wants:

        def fn():
            g = out.grad
            if g is None:
                return
            # sigmoid(x) from e = exp(-|x|): 1/(1+e) for x >= 0, e/(1+e) below;
            # e <= 1 everywhere, so max(e, x >= 0) picks 1 or e
            sig = np.maximum(e, xd >= 0)
            sig /= 1 + e
            d = t * t
            np.subtract(1, d, out=d)
            d *= xd
            d *= sig
            d += t
            d *= g
            _accum(x, d)

        tape._record(out, fn)
    return out


# ---- row-structured ops ----


def softmax_rows(tape: Tape, x: Tensor) -> Tensor:
    """Row-stabilized softmax along the last axis."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    if tape._wants(x):

        def fn():
            g = out.grad
            if g is None:
                return
            dot = (g * y).sum(axis=-1, keepdims=True)
            _accum(x, y * (g - dot))

        tape._record(out, fn)
    return out


def normalize_rows(tape: Tape, x: Tensor, smoothing: float = 1e-12) -> Tensor:
    """Rescale nonnegative rows to sum to one along the last axis.

    Laplace-smoothed: y = (x + smoothing) / (sum + n*smoothing), so a row that
    lost all of its mass (attention saturated on a since-cropped column)
    degrades to the uniform distribution instead of dividing by zero.
    """
    n = x.shape[-1]
    e = x.data + smoothing
    s = x.data.sum(axis=-1, keepdims=True) + n * smoothing
    y = e / s
    out = Tensor(y)
    if tape._wants(x):

        def fn():
            g = out.grad
            if g is None:
                return
            dot = (g * y).sum(axis=-1, keepdims=True)
            _accum(x, (g - dot) / s)

        tape._record(out, fn)
    return out


def layer_norm(tape: Tape, x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    _check_dtypes(x, gain, bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layer_norm affine params must be ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    if tape._wants(x, gain, bias):

        def fn():
            g = out.grad
            if g is None:
                return
            red = tuple(range(g.ndim - 1))
            _accum(gain, (g * xhat).sum(axis=red))
            _accum(bias, g.sum(axis=red))
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            _accum(x, (gy - m1 - xhat * m2) * inv)

        tape._record(out, fn)
    return out


def _windows3x3(a: np.ndarray) -> np.ndarray:
    """Zero-pad the last two axes by one and view every 3x3 neighbourhood."""
    ap = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)])
    return np.lib.stride_tricks.sliding_window_view(ap, (3, 3), axis=(-2, -1))


def conv2d_same(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """Grouped 3x3 same-padding convolution, no bias: each group collapses c channels to 1.

    x: (..., g, c, h, w); kernel: (g, c, 3, 3); output: (..., g, h, w).
    """
    _check_dtypes(x, kernel)
    if x.ndim < 4:
        raise DimensionError(f"conv2d_same input must be (..., g, c, h, w), got {x.shape}")
    if kernel.shape != x.shape[-4:-2] + (3, 3):
        raise DimensionError(f"conv kernel must be {x.shape[-4:-2] + (3, 3)}, got {kernel.shape}")
    groups = x.shape[-4]
    lead = x.ndim - 4
    batch = list(range(lead))

    def windows(j):
        # (..., c, h, w, 3, 3): the 3x3 neighbourhood of every output pixel of
        # group j. Each tensordot below gathers the window axes ahead of (h, w),
        # so the copy it makes runs along contiguous rows.
        return _windows3x3(x.data[..., j, :, :, :])

    # one group at a time, so the padded copy and the gather stay one group in size
    y = np.empty(x.shape[:-3] + x.shape[-2:], dtype=x.dtype)
    for j in range(groups):
        y[..., j, :, :] = np.tensordot(kernel.data[j], windows(j), axes=([0, 1, 2], [lead, -2, -1]))
    out = Tensor(y)
    if tape._wants(x, kernel):

        def fn():
            g = out.grad
            if g is None:
                return
            gx = np.empty_like(x.data)
            gk = np.empty_like(kernel.data)
            for j in range(groups):
                gj = g[..., j, :, :]
                gk[j] = np.tensordot(windows(j), gj, axes=(batch + [lead + 1, lead + 2], batch + [lead, lead + 1]))
                # input gradient: correlate the padded output gradient with the flipped kernel
                gxj = np.tensordot(kernel.data[j, :, ::-1, ::-1], _windows3x3(gj), axes=([1, 2], [-2, -1]))
                gx[..., j, :, :, :] = np.moveaxis(gxj, 0, -3)
            _accum(x, gx)
            _accum(kernel, gk)

        tape._record(out, fn)
    return out


def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map along the last axis: x @ w (+ b)."""
    if x.ndim not in (2, 3) or w.ndim != 2:
        raise DimensionError(f"linear expects 2-D/3-D x with 2-D w, got {x.shape} @ {w.shape}")
    out = matmul(tape, x, w)
    if b is not None:
        out = add(tape, out, b)
    return out
