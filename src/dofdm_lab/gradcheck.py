"""Central finite-difference gradient checks for the autodiff ops and both models.

Everything here runs in double precision: with step 1e-5, float32 roundoff
alone would sit near 1e-2 relative error and drown the signal. A check case
is a loss builder evaluated twice per perturbed coordinate; operator checks
perturb every coordinate, model checks sample a fixed number of coordinates
per parameter tensor to stay inside the runtime budget.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .dnn_detector import DnnConfig, DnnDetector
from .transdetector import ModelConfig, TransDetector

FD_STEP = 1e-5
TOL_OP = 1e-4
TOL_MODEL = 1e-3
N_SEEDS = 10


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-coordinate |a - n| / max(|a|, |n|, 1e-6)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_case(make_loss, inputs, step: float = FD_STEP, coords=None) -> float:
    """Compare tape gradients of a scalar loss against central differences.

    make_loss(tape, tensors) must rebuild the loss from scratch each call.
    inputs is a list of float64 arrays; coords optionally maps input index ->
    flat coordinate indices to probe (default: all coordinates).
    """
    tensors = [ad.Tensor(a.copy(), requires_grad=True, dtype=np.float64) for a in inputs]
    tape = ad.Tape()
    loss = make_loss(tape, tensors)
    tape.backward(loss)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]

    def eval_loss():
        silent = ad.Tape(recording=False)
        return make_loss(silent, tensors).item()

    worst = 0.0
    for i, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        idx = range(flat.size) if coords is None else coords.get(i, range(flat.size))
        for j in idx:
            keep = flat[j]
            flat[j] = keep + step
            hi = eval_loss()
            flat[j] = keep - step
            lo = eval_loss()
            flat[j] = keep
            numeric = (hi - lo) / (2.0 * step)
            worst = max(worst, relative_error(analytic[i].reshape(-1)[j], numeric))
    return worst


def _sampled_coords(arrays, per_tensor: int, rng) -> dict:
    out = {}
    for i, a in enumerate(arrays):
        n = a.size
        if n <= per_tensor:
            out[i] = list(range(n))
        else:
            out[i] = sorted(rng.choice(n, size=per_tensor, replace=False).tolist())
    return out


# ---- operator cases ----


def _op_checks():
    def matmul_case(a_shape, b_shape):
        def build(rng):
            a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
            return lambda t, xs: ad.mean(t, ad.matmul(t, xs[0], xs[1])), [a, b]

        return build

    def c_softmax(rng):
        x = rng.standard_normal((3, 6))
        return lambda t, xs: ad.mean(t, ad.mul(t, ad.softmax_rows(t, xs[0]), xs[1])), [
            x,
            rng.standard_normal((3, 6)),
        ]

    def c_layer_norm(rng):
        x = rng.standard_normal((4, 8))
        g = rng.standard_normal(8)
        b = rng.standard_normal(8)
        w = rng.standard_normal((4, 8))
        return (
            lambda t, xs: ad.mean(t, ad.mul(t, ad.layer_norm(t, xs[0], xs[1], xs[2]), xs[3])),
            [x, g, b, w],
        )

    def conv_case(shape):
        # shape is (..., groups, channels, h, w)
        def build(rng):
            x = rng.standard_normal(shape)
            k = rng.standard_normal(shape[-4:-2] + (3, 3))
            w = rng.standard_normal(shape[:-3] + shape[-2:])
            return lambda t, xs: ad.mean(t, ad.mul(t, ad.conv2d_same(t, xs[0], xs[1]), xs[2])), [x, k, w]

        return build

    def c_mish(rng):
        x = rng.standard_normal((3, 4)) * 3.0
        return lambda t, xs: ad.mean(t, ad.mish(t, xs[0])), [x]

    def c_tanh(rng):
        x = rng.standard_normal((3, 4)) * 2.0
        return lambda t, xs: ad.mean(t, ad.tanh_op(t, xs[0])), [x]

    def c_linear(rng):
        x, w, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
        return lambda t, xs: ad.mean(t, ad.linear(t, xs[0], xs[1], xs[2])), [x, w, b]

    def c_linear_batched(rng):
        x, w, b = rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
        v = rng.standard_normal((2, 5, 4))
        return (
            lambda t, xs: ad.mean(t, ad.mul(t, ad.linear(t, xs[0], xs[1], xs[2]), xs[3])),
            [x, w, b, v],
        )

    def c_normalize(rng):
        x = rng.random((3, 5)) + 0.5
        return lambda t, xs: ad.mean(t, ad.mul(t, ad.normalize_rows(t, xs[0]), xs[1])), [
            x,
            rng.standard_normal((3, 5)),
        ]

    def c_structural(rng):
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))

        def loss(t, xs):
            cat = ad.concat_rows(t, [xs[0], xs[1]])
            sl = ad.slice_rows(t, cat, 1, 5)
            return ad.mean(t, ad.mul(t, ad.transpose(t, sl), xs[2]))

        return loss, [a, b, rng.standard_normal((3, 4))]

    def c_transpose_axes(rng):
        x, w = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2, 3))
        return lambda t, xs: ad.mean(t, ad.mul(t, ad.transpose(t, xs[0], (2, 0, 1)), xs[1])), [x, w]

    def c_stack_scale(rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))

        def loss(t, xs):
            st = ad.stack_channels(t, [xs[0], xs[1]])
            return ad.mean(t, ad.scale(t, ad.reshape(t, st, (2, 9)), 1.7))

        return loss, [a, b]

    def c_add_mul(rng):
        a = rng.standard_normal((2, 4, 3))
        b = rng.standard_normal(3)

        def loss(t, xs):
            s = ad.add(t, xs[0], xs[1])
            return ad.mean(t, ad.mul(t, s, s))

        return loss, [a, b]

    return {
        "matmul": matmul_case((4, 3), (3, 5)),
        "matmul_batched": matmul_case((2, 4, 3), (2, 3, 5)),
        "matmul_4d": matmul_case((2, 3, 4, 3), (2, 3, 3, 5)),
        "softmax_rows": c_softmax,
        "layer_norm": c_layer_norm,
        "conv2d_same": conv_case((2, 1, 3, 5, 5)),
        "conv2d_same_unbatched": conv_case((1, 3, 5, 4)),
        "conv2d_same_grouped": conv_case((2, 2, 3, 5, 4)),
        "mish": c_mish,
        "tanh": c_tanh,
        "linear": c_linear,
        "linear_batched": c_linear_batched,
        "normalize_rows": c_normalize,
        "concat_slice_transpose": c_structural,
        "transpose_axes": c_transpose_axes,
        "stack_reshape_scale": c_stack_scale,
        "add_mul": c_add_mul,
    }


def check_operator(name: str, seeds=range(N_SEEDS)) -> float:
    builder = _op_checks()[name]
    worst = 0.0
    for s in seeds:
        make_loss, inputs = builder(np.random.default_rng(1000 + s))
        worst = max(worst, check_case(make_loss, inputs))
    return worst


# ---- full-model cases ----


def _model_case(model, window, extra=None, per_tensor=20, seed=0):
    names = sorted(model.params)
    arrays = [model.params[n].data.astype(np.float64) for n in names] + [window]
    target = np.random.default_rng(seed).standard_normal((window.shape[0], 2)) * 0.5

    def make_loss(tape, tensors):
        params = {n: t for n, t in zip(names, tensors)}
        win = tensors[len(names)]
        kwargs = dict(extra or {})
        out = model.forward(tape, win, params=params, **kwargs)
        diff = ad.add(tape, out, ad.scale(tape, ad.Tensor(target, dtype=np.float64), -1.0))
        return ad.mean(tape, ad.mul(tape, diff, diff))

    coords = _sampled_coords(arrays, per_tensor, np.random.default_rng(77 + seed))
    return check_case(make_loss, arrays, coords=coords)


def check_transdetector(seeds=range(N_SEEDS), per_tensor=16) -> float:
    cfg = ModelConfig(
        d_model=16,
        window_len=8,
        n_heads=2,
        n_layers=2,
        d_ff=32,
        fusion_groups=((1, 2),),
        dns_noise_dim=6,
    )
    worst = 0.0
    for s in seeds:
        rng = np.random.default_rng(2000 + s)
        model = TransDetector.init(cfg, seed=900 + s, dtype=np.float64)
        window = rng.standard_normal((2, cfg.window_len, 2))
        noise = rng.normal(0.0, 1.0, size=(2, cfg.dns_noise_dim))
        worst = max(
            worst, _model_case(model, window, extra={"noise": noise}, per_tensor=per_tensor, seed=s)
        )
    return worst


def check_dnn(seeds=range(N_SEEDS), per_tensor=12) -> float:
    cfg = DnnConfig(window_len=8)
    worst = 0.0
    for s in seeds:
        rng = np.random.default_rng(3000 + s)
        model = DnnDetector.init(cfg, seed=700 + s, dtype=np.float64)
        window = rng.standard_normal((2, cfg.window_len, 2))
        worst = max(worst, _model_case(model, window, per_tensor=per_tensor, seed=s))
    return worst


def run_suite(extra_checks=None):
    """Run every gradient check; returns [(name, max_rel_err, tol, passed)]."""
    results = []
    for name in _op_checks():
        err = check_operator(name)
        results.append((name, err, TOL_OP, err < TOL_OP))
    model_checks = {
        "transdetector_forward": check_transdetector,
        "dnn_forward": check_dnn,
    }
    if extra_checks:
        model_checks.update(extra_checks)
    for name, fn in model_checks.items():
        err = fn()
        results.append((name, err, TOL_MODEL, err < TOL_MODEL))
    return results
