import numpy as np
import numpy.testing as npt
import pytest

from dofdm_lab import autodiff as ad
from dofdm_lab import gradcheck as gc
from dofdm_lab.params import zero_all_grads


def _tensor(data, grad=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def test_tensor_shape_and_item():
    t = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2) and t.size == 4 and t.dtype == np.float32
    assert ad.Tensor([3.0]).item() == 3.0
    with pytest.raises(ad.DimensionError):
        t.item()


def test_default_dtype_is_single():
    assert ad.Tensor([1, 2, 3]).dtype == np.float32
    assert ad.Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64


def test_mean_backward_is_uniform():
    tape = ad.Tape()
    x = _tensor([1.0, -2.0, 5.0, 0.0])
    tape.backward(ad.mean(tape, x))
    npt.assert_array_equal(x.grad, np.full(4, 0.25))


def test_mean_backward_fanout_accumulates():
    # x feeds two consumers; grads must add
    tape = ad.Tape()
    x = _tensor([1.0, 2.0])
    y = ad.add(tape, x, x)
    tape.backward(ad.mean(tape, y))
    npt.assert_array_equal(x.grad, [1.0, 1.0])


def test_backward_needs_scalar():
    tape = ad.Tape()
    x = _tensor([[1.0, 2.0]])
    y = ad.scale(tape, x, 2.0)
    with pytest.raises(ad.DimensionError):
        tape.backward(y)


def test_backward_twice_is_an_error():
    tape = ad.Tape()
    x = _tensor([1.0])
    loss = ad.mean(tape, x)
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="new tape"):
        tape.backward(loss)


def test_matmul_shape_errors():
    tape = ad.Tape()
    with pytest.raises(ad.DimensionError):
        ad.matmul(tape, _tensor(np.zeros((2, 3))), _tensor(np.zeros((4, 2))))
    with pytest.raises(ad.DimensionError):
        ad.matmul(tape, _tensor(np.zeros((2, 3))), _tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ad.DimensionError):
        ad.matmul(tape, _tensor(np.zeros((2, 2, 3))), _tensor(np.zeros((3, 3, 4))))
    with pytest.raises(ad.DimensionError, match="batch"):
        ad.matmul(tape, _tensor(np.zeros((2, 3, 2, 3))), _tensor(np.zeros((2, 4, 3, 4))))
    with pytest.raises(ad.DimensionError, match="batch"):
        ad.matmul(tape, _tensor(np.zeros((2, 3, 2, 3))), _tensor(np.zeros((3, 3, 4))))


def test_mixed_dtypes_rejected():
    tape = ad.Tape()
    a = ad.Tensor(np.zeros((2, 2), dtype=np.float32))
    b = ad.Tensor(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ad.DimensionError, match="dtype"):
        ad.add(tape, a, b)


def test_add_trailing_broadcast_grad():
    tape = ad.Tape()
    x = _tensor(np.ones((2, 3, 4)))
    b = _tensor(np.zeros(4))
    tape.backward(ad.mean(tape, ad.add(tape, x, b)))
    npt.assert_allclose(b.grad, np.full(4, 6 / 24), rtol=1e-15)
    with pytest.raises(ad.DimensionError):
        ad.add(tape, _tensor(np.zeros((2, 3))), _tensor(np.zeros((3, 1))))


def test_softmax_rows_stochastic_and_stable():
    tape = ad.Tape(recording=False)
    x = ad.Tensor(np.array([[1e4, 1e4 + 1.0], [-1e4, 1e4]]), dtype=np.float64)
    y = ad.softmax_rows(tape, x).data
    npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(y))


def test_layer_norm_unit_pair():
    # [-1, 1] already has zero mean, unit variance: comes back unchanged
    tape = ad.Tape(recording=False)
    x = ad.Tensor(np.array([[-1.0, 1.0]]), dtype=np.float64)
    g = ad.Tensor(np.ones(2), dtype=np.float64)
    b = ad.Tensor(np.zeros(2), dtype=np.float64)
    y = ad.layer_norm(tape, x, g, b, eps=1e-12)
    npt.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-6)


def test_mish_large_input_is_identity():
    tape = ad.Tape(recording=False)
    y = ad.mish(tape, ad.Tensor(np.array([20.0]), dtype=np.float64))
    assert abs(y.data[0] - 20.0) < 1e-6


def test_mish_known_value():
    # mish(1) = 1 * tanh(ln(1+e)) computed independently
    expected = np.tanh(np.log1p(np.e))
    tape = ad.Tape(recording=False)
    y = ad.mish(tape, ad.Tensor(np.array([1.0]), dtype=np.float64))
    npt.assert_allclose(y.data[0], expected, rtol=1e-12)


def test_conv2d_same_matches_bruteforce():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 4, 5))
    k = rng.standard_normal((1, 2, 3, 3))
    tape = ad.Tape(recording=False)
    got = ad.conv2d_same(tape, ad.Tensor(x, dtype=np.float64), ad.Tensor(k, dtype=np.float64)).data

    ref = np.zeros((1, 4, 5))
    xp = np.pad(x[0], [(0, 0), (1, 1), (1, 1)])
    for r in range(4):
        for c in range(5):
            acc = 0.0
            for ch in range(2):
                for di in range(3):
                    for dj in range(3):
                        acc += k[0, ch, di, dj] * xp[ch, r + di, c + dj]
            ref[0, r, c] = acc
    npt.assert_allclose(got, ref, rtol=1e-12)


def _conv_9tap(x, k, g):
    """Reference grouped 3x3 same conv as nine shifted taps: (out, d out/dx . g, d out/dk . g)."""
    h, w = x.shape[-2:]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)])
    out = np.zeros(x.shape[:-3] + (h, w))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    red = tuple(range(x.ndim - 4)) + (-2, -1)
    for di in range(3):
        for dj in range(3):
            patch = xp[..., di : di + h, dj : dj + w]
            tap = k[:, :, di, dj][..., None, None]
            out += (patch * tap).sum(axis=-3)
            gxp[..., di : di + h, dj : dj + w] += tap * g[..., None, :, :]
            gk[:, :, di, dj] += (patch * g[..., None, :, :]).sum(axis=red)
    return out, gxp[..., 1 : 1 + h, 1 : 1 + w], gk


@pytest.mark.parametrize("shape", [(1, 3, 5, 4), (2, 1, 3, 5, 4), (2, 4, 3, 5, 4)])
def test_conv2d_same_matches_nine_tap_loop(shape):
    # shape is (..., groups, channels, h, w)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape)
    k = rng.standard_normal(shape[-4:-2] + (3, 3))
    g = rng.standard_normal(shape[:-3] + shape[-2:])
    tape = ad.Tape()
    xt, kt = _tensor(x), _tensor(k)
    out = ad.conv2d_same(tape, xt, kt)
    weight = ad.Tensor(g, dtype=np.float64)
    tape.backward(ad.mean(tape, ad.mul(tape, out, weight)))
    g = g / g.size
    ref_out, ref_gx, ref_gk = _conv_9tap(x, k, g)
    npt.assert_allclose(out.data, ref_out, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(xt.grad, ref_gx, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(kt.grad, ref_gk, rtol=1e-12, atol=1e-12)


def test_matmul_3d_by_2d_equals_batched_product():
    rng = np.random.default_rng(12)
    a, b, g = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 2)), rng.standard_normal((3, 4, 2))
    tape = ad.Tape()
    at, bt = _tensor(a), _tensor(b)
    out = ad.matmul(tape, at, bt)
    tape.backward(ad.mean(tape, ad.mul(tape, out, ad.Tensor(g, dtype=np.float64))))
    g = g / g.size
    npt.assert_allclose(out.data, np.stack([a[i] @ b for i in range(3)]), rtol=1e-12)
    npt.assert_allclose(at.grad, np.stack([g[i] @ b.T for i in range(3)]), rtol=1e-12)
    npt.assert_allclose(bt.grad, sum(a[i].T @ g[i] for i in range(3)), rtol=1e-12)


def test_fanout_adopted_gradient_is_never_written_in_place():
    # mean's uniform gradient reaches s and u, then a and b, as one shared array;
    # a's later contribution from the scale must leave b's (and the upstream)
    # gradient alone
    tape = ad.Tape()
    a, b = _tensor([1.0, 2.0]), _tensor([3.0, 4.0])
    u = ad.scale(tape, a, 3.0)
    s = ad.add(tape, a, b)
    tape.backward(ad.mean(tape, ad.add(tape, s, u)))
    npt.assert_array_equal(a.grad, [2.0, 2.0])
    npt.assert_array_equal(b.grad, [0.5, 0.5])
    npt.assert_array_equal(s.grad, [0.5, 0.5])


def test_structural_ops_return_views():
    tape = ad.Tape(recording=False)
    x = ad.Tensor(np.arange(24.0).reshape(2, 3, 4))
    for out in (
        ad.transpose(tape, x),
        ad.transpose(tape, x, (2, 0, 1)),
        ad.reshape(tape, x, (6, 4)),
        ad.slice_rows(tape, x, 1, 3),
        ad.slice_cols(tape, x, 0, 2),
    ):
        assert np.shares_memory(out.data, x.data)


def test_float32_gradients_stay_float32():
    rng = np.random.default_rng(13)
    x, k, w = (
        ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float32)
        for shape in ((2, 1, 3, 4, 4), (1, 3, 3, 3), (4, 5))
    )
    tape = ad.Tape()
    conv = ad.reshape(tape, ad.conv2d_same(tape, x, k), (2, 4, 4))
    y = ad.mish(tape, ad.linear(tape, ad.transpose(tape, conv), w))
    tape.backward(ad.mean(tape, y))
    assert {t.grad.dtype for t in (x, k, w)} == {np.dtype(np.float32)}


def test_float32_mish_matches_logaddexp_formula():
    # numpy's vectorized float32 exp and log1p are accurate to a few ulp, not
    # correctly rounded, so the two softplus forms may differ by up to 4 ulp
    # while exp(-|x|) is a normal float; below that both round into subnormals
    x = np.linspace(-100.0, 100.0, 40001, dtype=np.float32)
    tape = ad.Tape(recording=False)
    got = ad.mish(tape, ad.Tensor(x)).data
    assert got.dtype == np.float32 and np.all(np.isfinite(got))
    ref = x * np.tanh(np.logaddexp(np.float32(0.0), x))
    normal = x >= -87.0
    npt.assert_array_max_ulp(got[normal], ref[normal], maxulp=4)
    npt.assert_allclose(got[~normal], ref[~normal], rtol=0, atol=np.finfo(np.float32).tiny)
    assert got[-1] == np.float32(100.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mish_backward_matches_where_form(dtype):
    # the backward picks sigmoid's numerator as max(e, x >= 0); this is the
    # np.where(x >= 0, 1, e) form step for step, and must agree bit for bit
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 87.5, -87.5, 104.0, -104.0, 1e4, -1e4, 1e-30, -1e-30]
    x = np.concatenate([special, np.linspace(-120.0, 120.0, 4801)]).astype(dtype)
    t = ad.Tensor(x, requires_grad=True)
    with np.errstate(all="ignore"):
        tape = ad.Tape()
        tape.backward(ad.mean(tape, ad.mish(tape, t)))
        e = np.exp(-np.abs(x))
        th = np.tanh(np.maximum(x, 0) + np.log1p(e))
        sig = np.where(x >= 0, 1, e)
        sig /= 1 + e
        ref = (1 - th * th) * x * sig + th
        ref *= np.full_like(x, 1.0 / x.size)
    assert t.grad.dtype == ref.dtype == dtype
    npt.assert_array_equal(t.grad, ref)
    npt.assert_array_equal(np.signbit(t.grad), np.signbit(ref))


def test_conv2d_kernel_shape_rejected():
    tape = ad.Tape(recording=False)
    x = ad.Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ad.DimensionError, match="kernel"):
        ad.conv2d_same(tape, x, ad.Tensor(np.zeros((1, 2, 5, 5))))
    with pytest.raises(ad.DimensionError, match="kernel"):
        ad.conv2d_same(tape, x, ad.Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ad.DimensionError, match="kernel"):
        ad.conv2d_same(tape, x, ad.Tensor(np.zeros((2, 2, 3, 3))))
    with pytest.raises(ad.DimensionError, match="input"):
        ad.conv2d_same(tape, ad.Tensor(np.zeros((2, 4, 4))), ad.Tensor(np.zeros((1, 2, 3, 3))))


def test_normalize_rows_smooths_zero_mass_to_uniform():
    tape = ad.Tape(recording=False)
    out = ad.normalize_rows(tape, ad.Tensor(np.array([[0.0, 0.0, 0.0, 0.0]]), dtype=np.float64))
    np.testing.assert_allclose(out.data, 0.25)


def test_normalize_rows_keeps_proper_rows_intact():
    tape = ad.Tape(recording=False)
    x = np.array([[0.2, 0.3, 0.5]], dtype=np.float64)
    out = ad.normalize_rows(tape, ad.Tensor(x))
    np.testing.assert_allclose(out.data, x, atol=1e-11)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-15)


def test_slice_bounds_checked():
    tape = ad.Tape(recording=False)
    x = ad.Tensor(np.zeros((4, 3)))
    with pytest.raises(ad.DimensionError):
        ad.slice_rows(tape, x, 2, 6)
    with pytest.raises(ad.DimensionError):
        ad.slice_cols(tape, x, 3, 3)


def test_no_recording_means_no_nodes():
    tape = ad.Tape(recording=False)
    x = _tensor(np.ones((2, 2)))
    ad.mul(tape, x, x)
    assert len(tape) == 0


def test_constants_collect_no_grad():
    tape = ad.Tape()
    x = _tensor(np.ones((2, 2)))
    c = ad.Tensor(np.ones((2, 2)), requires_grad=False, dtype=np.float64)
    tape.backward(ad.mean(tape, ad.mul(tape, x, c)))
    assert x.grad is not None and c.grad is None


def test_zero_grads_resets():
    tape = ad.Tape()
    x = _tensor([1.0, 2.0])
    tape.backward(ad.mean(tape, x))
    zero_all_grads({"x": x})
    assert x.grad is None


def test_independent_tapes_do_not_interact():
    x = _tensor([2.0])
    t1, t2 = ad.Tape(), ad.Tape()
    l1 = ad.mean(t1, ad.scale(t1, x, 3.0))
    l2 = ad.mean(t2, ad.scale(t2, x, 5.0))
    t1.backward(l1)
    npt.assert_array_equal(x.grad, [3.0])
    t2.backward(l2)
    npt.assert_array_equal(x.grad, [8.0])  # accumulates across tapes until reset


# ---- finite-difference checks (the oracle for every backward rule) ----


@pytest.mark.parametrize("name", sorted(gc._op_checks()))
def test_operator_gradients(name):
    err = gc.check_operator(name, seeds=range(3))
    assert err < gc.TOL_OP, f"{name}: rel err {err:.3e}"


def test_gradcheck_catches_a_corrupted_backward():
    # a hand-built op with a wrong backward rule must be flagged by the harness
    def make_loss(tape, xs):
        (x,) = xs
        out = ad.Tensor(x.data * 3.0)
        if tape._wants(x):
            def fn():
                if out.grad is not None:
                    ad._accum(x, out.grad * 2.0)  # wrong: forward used 3.0
            tape._record(out, fn)
        return ad.mean(tape, out)

    err = gc.check_case(make_loss, [np.arange(4.0)])
    assert err > 0.1


def test_run_suite_reports_failures_by_name():
    bad = {"deliberately_bad": lambda: 1.0}
    results = gc.run_suite(extra_checks=bad)
    failed = [name for name, _, _, ok in results if not ok]
    assert failed == ["deliberately_bad"]
