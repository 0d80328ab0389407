"""Single-precision parity of the nn hot-path ops and init dtypes.

Float32 is selected purely by operand dtype (``DHFSpec.dtype`` /
``InpaintingConfig.dtype``); these pin the documented per-op bound
(docs/architecture.md, "Precision").
"""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, Tensor
from repro.nn import functional as F
from repro.nn import init
from repro.nn.init import kaiming_uniform, resolve_init_dtype

#: Max relative deviation of a float32 op from its float64 result.
OP_F32_RTOL = 1e-5


def relative_deviation(ref, out) -> float:
    ref = np.asarray(ref, dtype=np.float64)
    out = np.asarray(out, dtype=np.float64)
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(out - ref).max()) / scale


class TestF32OpParity:
    def test_harmonic_conv_matches_f64(self, rng):
        x64 = rng.standard_normal((1, 3, 33, 16))
        w64 = rng.standard_normal((3, 3, 3, 3)) * 0.2
        out64 = F.harmonic_conv2d(
            Tensor(x64), Tensor(w64), anchor=1, time_dilation=2
        ).data
        out32 = F.harmonic_conv2d(
            Tensor(x64.astype(np.float32)), Tensor(w64.astype(np.float32)),
            anchor=1, time_dilation=2,
        ).data
        assert out32.dtype == np.float32
        assert relative_deviation(out64, out32) <= OP_F32_RTOL

    def test_conv2d_matches_f64(self, rng):
        x64 = rng.standard_normal((2, 3, 9, 11))
        w64 = rng.standard_normal((4, 3, 3, 3)) * 0.2
        out64 = F.conv2d(Tensor(x64), Tensor(w64), padding=1).data
        out32 = F.conv2d(
            Tensor(x64.astype(np.float32)), Tensor(w64.astype(np.float32)),
            padding=1,
        ).data
        assert out32.dtype == np.float32
        assert relative_deviation(out64, out32) <= OP_F32_RTOL


def harmonic_op(x, w):
    return F.harmonic_conv2d(x, w, anchor=1, time_dilation=2)


def conv_op(x, w):
    return F.conv2d(x, w, padding=1)


#: (op, input shape, weight shape) for each hot-path convolution.
CONV_CASES = {
    "harmonic_conv2d": (harmonic_op, (1, 3, 33, 16), (3, 3, 3, 3)),
    "conv2d": (conv_op, (2, 3, 9, 11), (4, 3, 3, 3)),
}


def conv_grads(op, x_data, w_data, upstream, dtype):
    """Output and input/weight gradients of ``sum(op(x, w) * upstream)``."""
    x = Tensor(x_data.astype(dtype), requires_grad=True)
    w = Tensor(w_data.astype(dtype), requires_grad=True)
    out = op(x, w)
    (out * Tensor(upstream.astype(dtype))).sum().backward()
    return out.data, x.grad, w.grad


class TestF32GradParity:
    @pytest.mark.parametrize("case", sorted(CONV_CASES))
    def test_backward_matches_f64(self, rng, case):
        op, x_shape, w_shape = CONV_CASES[case]
        x64 = rng.standard_normal(x_shape)
        w64 = rng.standard_normal(w_shape) * 0.2
        upstream = rng.standard_normal(op(Tensor(x64), Tensor(w64)).shape)
        _, gx64, gw64 = conv_grads(op, x64, w64, upstream, np.float64)
        _, gx32, gw32 = conv_grads(op, x64, w64, upstream, np.float32)
        assert relative_deviation(gx64, gx32) <= OP_F32_RTOL
        assert relative_deviation(gw64, gw32) <= OP_F32_RTOL


class TestOpsKeepOperandDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CONV_CASES))
    def test_forward_and_backward_dtype(self, rng, case, dtype):
        # No silent upcast mid-graph: a float32 fit stays float32 end to
        # end, and a float64 fit is never narrowed.
        op, x_shape, w_shape = CONV_CASES[case]
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape) * 0.2
        upstream = rng.standard_normal(op(Tensor(x), Tensor(w)).shape)
        out, gx, gw = conv_grads(op, x, w, upstream, dtype)
        assert out.dtype == gx.dtype == gw.dtype == dtype


class TestAdamStep:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_textbook_update_bitwise(self, rng, dtype, weight_decay):
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        data = rng.standard_normal((4, 5)).astype(dtype)
        grads = [rng.standard_normal((4, 5)).astype(dtype) for _ in range(5)]
        p = Parameter(data.copy())
        adam = Adam([p], lr=lr, betas=(beta1, beta2), eps=eps,
                    weight_decay=weight_decay)
        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, grad in enumerate(grads, start=1):
            p.grad = grad.copy()
            adam.step()
            g = grad + weight_decay * ref if weight_decay else grad
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert p.data.dtype == dtype
            np.testing.assert_array_equal(p.data, ref)


class TestInitDtype:
    def test_default_is_float32(self):
        assert resolve_init_dtype(None) == np.float32
        rng = np.random.default_rng(0)
        assert kaiming_uniform((3, 3), rng).dtype == np.float32

    def test_explicit_dtype_preserved(self):
        assert resolve_init_dtype(np.float64) == np.float64
        rng = np.random.default_rng(0)
        assert kaiming_uniform(
            (3, 3), rng, dtype=np.float64
        ).dtype == np.float64

    @pytest.mark.parametrize("initialiser", [
        "kaiming_uniform", "xavier_uniform", "normal", "uniform",
        "zeros", "ones",
    ])
    def test_every_initialiser_resolves_dtype(self, initialiser):
        fn = getattr(init, initialiser)

        def build(**kwargs):
            if initialiser in ("zeros", "ones"):
                return fn((3, 4), **kwargs)
            return fn((3, 4), np.random.default_rng(0), **kwargs)

        assert build().dtype == np.float32
        assert build(dtype=np.float64).dtype == np.float64
        assert build(dtype=np.float32).dtype == np.float32
