"""Neural-network operators built on the :class:`repro.nn.tensor.Tensor` autograd.

Implements the operators the SpAc LU-Net needs, most importantly the
*dilated harmonic convolution* of the paper (Eqs. 1, 2 and 8): at output
frequency ``f`` the kernel reads input bins ``round(k * f / anchor)`` for
harmonics ``k = 1..H`` and time offsets spaced ``dilation`` frames apart.

Standard 2-D convolution (used by the "conventional CNN" variant of Fig. 3),
pooling and nearest-neighbour upsampling are also provided.  All operators
register hand-written backward closures on the autograd graph — cheaper and
far more memory-friendly than composing them from primitive ops.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.tensor import Tensor, astensor


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigurationError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


# --------------------------------------------------------------------- #
# Cached kernel-tap plans
#
# Like repro.dsp.plan.StftPlan caches a geometry's window and frame grid,
# these memoise the per-(shape, kernel, stride, dilation) slicing plans
# the convolutions walk on every call.  Deep-prior fits re-run the same
# few layer shapes hundreds of times per record, so the plan for a given
# geometry is computed exactly once per process.
# --------------------------------------------------------------------- #
@lru_cache(maxsize=512)
def conv_tap_plan(
    h_pad: int, w_pad: int, kh: int, kw: int,
    sh: int, sw: int, dh: int, dw: int,
) -> tuple:
    """Output extents and per-tap input slices of a 2-D convolution.

    Returns ``(oh, ow, taps)`` where ``taps`` is a tuple of
    ``((di, dj), (h_slice, w_slice))`` pairs, one per kernel tap, over an
    input already padded to ``(h_pad, w_pad)``.  ``oh``/``ow`` may be
    non-positive for kernels larger than the input; callers raise.
    """
    oh = (h_pad - (kh - 1) * dh - 1) // sh + 1
    ow = (w_pad - (kw - 1) * dw - 1) // sw + 1
    taps = tuple(
        (
            (di, dj),
            (
                slice(di * dh, di * dh + (oh - 1) * sh + 1, sh),
                slice(dj * dw, dj * dw + (ow - 1) * sw + 1, sw),
            ),
        )
        for di in range(kh) for dj in range(kw)
    )
    return oh, ow, taps


@lru_cache(maxsize=256)
def harmonic_gather_plan(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Per-harmonic gather plan of the frequency remap.

    The in-band rows of :func:`harmonic_index_map` are always a prefix
    (the index ``round(k f / anchor)`` is non-decreasing), so each
    harmonic gathers ``n_valid`` rows and zero-fills the rest.  When the
    row indices form an arithmetic progression (always true for
    ``anchor = 1``, where harmonic ``k`` reads rows ``0, k, 2k, ...``)
    the gather is a strided slice copy instead of fancy indexing.

    Returns one ``(n_valid, row_slice_or_None, rows_or_None)`` triple per
    harmonic: exactly one of the last two is set.
    """
    indices, valid = harmonic_index_map(n_freq, n_harmonics, anchor)
    plan = []
    for k in range(n_harmonics):
        n_valid = int(valid[k].sum())
        rows = indices[k][:n_valid]
        if n_valid >= 2:
            steps = np.diff(rows)
            uniform = steps.min() == steps.max() and steps[0] > 0
        else:
            uniform = True
        if uniform:
            step = int(rows[1] - rows[0]) if n_valid >= 2 else 1
            start = int(rows[0]) if n_valid else 0
            plan.append(
                (n_valid, slice(start, start + step * n_valid, step), None)
            )
        else:
            rows = np.ascontiguousarray(rows)
            rows.setflags(write=False)
            plan.append((n_valid, None, rows))
    return tuple(plan)


@lru_cache(maxsize=256)
def harmonic_scatter_plan(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Per-harmonic adjoint-scatter plan of the frequency gather.

    For each harmonic row of :func:`harmonic_index_map`, precomputes the
    in-band source rows, their target input bins, and whether those bins
    are duplicate-free.  Unique rows scatter with a plain fancy-index
    ``+=`` (one vectorised add); only rows with duplicate targets (which
    occur when ``anchor > k``, e.g. the Zhang-baseline ``anchor=2``) need
    the much slower ``np.add.at``.
    """
    indices, valid = harmonic_index_map(n_freq, n_harmonics, anchor)
    plan = []
    for k in range(n_harmonics):
        rows = np.flatnonzero(valid[k])
        targets = indices[k][rows]
        rows.setflags(write=False)
        targets.setflags(write=False)
        plan.append((rows, targets, np.unique(targets).size == targets.size))
    return tuple(plan)


@lru_cache(maxsize=512)
def harmonic_tap_plan(n_time: int, kt: int, time_dilation: int) -> tuple:
    """Per-time-tap slices of a dilated harmonic convolution.

    One ``slice`` per time tap ``dt``, selecting the ``n_time``-frame
    window starting at ``dt * time_dilation`` of the padded time axis.
    """
    return tuple(
        slice(dt * time_dilation, dt * time_dilation + n_time)
        for dt in range(kt)
    )


# --------------------------------------------------------------------- #
# Standard 2-D convolution
# --------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=1,
    padding=0,
    dilation=1,
) -> Tensor:
    """2-D cross-correlation, NCHW layout.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding, dilation:
        Ints or pairs, applied to the two spatial axes.
    """
    x = astensor(x)
    weight = astensor(weight)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D (NCHW), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weight expects {weight.shape[1]}"
        )
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    dh, dw = _pair(dilation)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh, ow, taps = conv_tap_plan(xp.shape[2], xp.shape[3], kh, kw,
                                 sh, sw, dh, dw)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv2d output would be empty: input {x.shape}, kernel "
            f"{weight.shape}, stride {(sh, sw)}, padding {(ph, pw)}"
        )

    out_data = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    # Loop over kernel taps; each tap is one big GEMM.  kh*kw is small
    # (<= 25) so this beats materialising a full im2col buffer.
    for (di, dj), (sl_h, sl_w) in taps:
        patch = xp[:, :, sl_h, sl_w]
        out_data += np.einsum(
            "oc,nchw->nohw", weight.data[:, :, di, dj], patch, optimize=True
        )
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "conv2d")

    x_data_padded = xp
    w_data = weight.data

    def backward(grad):
        grad_xp = np.zeros_like(x_data_padded)
        grad_w = np.zeros_like(w_data)
        for (di, dj), (sl_h, sl_w) in taps:
            patch = x_data_padded[:, :, sl_h, sl_w]
            grad_w[:, :, di, dj] = np.einsum(
                "nohw,nchw->oc", grad, patch, optimize=True
            )
            grad_xp[:, :, sl_h, sl_w] += np.einsum(
                "oc,nohw->nchw", w_data[:, :, di, dj], grad, optimize=True
            )
        grad_x = grad_xp[:, :, ph: ph + h, pw: pw + w]
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)))
        return tuple(grads)

    Tensor._attach(out, parents, backward, "conv2d")
    return out


# --------------------------------------------------------------------- #
# Harmonic convolution (paper Eqs. 1, 2 and 8)
# --------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def harmonic_index_map(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Frequency-gather indices for harmonic convolution.

    For harmonic ``k`` (1-based) and output bin ``f``, the input bin is
    ``round(k * f / anchor)``.  Bins that fall outside ``[0, n_freq)`` are
    flagged out-of-band and contribute zero.

    Returns
    -------
    (indices, valid):
        ``indices`` — int array of shape ``(n_harmonics, n_freq)`` with
        clipped in-range indices; ``valid`` — bool array of the same shape,
        ``False`` where the harmonic leaves the band.
    """
    if n_harmonics < 1:
        raise ConfigurationError(f"n_harmonics must be >= 1, got {n_harmonics}")
    if anchor < 1:
        raise ConfigurationError(f"anchor must be >= 1, got {anchor}")
    freqs = np.arange(n_freq)
    ks = np.arange(1, n_harmonics + 1).reshape(-1, 1)
    raw = np.round(ks * freqs / float(anchor)).astype(np.int64)
    valid = (raw >= 0) & (raw < n_freq)
    indices = np.clip(raw, 0, n_freq - 1)
    indices.setflags(write=False)
    valid.setflags(write=False)
    return indices, valid


def harmonic_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    anchor: int = 1,
    time_dilation: int = 1,
) -> Tensor:
    """Dilated harmonic convolution over a (frequency, time) map.

    Implements Eq. 8 of the paper::

        (X * K)[f, t] = sum_{k=1..H} sum_{dt=-T..T}
                        X[round(k f / anchor), t - time_dilation * dt] K[k, dt]

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, F, T)``.
    weight:
        Kernel of shape ``(C_out, C_in, H, KT)`` — ``H`` harmonics tall,
        ``KT`` (odd) time taps wide.
    bias:
        Optional ``(C_out,)`` bias.
    anchor:
        Harmonic anchor ``n`` from Eq. 2.  ``anchor=1`` restricts access to
        forward integral multiples only (the paper's spectrally-accurate
        choice); larger anchors permit backward/fractional harmonics.
    time_dilation:
        Spacing ``D_conv`` between time taps (Eq. 8).

    Output has the same ``F`` and ``T`` as the input (time is zero-padded).
    """
    x = astensor(x)
    weight = astensor(weight)
    if x.ndim != 4:
        raise ShapeError(f"harmonic_conv2d input must be 4-D, got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"harmonic_conv2d weight must be 4-D, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weight expects {weight.shape[1]}"
        )
    if time_dilation < 1:
        raise ConfigurationError(f"time_dilation must be >= 1, got {time_dilation}")
    n, c_in, n_freq, n_time = x.shape
    c_out, _, n_harm, kt = weight.shape
    if kt % 2 == 0:
        raise ConfigurationError(f"time kernel size must be odd, got {kt}")

    indices, valid = harmonic_index_map(n_freq, n_harm, anchor)
    half = kt // 2
    pad_t = half * time_dilation
    taps = harmonic_tap_plan(n_time, kt, time_dilation)
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, 0), (pad_t, pad_t)))

    # Gather per-harmonic frequency-remapped copies once: (H, N, C, F, Tp).
    gathered = xp[:, :, indices, :]          # (N, C, H, F, Tp)
    gathered *= valid[None, None, :, :, None]

    out_data = np.zeros((n, c_out, n_freq, n_time), dtype=x.dtype)
    for k in range(n_harm):
        for dt, sl_t in enumerate(taps):
            patch = gathered[:, :, k, :, sl_t]
            out_data += np.einsum(
                "oc,ncft->noft", weight.data[:, :, k, dt], patch, optimize=True
            )
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "harmonic_conv2d")

    w_data = weight.data
    xp_shape = xp.shape
    x_dtype = x.dtype

    def backward(grad):
        grad_w = np.zeros_like(w_data)
        grad_gathered = np.zeros(
            (n, c_in, n_harm, n_freq, xp_shape[-1]), dtype=x_dtype
        )
        for k in range(n_harm):
            for dt, sl_t in enumerate(taps):
                patch = gathered[:, :, k, :, sl_t]
                grad_w[:, :, k, dt] = np.einsum(
                    "noft,ncft->oc", grad, patch, optimize=True
                )
                grad_gathered[:, :, k, :, sl_t] += np.einsum(
                    "oc,noft->ncft", w_data[:, :, k, dt], grad, optimize=True
                )
        grad_gathered *= valid[None, None, :, :, None]
        # Adjoint of the frequency gather: scatter-add back per harmonic.
        grad_xp = np.zeros(xp_shape, dtype=x_dtype)
        moved = np.moveaxis(grad_xp, 2, 0)   # (F, N, C, Tp) view
        for k in range(n_harm):
            np.add.at(
                moved, indices[k], np.moveaxis(grad_gathered[:, :, k], 2, 0)
            )
        grad_x = grad_xp[:, :, :, pad_t: pad_t + n_time] if pad_t else grad_xp
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)))
        return tuple(grads)

    Tensor._attach(out, parents, backward, "harmonic_conv2d")
    return out


# --------------------------------------------------------------------- #
# Pooling and upsampling
# --------------------------------------------------------------------- #
def avg_pool2d(x: Tensor, kernel) -> Tensor:
    """Non-overlapping average pooling; trailing remainder is dropped."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d input must be 4-D, got {x.shape}")
    kh, kw = _pair(kernel)
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if oh == 0 or ow == 0:
        raise ShapeError(f"avg_pool2d kernel {kernel} larger than input {x.shape}")
    trimmed = x.data[:, :, : oh * kh, : ow * kw]
    out_data = trimmed.reshape(n, c, oh, kh, ow, kw).mean(axis=(3, 5))
    out = x._make(out_data, (x,), "avg_pool2d")

    def backward(grad):
        g = np.broadcast_to(
            grad[:, :, :, None, :, None], (n, c, oh, kh, ow, kw)
        ).reshape(n, c, oh * kh, ow * kw) / (kh * kw)
        full = np.zeros((n, c, h, w), dtype=grad.dtype)
        full[:, :, : oh * kh, : ow * kw] = g
        return (full,)

    Tensor._attach(out, (x,), backward, "avg_pool2d")
    return out


def max_pool2d(x: Tensor, kernel) -> Tensor:
    """Non-overlapping max pooling; trailing remainder is dropped."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d input must be 4-D, got {x.shape}")
    kh, kw = _pair(kernel)
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool2d kernel {kernel} larger than input {x.shape}")
    windows = x.data[:, :, : oh * kh, : ow * kw].reshape(n, c, oh, kh, ow, kw)
    flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out = x._make(out_data, (x,), "max_pool2d")

    def backward(grad):
        grad_flat = np.zeros_like(flat)
        np.put_along_axis(grad_flat, arg[..., None], grad[..., None], axis=-1)
        g = grad_flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 2, 4, 3, 5)
        full = np.zeros((n, c, h, w), dtype=grad.dtype)
        full[:, :, : oh * kh, : ow * kw] = g.reshape(n, c, oh * kh, ow * kw)
        return (full,)

    Tensor._attach(out, (x,), backward, "max_pool2d")
    return out


def upsample_nearest(x: Tensor, scale) -> Tensor:
    """Nearest-neighbour upsampling of the two spatial axes."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest input must be 4-D, got {x.shape}")
    sh, sw = _pair(scale)
    n, c, h, w = x.shape
    out_data = np.repeat(np.repeat(x.data, sh, axis=2), sw, axis=3)
    out = x._make(out_data, (x,), "upsample_nearest")

    def backward(grad):
        g = grad.reshape(n, c, h, sh, w, sw).sum(axis=(3, 5))
        return (g,)

    Tensor._attach(out, (x,), backward, "upsample_nearest")
    return out


def crop_or_pad_time(x: Tensor, target_len: int) -> Tensor:
    """Crop or zero-pad the last (time) axis to exactly ``target_len``.

    Used by the U-Net decoder to match skip-connection lengths when the
    input time extent is not a power-of-two multiple.
    """
    x = astensor(x)
    current = x.shape[-1]
    if current == target_len:
        return x
    if current > target_len:
        index = (slice(None),) * (x.ndim - 1) + (slice(0, target_len),)
        return x[index]
    pad_width = [(0, 0)] * (x.ndim - 1) + [(0, target_len - current)]
    return x.pad(pad_width)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout p must be in [0, 1), got {p}")
    x = astensor(x)
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    keep = keep.astype(x.dtype)
    out = x._make(x.data * keep, (x,), "dropout")
    Tensor._attach(out, (x,), lambda g: (g * keep,), "dropout")
    return out
