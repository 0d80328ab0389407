"""Batched deep-prior fitting: K independent LU-Nets advanced in lockstep.

The deep-prior in-painting loop (paper Sec. 3.3, Eq. 9) fits one randomly
initialised :class:`repro.nn.unet.SpAcLUNet` per spectrogram.  Fitting K
records one at a time pays the Python/autograd overhead of every operator
K times per iteration even though the arrays involved are small.  This
module stacks K structurally identical networks into one
:class:`BatchedSpAcLUNet` whose parameters carry a leading *record* axis,
so a single forward/backward/Adam step advances every record's fit
simultaneously: the autograd graph has the same number of nodes as ONE
per-record fit, while each einsum contracts over all records at once.
It is the package's only fit engine: a single fit runs it at K=1
(:func:`repro.core.inpainting.inpaint_spectrogram`).

Per-record semantics are preserved exactly:

* every record keeps its own weights (the stacked convolutions contract
  ``(R, O, C, ...) x (R, C, F, T) -> (R, O, F, T)``, never mixing
  records);
* the stacked initialisation is copied bit-for-bit from per-record
  template networks seeded exactly as a one-record fit seeds them;
* the per-record loss is the same masked MSE, and the summed batch loss
  has a block-diagonal dependency structure, so each record's gradient
  (and Adam trajectory) matches the historical per-record ``SpAcLUNet``
  loop up to floating-point summation order (see ``docs/architecture.md``
  for the documented tolerance and the float64 fixture that pins it).

Records that converge can drop out of the batch early
(:class:`EarlyStopConfig`): the engine snapshots each record's best
output, and once a record has gone ``patience`` iterations without a
relative improvement of ``rel_tol`` it is removed and the remaining
records are compacted into a smaller stack (parameters, Adam state and
workspaces shrink together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend import active_backend
from repro.errors import ConfigurationError, SerializationError, ShapeError
from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, concatenate
from repro.nn.unet import SpAcLUNet, UNetConfig, _crop_or_pad


class Workspace:
    """Named, shape-keyed scratch buffers reused across fit iterations.

    The batched convolutions gather/scatter through large intermediate
    arrays every iteration; allocating them once per *layer* (keys are
    call-site names, so two layers never share a buffer inside one
    autograd graph) and reusing them across iterations keeps the
    allocator out of the hot loop.  Buffers are owned by one fit engine
    and must not be shared between concurrently running fits.
    """

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}

    def get(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A buffer of exactly ``shape``/``dtype`` (contents undefined)."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def zeros(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Like :meth:`get` but zero-filled."""
        buf = self.get(key, shape, dtype)
        buf.fill(0)
        return buf

    def clear(self) -> None:
        self._buffers.clear()


# --------------------------------------------------------------------- #
# Batched operators: weights carry a leading record axis
# --------------------------------------------------------------------- #
def batched_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    padding=0,
    workspace: Optional[Workspace] = None,
    key: str = "conv",
) -> Tensor:
    """Per-record 2-D convolution (stride 1, dilation 1).

    Parameters
    ----------
    x:
        Input of shape ``(R, C_in, H, W)`` — one sample per record.
    weight:
        Per-record kernels ``(R, C_out, C_in, KH, KW)``.
    bias:
        Optional per-record bias ``(R, C_out)``.
    padding:
        Int or pair, symmetric spatial zero-padding.

    Record ``r`` of the output depends only on record ``r`` of the input
    and weights — this is exactly ``R`` independent ``conv2d`` calls
    fused into one graph node.
    """
    if x.ndim != 4:
        raise ShapeError(f"batched_conv2d input must be 4-D, got {x.shape}")
    if weight.ndim != 5:
        raise ShapeError(
            f"batched_conv2d weight must be 5-D (R, O, C, KH, KW), got "
            f"{weight.shape}"
        )
    if x.shape[0] != weight.shape[0]:
        raise ShapeError(
            f"input has {x.shape[0]} records but weight has {weight.shape[0]}"
        )
    if x.shape[1] != weight.shape[2]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weight expects "
            f"{weight.shape[2]}"
        )
    ph, pw = F._pair(padding)
    n_rec, c_in, h, w = x.shape
    _, c_out, _, kh, kw = weight.shape

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) \
        if (ph or pw) else x.data
    oh, ow, taps = F.conv_tap_plan(
        xp.shape[2], xp.shape[3], kh, kw, 1, 1, 1, 1
    )
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"batched_conv2d output would be empty: input {x.shape}, "
            f"kernel {weight.shape}"
        )

    backend = active_backend()
    out_data = np.zeros((n_rec, c_out, oh, ow), dtype=x.dtype)
    for (di, dj), (sl_h, sl_w) in taps:
        patch = xp[:, :, sl_h, sl_w]
        out_data += backend.einsum(
            "roc,rchw->rohw", weight.data[:, :, :, di, dj], patch
        )
    if bias is not None:
        out_data += bias.data.reshape(n_rec, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "batched_conv2d")

    xp_data = xp
    w_data = weight.data
    ws = workspace

    def backward(grad):
        if ws is not None:
            grad_xp = ws.zeros(key + ".gx", xp_data.shape, x.dtype)
        else:
            grad_xp = np.zeros(xp_data.shape, dtype=x.dtype)
        grad_w = np.zeros_like(w_data)
        for (di, dj), (sl_h, sl_w) in taps:
            patch = xp_data[:, :, sl_h, sl_w]
            grad_w[:, :, :, di, dj] = backend.einsum(
                "rohw,rchw->roc", grad, patch
            )
            grad_xp[:, :, sl_h, sl_w] += backend.einsum(
                "roc,rohw->rchw", w_data[:, :, :, di, dj], grad
            )
        grad_x = grad_xp[:, :, ph: ph + h, pw: pw + w] if (ph or pw) \
            else grad_xp
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad.sum(axis=(2, 3)))
        return tuple(grads)

    Tensor._attach(out, parents, backward, "batched_conv2d")
    return out


def batched_harmonic_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    anchor: int = 1,
    time_dilation: int = 1,
    workspace: Optional[Workspace] = None,
    key: str = "hconv",
) -> Tensor:
    """Per-record dilated harmonic convolution (paper Eq. 8, batched).

    Parameters
    ----------
    x:
        Input of shape ``(R, C_in, F, T)``.
    weight:
        Per-record kernels ``(R, C_out, C_in, H, KT)``.
    bias:
        Optional per-record bias ``(R, C_out)``.
    anchor, time_dilation:
        As in :func:`repro.nn.functional.harmonic_conv2d`; shared by the
        whole batch (records needing different geometry belong in
        different batches).
    """
    if x.ndim != 4:
        raise ShapeError(
            f"batched_harmonic_conv2d input must be 4-D, got {x.shape}"
        )
    if weight.ndim != 5:
        raise ShapeError(
            f"batched_harmonic_conv2d weight must be 5-D (R, O, C, H, KT), "
            f"got {weight.shape}"
        )
    if x.shape[0] != weight.shape[0]:
        raise ShapeError(
            f"input has {x.shape[0]} records but weight has {weight.shape[0]}"
        )
    if x.shape[1] != weight.shape[2]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weight expects "
            f"{weight.shape[2]}"
        )
    if time_dilation < 1:
        raise ConfigurationError(
            f"time_dilation must be >= 1, got {time_dilation}"
        )
    n_rec, c_in, n_freq, n_time = x.shape
    _, c_out, _, n_harm, kt = weight.shape
    if kt % 2 == 0:
        raise ConfigurationError(f"time kernel size must be odd, got {kt}")

    gather_plan = F.harmonic_gather_plan(n_freq, n_harm, anchor)
    scatter_plan = F.harmonic_scatter_plan(n_freq, n_harm, anchor)
    pad_t = (kt // 2) * time_dilation
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, 0), (pad_t, pad_t))) \
        if pad_t else x.data

    # One frequency gather per iteration per layer: (R, C, H, F, Tp).
    # Each harmonic lane is a strided slice copy (or a fancy gather of
    # its in-band prefix) with the out-of-band tail zero-filled — no
    # full-buffer validity multiply needed.
    gather_shape = (n_rec, c_in, n_harm, n_freq, xp.shape[-1])
    gathered = workspace.get(key + ".gather", gather_shape, x.dtype) \
        if workspace is not None else np.empty(gather_shape, dtype=x.dtype)
    for k, (n_valid, row_slice, rows) in enumerate(gather_plan):
        lane = gathered[:, :, k]
        if row_slice is not None:
            lane[:, :, :n_valid] = xp[:, :, row_slice]
        else:
            lane[:, :, :n_valid] = xp[:, :, rows]
        lane[:, :, n_valid:] = 0

    # One fused batched GEMM contracts the whole (channel, harmonic) axis
    # against the UN-duplicated gather buffer:
    #     tmp[r, (o, dt), (f, tp)] = sum_(c,h) w[r, o, c, h, dt] * g[r, (c,h), (f,tp)]
    # and the KT tap outputs are then overlap-added at their dilated time
    # offsets.  Compared with materialising per-tap patches this touches
    # each input cell once, with one well-blocked matmul per layer.
    n_tp = xp.shape[-1]
    ws = workspace
    backend = active_backend()
    w_fold = np.ascontiguousarray(
        weight.data.transpose(0, 1, 4, 2, 3)
    ).reshape(n_rec, c_out * kt, c_in * n_harm)
    g_flat = gathered.reshape(n_rec, c_in * n_harm, n_freq * n_tp)
    tmp_shape = (n_rec, c_out * kt, n_freq * n_tp)
    tmp = ws.get(key + ".tmp", tmp_shape, x.dtype) if ws is not None \
        else np.empty(tmp_shape, dtype=x.dtype)
    backend.matmul(w_fold, g_flat, out=tmp)
    tmp_taps = tmp.reshape(n_rec, c_out, kt, n_freq, n_tp)

    out_data = np.zeros((n_rec, c_out, n_freq, n_time), dtype=x.dtype)
    for dt in range(kt):
        t0 = dt * time_dilation
        out_data += tmp_taps[:, :, dt, :, t0: t0 + n_time]
    if bias is not None:
        out_data += bias.data.reshape(n_rec, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "batched_harmonic_conv2d")

    xp_shape = xp.shape
    x_dtype = x.dtype

    def backward(grad):
        # Adjoint of the overlap-add: each tap sees ``grad`` in its own
        # dilated window and zero elsewhere.
        gtmp_shape = (n_rec, c_out, kt, n_freq, n_tp)
        grad_tmp = ws.get(key + ".gtmp", gtmp_shape, x_dtype) if ws is not None \
            else np.empty(gtmp_shape, dtype=x_dtype)
        for dt in range(kt):
            t0 = dt * time_dilation
            lane = grad_tmp[:, :, dt]
            lane[..., :t0] = 0
            lane[..., t0 + n_time:] = 0
            lane[..., t0: t0 + n_time] = grad
        gt_flat = grad_tmp.reshape(n_rec, c_out * kt, n_freq * n_tp)
        # Weight gradient: contract the taps against the gather buffer.
        grad_w = backend.matmul(
            gt_flat, g_flat.transpose(0, 2, 1)
        ).reshape(n_rec, c_out, kt, c_in, n_harm).transpose(0, 1, 3, 4, 2)
        # Input gradient back through the gather.
        gg_shape = (n_rec, c_in * n_harm, n_freq * n_tp)
        gg_flat = ws.get(key + ".ggather", gg_shape, x_dtype) if ws is not None \
            else np.empty(gg_shape, dtype=x_dtype)
        backend.matmul(w_fold.transpose(0, 2, 1), gt_flat, out=gg_flat)
        grad_gathered = gg_flat.reshape(gather_shape)
        # Adjoint of the frequency gather: scatter-add per harmonic using
        # the cached plan; only in-band rows scatter, so no validity
        # multiply is needed (plain fancy-index += when the target bins
        # are duplicate-free, which they always are for anchor = 1).
        grad_xp = ws.zeros(key + ".gx", xp_shape, x_dtype) if ws is not None \
            else np.zeros(xp_shape, dtype=x_dtype)
        moved = np.moveaxis(grad_xp, 2, 0)   # (F, R, C, Tp) view
        for k, (rows, targets, is_unique) in enumerate(scatter_plan):
            source = np.moveaxis(grad_gathered[:, :, k], 2, 0)[rows]
            backend.index_add(moved, targets, source, unique=is_unique)
        grad_x = grad_xp[:, :, :, pad_t: pad_t + n_time] if pad_t else grad_xp
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad.sum(axis=(2, 3)))
        return tuple(grads)

    Tensor._attach(out, parents, backward, "batched_harmonic_conv2d")
    return out


def batched_instance_norm(
    x: Tensor,
    weight: Optional[Tensor],
    bias: Optional[Tensor],
    eps: float = 1e-5,
) -> Tensor:
    """Per-record instance norm with per-record affine parameters.

    Instance norm already normalises each ``(sample, channel)`` plane
    independently, so with the record axis in the batch position the
    statistics are identical to the sequential per-record fit; only the
    affine scale/shift need a record axis (``weight``/``bias`` of shape
    ``(R, C)``).
    """
    if x.ndim != 4:
        raise ShapeError(
            f"batched_instance_norm expects 4-D input, got {x.shape}"
        )
    mean = x.mean(axis=(2, 3), keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=(2, 3), keepdims=True)
    normed = centered / (var + eps).sqrt()
    if weight is not None:
        n_rec, channels = weight.shape
        normed = normed * weight.reshape(n_rec, channels, 1, 1) \
            + bias.reshape(n_rec, channels, 1, 1)
    return normed


# --------------------------------------------------------------------- #
# The stacked network
# --------------------------------------------------------------------- #
class BatchedSpAcLUNet(Module):
    """K structurally identical :class:`SpAcLUNet` s fused into one module.

    Built with :meth:`from_networks` from per-record template networks;
    every parameter is the record-wise stack of the templates' parameters
    under the *same dotted name*, so :meth:`state_for` can hand a fitted
    record straight back to ``SpAcLUNet.load_state_dict``.

    The forward pass mirrors :meth:`SpAcLUNet.forward` exactly, with the
    record axis riding in the batch position: pooling, upsampling,
    activations and skip concatenation are untouched tensor ops, while
    the convolutions and the instance-norm affine use the batched
    per-record-weight operators of this module.
    """

    def __init__(self, cfg: UNetConfig, stacked: Dict[str, np.ndarray]):
        super().__init__()
        self.cfg = cfg
        first = next(iter(stacked.values()))
        self._n_records = int(first.shape[0])
        for name, data in stacked.items():
            if data.shape[0] != self._n_records:
                raise ShapeError(
                    f"stacked parameter {name!r} has {data.shape[0]} "
                    f"records, expected {self._n_records}"
                )
            # Dotted template names cannot be attributes; register the
            # stacked parameters straight into the module's table so
            # parameters()/named_parameters() see them in template order.
            self._parameters[name] = Parameter(data)
        self._workspace = Workspace()

    # ------------------------------------------------------------------ #
    # Construction / extraction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networks(cls, networks: Sequence[SpAcLUNet]) -> "BatchedSpAcLUNet":
        """Stack per-record template networks (weights copied bit-for-bit)."""
        networks = list(networks)
        if not networks:
            raise ConfigurationError("from_networks needs at least one network")
        cfg = networks[0].cfg
        for net in networks[1:]:
            if net.cfg != cfg:
                raise ConfigurationError(
                    f"all networks must share one UNetConfig; got {net.cfg} "
                    f"vs {cfg}"
                )
        states = [net.state_dict() for net in networks]
        stacked = {
            name: np.stack([state[name] for state in states])
            for name in states[0]
        }
        return cls(cfg, stacked)

    @property
    def n_records(self) -> int:
        return self._n_records

    def state_for(self, record: int) -> Dict[str, np.ndarray]:
        """Record ``record``'s parameters as a ``SpAcLUNet`` state dict."""
        if not 0 <= record < self._n_records:
            raise ShapeError(
                f"record {record} out of range for batch of {self._n_records}"
            )
        return {
            name: p.data[record].copy()
            for name, p in self._parameters.items()
        }

    def load_state_for(self, record: int,
                       state: Mapping[str, np.ndarray]) -> None:
        """Load one record's parameters from a ``SpAcLUNet`` state dict.

        The inverse of :meth:`state_for` — this is how warm starts from
        the prior zoo's :class:`repro.nn.zoo.FitCache` reach individual
        records of a stacked fit.  Names and per-record shapes must
        match the template architecture exactly.
        """
        if not 0 <= record < self._n_records:
            raise ShapeError(
                f"record {record} out of range for batch of {self._n_records}"
            )
        own = self._parameters
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise SerializationError(
                f"warm-start state dict mismatch for record {record}: "
                f"missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape[1:]:
                raise ShapeError(
                    f"parameter {name!r}: warm-start shape {value.shape} "
                    f"does not match record shape {param.data.shape[1:]}"
                )
            param.data[record] = value.astype(param.data.dtype, copy=False)

    def compact(self, keep: np.ndarray) -> None:
        """Drop records, keeping only indices ``keep`` (in order)."""
        keep = np.asarray(keep, dtype=np.intp)
        for p in self._parameters.values():
            p.data = np.ascontiguousarray(p.data[keep])
            p.grad = None
        self._n_records = int(keep.size)
        # Workspace shapes changed with the batch size.
        self._workspace.clear()

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def _param(self, name: str) -> Optional[Parameter]:
        return self._parameters.get(name)

    def _conv(self, name: str, x: Tensor) -> Tensor:
        weight = self._param(name + ".weight")
        bias = self._param(name + ".bias")
        if weight.ndim == 5 and weight.shape[3:] == (self.cfg.n_harmonics,
                                                     self.cfg.kernel_time) \
                and self.cfg.conv_kind == "harmonic" \
                and not name.startswith("head"):
            return batched_harmonic_conv2d(
                x, weight, bias,
                anchor=self.cfg.anchor,
                time_dilation=self.cfg.time_dilation,
                workspace=self._workspace, key=name,
            )
        padding = 1 if weight.shape[-1] == 3 else 0
        return batched_conv2d(
            x, weight, bias, padding=padding,
            workspace=self._workspace, key=name,
        )

    def _block(self, prefix: str, x: Tensor) -> Tensor:
        for stage in (0, 3):
            x = self._conv(f"{prefix}.body.{stage}", x)
            x = batched_instance_norm(
                x,
                self._param(f"{prefix}.body.{stage + 1}.weight"),
                self._param(f"{prefix}.body.{stage + 1}.bias"),
            )
            x = x.leaky_relu(0.1)
        return x

    def forward(self, z: Tensor) -> Tensor:
        if z.ndim != 4:
            raise ShapeError(f"BatchedSpAcLUNet expects 4-D input, got {z.shape}")
        if z.shape[0] != self._n_records:
            raise ShapeError(
                f"input has {z.shape[0]} records but the stack holds "
                f"{self._n_records}"
            )
        if z.shape[1] != self.cfg.in_channels:
            raise ShapeError(
                f"BatchedSpAcLUNet configured for {self.cfg.in_channels} "
                f"input channels, got {z.shape[1]}"
            )
        pool_kernel = (2, 2) if self.cfg.freq_pooling else (1, 2)
        skips: List[Tensor] = []
        x = z
        for level in range(self.cfg.depth):
            x = self._block(f"encoders.{level}", x)
            skips.append(x)
            x = F.max_pool2d(x, pool_kernel)
        x = self._block("bottleneck", x)
        for position, level in enumerate(reversed(range(self.cfg.depth))):
            skip = skips[level]
            x = F.upsample_nearest(x, pool_kernel)
            x = _crop_or_pad(x, 2, skip.shape[2])
            x = _crop_or_pad(x, 3, skip.shape[3])
            x = concatenate([skip, x], axis=1)
            x = self._block(f"decoders.{position}", x)
        return self._conv("head", x).sigmoid()


# --------------------------------------------------------------------- #
# The fit engine
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EarlyStopConfig:
    """Per-record convergence criterion for :func:`fit_batched`.

    A record *improves* when its visible-region loss drops below
    ``best * (1 - rel_tol)``.  After ``patience`` consecutive iterations
    without improvement (and at least ``min_iterations`` total) the
    record stops: its output rolls back to the best-loss iteration
    (``stop_iteration``) and it is compacted out of the running batch.
    By construction no later recorded loss is below the one at
    ``stop_iteration``.
    """

    patience: int = 25
    rel_tol: float = 1e-3
    min_iterations: int = 10

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigurationError(
                f"patience must be >= 1, got {self.patience}"
            )
        if not 0.0 <= self.rel_tol < 1.0:
            raise ConfigurationError(
                f"rel_tol must be in [0, 1), got {self.rel_tol}"
            )
        if self.min_iterations < 0:
            raise ConfigurationError(
                f"min_iterations must be >= 0, got {self.min_iterations}"
            )


@dataclass
class BatchFitResult:
    """Raw engine output, index-aligned with the input batch.

    ``outputs`` are network-space (normalised, sigmoid-bounded) maps;
    callers undo their own normalisation.  ``stop_iterations[r]`` is the
    best-loss iteration a record rolled back to when early stopping
    triggered, else ``None`` (the record ran every iteration and
    ``outputs[r]`` is its final prediction, exactly as the sequential
    loop returns).
    """

    outputs: np.ndarray
    losses: List[np.ndarray]
    stop_iterations: List[Optional[int]]
    state_dicts: List[Dict[str, np.ndarray]]
    concealed_errors: Optional[List[np.ndarray]] = None


class _StackedAdam(Adam):
    """:class:`repro.nn.optim.Adam` plus record-axis compaction.

    Inheriting (rather than re-implementing) the fused in-place update
    keeps the batched trajectory elementwise-identical to the sequential
    optimiser by construction — the equivalence tolerance documented in
    ``docs/architecture.md`` depends on the two never drifting apart.
    The moment buffers live for the whole fit and are sliced here when
    records drop out of the batch.
    """

    def compact(self, keep: np.ndarray) -> None:
        keep = np.asarray(keep, dtype=np.intp)
        self._m = [np.ascontiguousarray(m[keep]) for m in self._m]
        self._v = [np.ascontiguousarray(v[keep]) for v in self._v]


def fit_batched(
    network: BatchedSpAcLUNet,
    code: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
    iterations: int,
    learning_rate: float,
    early_stop: Optional[EarlyStopConfig] = None,
    reference: Optional[np.ndarray] = None,
    warm_start: Optional[Sequence[Optional[Mapping[str, np.ndarray]]]] = None,
) -> BatchFitResult:
    """Fit every record of a stacked network to its own masked target.

    Parameters
    ----------
    network:
        The stacked per-record networks (mutated in place).
    code:
        Fixed input codes ``(R, C_in, F, T)``.
    target:
        Normalised magnitude targets ``(R, 1, F, T)``.
    mask:
        Visibility masks ``(R, 1, F, T)`` (float; 1 = visible, Eq. 9).
    iterations:
        Maximum optimisation steps per record.
    early_stop:
        Optional per-record convergence criterion; ``None`` runs every
        record for all ``iterations`` (matching the sequential loop).
    reference:
        Optional normalised ground-truth magnitudes ``(R, F, T)``; when
        given, the concealed-region MSE is tracked per iteration (the
        Fig. 3 diagnostic).
    warm_start:
        Optional per-record ``SpAcLUNet`` state dicts (length R, entries
        may be ``None``) loaded over the stacked initialisation before
        the first iteration — the prior-zoo warm-start hook.  Records
        with ``None`` keep their seeded random init.
    """
    n_total = network.n_records
    if code.shape[0] != n_total or target.shape[0] != n_total \
            or mask.shape[0] != n_total:
        raise ShapeError(
            f"code/target/mask record counts "
            f"({code.shape[0]}/{target.shape[0]}/{mask.shape[0]}) must "
            f"match the network stack ({n_total})"
        )
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if warm_start is not None:
        warm_start = list(warm_start)
        if len(warm_start) != n_total:
            raise ShapeError(
                f"warm_start has {len(warm_start)} entries for "
                f"{n_total} records"
            )
        for record, warm in enumerate(warm_start):
            if warm is not None:
                network.load_state_for(record, warm)

    dtype = code.dtype
    n_freq, n_time = target.shape[2], target.shape[3]
    counts = mask.reshape(n_total, -1).sum(axis=1)
    if np.any(counts == 0):
        raise ConfigurationError("mask is all-zero for at least one record")
    inv_counts_all = (1.0 / counts).astype(dtype)

    concealed = None
    if reference is not None:
        if reference.shape != (n_total, n_freq, n_time):
            raise ShapeError(
                f"reference shape {reference.shape} != "
                f"{(n_total, n_freq, n_time)}"
            )
        concealed = mask[:, 0] == 0

    # Per-record bookkeeping, indexed by ORIGINAL record position.
    losses: List[List[float]] = [[] for _ in range(n_total)]
    err_curves: List[List[float]] = [[] for _ in range(n_total)]
    stop_iterations: List[Optional[int]] = [None] * n_total
    outputs = np.empty((n_total, n_freq, n_time), dtype=dtype)
    state_dicts: List[Optional[Dict[str, np.ndarray]]] = [None] * n_total
    # ``best_*`` tracks the strict arg-min (the rollback point), while
    # ``plateau_ref``/``since_improve`` implement the patience rule: only
    # a RELATIVE improvement of rel_tol resets the patience counter.
    best_loss = np.full(n_total, np.inf)
    best_iter = np.full(n_total, -1, dtype=int)
    best_output: List[Optional[np.ndarray]] = [None] * n_total
    best_state: List[Optional[Dict[str, np.ndarray]]] = [None] * n_total
    plateau_ref = np.full(n_total, np.inf)
    since_improve = np.zeros(n_total, dtype=int)
    last_pred: Dict[int, np.ndarray] = {}

    active = np.arange(n_total)
    code_a, target_a, mask_a = code, target, mask
    inv_counts_a = inv_counts_all
    adam = _StackedAdam(network.parameters(), lr=learning_rate)

    def retire(original: int) -> None:
        """Freeze a record's result at its best iteration.

        Output AND weights roll back to the arg-min iteration together,
        so ``InpaintingResult.network`` always reproduces
        ``InpaintingResult.output`` — the same invariant the sequential
        path keeps.
        """
        stop_iterations[original] = int(best_iter[original])
        outputs[original] = best_output[original]
        state_dicts[original] = best_state[original]

    for it in range(iterations):
        adam.zero_grad()
        code_t = Tensor(code_a)
        prediction = network(code_t)
        diff = prediction - target_a
        masked_sq = diff * diff * mask_a
        per_record = masked_sq.sum(axis=(1, 2, 3))
        total = (per_record * inv_counts_a).sum()
        total.backward()
        adam.step()

        pred_maps = prediction.data[:, 0]
        loss_values = per_record.data * inv_counts_a
        to_drop: List[int] = []
        for local, original in enumerate(active):
            loss = float(loss_values[local])
            losses[original].append(loss)
            last_pred[original] = pred_maps[local]
            if concealed is not None:
                sel = concealed[original]
                if sel.any():
                    delta = pred_maps[local][sel] - reference[original][sel]
                    err_curves[original].append(float(np.mean(delta ** 2)))
                else:
                    err_curves[original].append(0.0)
            if early_stop is None:
                continue
            # The first iteration is an unconditional snapshot: even a
            # diverged (NaN) fit then has a well-defined rollback point
            # instead of retiring with nothing recorded.
            if best_iter[original] < 0 or loss < best_loss[original]:
                best_loss[original] = loss
                best_iter[original] = it
                best_output[original] = pred_maps[local].copy()
                # Weights are snapshotted post-step, the same one-step-
                # ahead convention the sequential loop's final network has
                # relative to its final prediction.
                best_state[original] = network.state_for(local)
            if loss < plateau_ref[original] * (1.0 - early_stop.rel_tol):
                plateau_ref[original] = loss
                since_improve[original] = 0
            else:
                since_improve[original] += 1
                if len(losses[original]) >= early_stop.min_iterations \
                        and since_improve[original] >= early_stop.patience:
                    to_drop.append(local)

        if to_drop:
            for local in to_drop:
                retire(int(active[local]))
            keep = np.setdiff1d(
                np.arange(active.size), np.asarray(to_drop, dtype=int)
            )
            active = active[keep]
            if active.size == 0:
                break
            network.compact(keep)
            adam.compact(keep)
            code_a = np.ascontiguousarray(code_a[keep])
            target_a = np.ascontiguousarray(target_a[keep])
            mask_a = np.ascontiguousarray(mask_a[keep])
            inv_counts_a = np.ascontiguousarray(inv_counts_a[keep])

    # Records still running when the budget ran out keep their LAST
    # prediction, exactly as the sequential loop does (``stop_iterations``
    # stays None for them).
    for local, original in enumerate(active):
        outputs[original] = last_pred[original]
        state_dicts[original] = network.state_for(local)

    return BatchFitResult(
        outputs=outputs,
        losses=[np.asarray(curve) for curve in losses],
        stop_iterations=stop_iterations,
        state_dicts=state_dicts,
        concealed_errors=(
            [np.asarray(curve) for curve in err_curves]
            if concealed is not None else None
        ),
    )
