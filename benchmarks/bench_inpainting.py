"""E-P2 benchmark: batched deep-prior fitting vs the sequential loop.

The DHF hot path is the deep-prior in-painting fit (paper Sec. 3.3,
Eq. 9): one randomly initialised SpAc LU-Net optimised against the
visible cells of each pattern-aligned spectrogram.  This benchmark fits a
batch of synthetic harmonic spectrograms along three code paths:

``sequential-loop``
    The historical per-record engine, kept here as :func:`run_sequential`:
    one :class:`repro.nn.unet.SpAcLUNet` per record over
    :func:`repro.nn.functional.harmonic_conv2d`, optimised by
    :class:`repro.nn.optim.Adam` on :func:`repro.nn.loss.masked_mse_loss`,
    each building its own autograd graph per iteration.  The package no
    longer fits this way; the loop is the baseline of the speed gate.

``single-record``
    One :func:`repro.core.inpainting.inpaint_spectrogram` call per record:
    the stacked engine at K=1, which is how every single DHF fit runs.

``batched-engine``
    One :func:`repro.core.inpainting.inpaint_spectrograms` call: the
    per-record networks are stacked into a
    :class:`repro.nn.batchfit.BatchedSpAcLUNet` and advanced by a single
    forward/backward/Adam step per iteration, with cached gather/tap
    plans and reused workspaces.

All paths run the *same* per-record seeds at the *same* iteration count,
so the batched results must match the sequential fits within the
documented tolerance (float64 fits: ``<= 1e-8`` max absolute output
deviation; see docs/architecture.md "Deep-prior fitting engine").  The
default 8-record run asserts the batched engine is at least 2x faster
than the sequential loop; the stacked-vs-K-single-record ratio (the
stacking gain alone, apart from the engine gain) is reported without a
gate.  ``--smoke`` runs a small fast batch, checks equality, and reports
the speedups without asserting them (timing on tiny fits is
noise-dominated).

The module also demonstrates per-record early stopping: with an
:class:`repro.nn.batchfit.EarlyStopConfig`, converged records drop out of
the batch and the engine reports their rollback iterations.

Run:  PYTHONPATH=src python benchmarks/bench_inpainting.py [--smoke]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.core.inpainting import (
    InpaintingConfig,
    _clamp_dilation,
    _normalize,
    _restore,
    inpaint_spectrogram,
    inpaint_spectrograms,
)
from repro.nn.batchfit import EarlyStopConfig
from repro.nn.loss import masked_mse_loss
from repro.nn.optim import Adam
from repro.nn.unet import SpAcLUNet
from repro.utils.seeding import as_generator, spawn_generators

N_FREQ = 33
N_FRAMES = 40
#: Documented equivalence tolerance of the batched engine for float64
#: fits (see docs/architecture.md, "Deep-prior fitting engine").
OUTPUT_ATOL = 1e-8


def fit_config(iterations: int) -> InpaintingConfig:
    """A smoke-preset-scale fit configuration (float64 for tight equality)."""
    return InpaintingConfig(
        iterations=iterations, learning_rate=8e-3, base_channels=6,
        depth=2, in_channels=8, time_dilation=5, dtype=np.float64,
    )


def build_batch(n_records: int, seed: int = 0) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Synthetic pattern-aligned magnitudes with concealed time bands.

    Each record has a few harmonic ridges with drifting amplitude (what a
    quasi-periodic source looks like after pattern alignment) and a
    visibility mask concealing two interference bands — the situation
    Eq. 9 in-paints.
    """
    rng = np.random.default_rng(seed)
    magnitudes, visibilities = [], []
    frames = np.arange(N_FRAMES)
    for _ in range(n_records):
        magnitude = np.full((N_FREQ, N_FRAMES), 0.01)
        for harmonic in (4, 8, 12, 16):
            amplitude = 1.0 + 0.3 * np.sin(
                frames / rng.uniform(3.0, 6.0) + rng.uniform(0, 6)
            )
            magnitude[harmonic] += amplitude
        visibility = np.ones((N_FREQ, N_FRAMES), dtype=bool)
        start = rng.integers(4, 10)
        visibility[:, start: start + 6] = False
        start = rng.integers(22, 28)
        visibility[:, start: start + 5] = False
        magnitudes.append(magnitude)
        visibilities.append(visibility)
    return magnitudes, visibilities


def sequential_fit(magnitude, visibility, config, rng):
    """One record through the historical per-record fit loop.

    Seeds, normalisation and the restored output follow
    :func:`repro.core.inpainting.inpaint_spectrogram` exactly; only the
    engine differs.  Returns ``(output, losses)``.
    """
    rng_init, rng_code = spawn_generators(as_generator(rng), 2)
    n_freq, n_frames = magnitude.shape
    normalized, scale = _normalize(magnitude, config)
    dilation = _clamp_dilation(config.time_dilation, n_frames)
    network = SpAcLUNet(
        replace(config, time_dilation=dilation).network_config(),
        rng=rng_init, dtype=config.dtype,
    )
    code = network.make_input_code(
        n_freq, n_frames, rng=rng_code, scale=config.input_scale,
        dtype=config.dtype,
    )
    target = normalized[None, None]
    mask = visibility.astype(config.dtype)[None, None]
    optimizer = Adam(network.parameters(), lr=config.learning_rate)
    losses = np.empty(config.iterations)
    for it in range(config.iterations):
        optimizer.zero_grad()
        prediction = network(code)
        loss = masked_mse_loss(prediction, target, mask)
        loss.backward()
        optimizer.step()
        losses[it] = float(loss.data)
    return _restore(prediction.data[0, 0], scale, config), losses


def run_sequential(magnitudes, visibilities, config) -> list:
    """One fit per record through the historical per-record loop."""
    return [
        sequential_fit(mag, vis, config, rng=k)
        for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
    ]


def run_single(magnitudes, visibilities, config) -> list:
    """One K=1 stacked-engine fit per record (same seeds)."""
    return [
        inpaint_spectrogram(mag, vis, config, rng=k)
        for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
    ]


def run_batched(magnitudes, visibilities, config, early_stop=None) -> list:
    """All records through one stacked batched fit (same seeds)."""
    return [
        *inpaint_spectrograms(
            magnitudes, visibilities, config,
            rngs=list(range(len(magnitudes))), early_stop=early_stop,
        )
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=8,
                        help="batch size (default 8)")
    parser.add_argument("--iterations", type=int, default=50,
                        help="fit iterations per record (default 50)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run: correctness + report, no "
                             "speedup assertion")
    args = parser.parse_args(argv)
    if args.records < 1:
        parser.error("--records must be >= 1")
    if args.iterations < 2:
        parser.error("--iterations must be >= 2")

    if args.smoke:
        args.records = min(args.records, 4)
        args.iterations = min(args.iterations, 12)

    config = fit_config(args.iterations)
    magnitudes, visibilities = build_batch(args.records)
    print(
        f"bench_inpainting: {args.records} records x {N_FREQ}x{N_FRAMES} "
        f"cells, {args.iterations} iterations, base_channels="
        f"{config.base_channels}, depth={config.depth}"
    )

    start = time.perf_counter()
    sequential = run_sequential(magnitudes, visibilities, config)
    t_seq = time.perf_counter() - start

    start = time.perf_counter()
    single = run_single(magnitudes, visibilities, config)
    t_single = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_batched(magnitudes, visibilities, config)
    t_bat = time.perf_counter() - start

    err = max(
        float(np.abs(output - b.output).max())
        for (output, _), b in zip(sequential, batched)
    )
    loss_err = max(
        float(np.abs(losses - b.losses).max())
        for (_, losses), b in zip(sequential, batched)
    )
    single_err = max(
        float(np.abs(s.output - b.output).max())
        for s, b in zip(single, batched)
    )
    speedup = t_seq / t_bat
    print(f"  sequential loop       : {t_seq * 1e3:8.1f} ms")
    label = f"{args.records} x single-record"
    print(f"  {label:<22}: {t_single * 1e3:8.1f} ms")
    print(f"  batched engine        : {t_bat * 1e3:8.1f} ms")
    print(f"  speedup               : {speedup:8.2f}x (vs sequential loop)")
    print(f"  stacking gain         : {t_single / t_bat:8.2f}x "
          f"(vs {args.records} x single-record, not gated)")
    print(f"  max |batched - seq|   : {err:8.2e} (output), "
          f"{loss_err:.2e} (loss curves)")
    print(f"  max |batched - single|: {single_err:8.2e} (output)")

    assert err <= OUTPUT_ATOL, (
        f"batched fit diverged from sequential: {err:.2e} > {OUTPUT_ATOL:.0e}"
    )
    assert single_err <= OUTPUT_ATOL, (
        f"batched fit diverged from single-record fits: {single_err:.2e} > "
        f"{OUTPUT_ATOL:.0e}"
    )
    if not args.smoke:
        assert speedup >= 2.0, (
            f"batched engine only {speedup:.2f}x faster (target >= 2x)"
        )

    # Early stopping demo: at a long budget, converged records drop out
    # of the batch instead of burning iterations on a flat loss (a short
    # budget never plateaus — the fit above improves every iteration).
    demo_config = fit_config(4 * args.iterations)
    demo_records = min(4, args.records)
    early = EarlyStopConfig(patience=8, rel_tol=1e-3, min_iterations=20)
    start = time.perf_counter()
    stopped = run_batched(
        magnitudes[:demo_records], visibilities[:demo_records],
        demo_config, early_stop=early,
    )
    t_early = time.perf_counter() - start
    stops = [
        "full" if fit.stop_iteration is None else str(fit.stop_iteration)
        for fit in stopped
    ]
    n_stopped = sum(fit.stop_iteration is not None for fit in stopped)
    print(
        f"  early stopping        : {t_early * 1e3:8.1f} ms for "
        f"{demo_records} records x {demo_config.iterations} iterations "
        f"({n_stopped} stopped early; rollback iterations: "
        f"{', '.join(stops)})"
    )
    for fit in stopped:
        if fit.stop_iteration is not None:
            tail = fit.losses[fit.stop_iteration:]
            assert tail.min() >= fit.losses[fit.stop_iteration], \
                "rollback iteration is not the recorded loss minimum"
    print("bench_inpainting: OK")
    return 0


def test_bench_inpainting(benchmark):
    """pytest-benchmark entry point (explicit path collection only)."""
    config = fit_config(10)
    magnitudes, visibilities = build_batch(4)
    sequential = run_sequential(magnitudes, visibilities, config)
    batched = benchmark.pedantic(
        run_batched, args=(magnitudes, visibilities, config),
        rounds=1, iterations=1,
    )
    err = max(
        float(np.abs(output - b.output).max())
        for (output, _), b in zip(sequential, batched)
    )
    assert err <= OUTPUT_ATOL


if __name__ == "__main__":
    raise SystemExit(main())
