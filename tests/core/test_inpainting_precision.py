"""Short-horizon float32 deep-prior fits against the float64 reference.

Long fits legitimately diverge (the optimisation is chaotic), so the
documented bound (docs/architecture.md, "Precision") is short-horizon.
"""

import numpy as np
import pytest

from repro.core.inpainting import (
    InpaintingConfig,
    inpaint_spectrogram,
    inpaint_spectrograms,
)

#: Max relative output deviation of a short float32 fit (matches
#: benchmarks/bench_substrates.py).
FIT_F32_RTOL = 5e-2


def small_config(iterations=12, dtype=np.float64):
    return InpaintingConfig(
        iterations=iterations, learning_rate=8e-3, base_channels=4,
        depth=1, in_channels=4, time_dilation=3, dtype=dtype,
    )


def small_problem(n_records=2, seed=7):
    rng = np.random.default_rng(seed)
    magnitudes, visibilities = [], []
    for _ in range(n_records):
        magnitude = np.full((17, 24), 0.01)
        magnitude[4] += 1.0 + 0.2 * np.sin(np.arange(24) / 3.0)
        magnitude[8] += 0.7
        visibility = np.ones((17, 24), dtype=bool)
        start = int(rng.integers(4, 14))
        visibility[:, start: start + 5] = False
        magnitudes.append(magnitude)
        visibilities.append(visibility)
    return magnitudes, visibilities


def relative_deviation(ref, out) -> float:
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(out - ref).max()) / scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fit_runs_in_config_dtype_and_is_reproducible(dtype):
    # The random initialisation is the prior, so a seeded fit must
    # repeat bit for bit at either precision.
    magnitudes, visibilities = small_problem(1)
    config = small_config(dtype=dtype)
    first = inpaint_spectrogram(magnitudes[0], visibilities[0], config, rng=0)
    again = inpaint_spectrogram(magnitudes[0], visibilities[0], config, rng=0)
    assert all(p.data.dtype == dtype for p in first.network.parameters())
    assert first.output.dtype == np.float64
    np.testing.assert_array_equal(first.output, again.output)
    np.testing.assert_array_equal(first.losses, again.losses)


def test_f32_fit_tracks_f64_short_horizon():
    magnitudes, visibilities = small_problem(1)
    reference = inpaint_spectrogram(
        magnitudes[0], visibilities[0], small_config(), rng=0
    )
    fast = inpaint_spectrogram(
        magnitudes[0], visibilities[0], small_config(dtype=np.float32),
        rng=0,
    )
    # The restored output is float64 at either precision; the fitted
    # weights are the evidence the fit ran in float32.
    assert fast.network.parameters()[0].data.dtype == np.float32
    assert relative_deviation(reference.output, fast.output) <= FIT_F32_RTOL


def test_f32_stacked_matches_single_record_fits():
    magnitudes, visibilities = small_problem(2)
    config = small_config(iterations=10, dtype=np.float32)
    singles = [
        inpaint_spectrogram(mag, vis, config, rng=k)
        for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
    ]
    stacked = inpaint_spectrograms(
        magnitudes, visibilities, config, rngs=[0, 1]
    )
    worst = max(
        relative_deviation(s.output, b.output)
        for s, b in zip(singles, stacked)
    )
    assert worst <= FIT_F32_RTOL
