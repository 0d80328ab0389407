"""Property tests for the batched in-painting API and its edge cases.

The contracts pinned here are the ones the fit engine documents
(docs/architecture.md, "Deep-prior fitting engine"):

* seeded determinism — same rngs, same results, one-record or batched;
* the frozen per-record reference: float64 fits reproduce the outputs,
  loss curves and concealed-region errors of the retired per-record
  ``SpAcLUNet`` + ``Adam`` loop (``golden/inpainting_sequential_f64.json``)
  to ``<= 1e-8``, whether fitted alone (K=1) or stacked;
* one-record-vs-batched equivalence at a fixed iteration count (float64
  fits agree to ``<= 1e-8`` max absolute output deviation);
* early stopping rolls each record back to its recorded loss minimum, so
  no recorded loss after ``stop_iteration`` is below it;
* degenerate inputs (all-visible and all-concealed masks, zero-length or
  single-frame spectrograms) raise :class:`repro.errors.DataError`
  instead of silently fitting noise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DHFConfig,
    DHFSeparator,
    EarlyStopConfig,
    InpaintingConfig,
    inpaint_spectrogram,
    inpaint_spectrograms,
)
from repro.errors import ConfigurationError, DataError, ShapeError
from repro.synth import make_mixture

#: float64 keeps the fit trajectories numerically locked to the frozen
#: per-record reference for the whole fit (float32 fits decorrelate
#: after ~50 iterations; see the architecture docs).
TINY64 = InpaintingConfig(
    iterations=30, learning_rate=1e-2, base_channels=4, depth=2,
    in_channels=4, time_dilation=3, dtype=np.float64,
)

#: Documented batched-vs-sequential output tolerance for float64 fits.
BATCH_ATOL = 1e-8

#: Outputs, loss curves and concealed-region errors of the retired
#: per-record fit loop (``run_sequential`` in
#: ``benchmarks/bench_inpainting.py`` keeps that loop) on the TINY64
#: cases below, recorded before every fit moved to the stacked engine.
#: The loop no longer exists in the package, so this file is frozen:
#: it is the old engine's contract kept as data.
SEQUENTIAL_GOLDEN = (
    Path(__file__).parent / "golden" / "inpainting_sequential_f64.json"
)


def harmonic_batch(n_records, n_freq=33, n_frames=24, seed=0):
    """Synthetic harmonic-ridge magnitudes with concealed time bands."""
    rng = np.random.default_rng(seed)
    magnitudes, visibilities = [], []
    for _ in range(n_records):
        magnitude = np.full((n_freq, n_frames), 0.01)
        for harmonic in (4, 8, 12, 16):
            magnitude[harmonic] += 1.0 + 0.2 * np.sin(
                np.arange(n_frames) / rng.uniform(3, 5)
            )
        visibility = np.ones((n_freq, n_frames), dtype=bool)
        start = int(rng.integers(6, 12))
        visibility[:, start: start + 6] = False
        magnitudes.append(magnitude)
        visibilities.append(visibility)
    return magnitudes, visibilities


class TestSeededDeterminism:
    def test_batched_runs_identical(self):
        magnitudes, visibilities = harmonic_batch(3)
        first = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[5, 6, 7]
        )
        second = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[5, 6, 7]
        )
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.output, b.output)
            np.testing.assert_array_equal(a.losses, b.losses)

    def test_different_seeds_differ(self):
        magnitudes, visibilities = harmonic_batch(2)
        a, b = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[1, 2]
        )
        assert np.abs(a.output - b.output).max() > 0


class TestFrozenSequentialReference:
    """The stacked engine reproduces the retired per-record loop."""

    @pytest.fixture(scope="class")
    def golden(self):
        golden = json.loads(SEQUENTIAL_GOLDEN.read_text())
        config = golden["config"]
        assert config["iterations"] == TINY64.iterations
        assert config["learning_rate"] == TINY64.learning_rate
        assert config["base_channels"] == TINY64.base_channels
        assert config["depth"] == TINY64.depth
        assert config["in_channels"] == TINY64.in_channels
        assert config["time_dilation"] == TINY64.time_dilation
        cases = golden["cases"]
        # Both output paths are pinned: with and without ``reference=``.
        assert {case["reference"] for case in cases} == {True, False}
        return cases

    @staticmethod
    def assert_matches(fit, case):
        assert fit.scale == case["scale"]
        for name in ("output", "losses", "concealed_errors"):
            if name not in case:
                assert getattr(fit, name) is None
                continue
            expected = np.asarray(case[name])
            got = getattr(fit, name)
            assert got.shape == expected.shape, name
            assert np.abs(got - expected).max() <= BATCH_ATOL, name

    def test_single_record_fit_matches_golden(self, golden):
        for case in golden:
            magnitudes, visibilities = harmonic_batch(case["batch"])
            k = case["record"]
            fit = inpaint_spectrogram(
                magnitudes[k], visibilities[k], TINY64, rng=case["rng"],
                reference=magnitudes[k] if case["reference"] else None,
            )
            self.assert_matches(fit, case)

    def test_stacked_fit_matches_golden(self, golden):
        for case in golden:
            magnitudes, visibilities = harmonic_batch(case["batch"])
            rngs = list(range(case["batch"]))
            rngs[case["record"]] = case["rng"]
            fits = inpaint_spectrograms(
                magnitudes, visibilities, TINY64, rngs=rngs,
                references=magnitudes if case["reference"] else None,
            )
            self.assert_matches(fits[case["record"]], case)


class TestBatchedSequentialEquivalence:
    def test_outputs_match_within_documented_tolerance(self):
        magnitudes, visibilities = harmonic_batch(4)
        sequential = [
            inpaint_spectrogram(mag, vis, TINY64, rng=20 + k)
            for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
        ]
        batched = inpaint_spectrograms(
            magnitudes, visibilities, TINY64,
            rngs=[20 + k for k in range(4)],
        )
        for seq, bat in zip(sequential, batched):
            assert np.abs(seq.output - bat.output).max() <= BATCH_ATOL
            assert np.abs(seq.losses - bat.losses).max() <= BATCH_ATOL
            assert seq.losses.size == bat.losses.size == TINY64.iterations
            assert bat.stop_iteration is None
            assert bat.scale == pytest.approx(seq.scale)

    def test_fitted_networks_match(self):
        magnitudes, visibilities = harmonic_batch(2)
        seq = inpaint_spectrogram(magnitudes[0], visibilities[0], TINY64,
                                  rng=3)
        bat = inpaint_spectrograms(magnitudes, visibilities, TINY64,
                                   rngs=[3, 4])[0]
        for name, value in seq.network.state_dict().items():
            got = bat.network.state_dict()[name]
            assert np.abs(got - value).max() <= BATCH_ATOL, name

    def test_concealed_error_tracking_matches(self):
        magnitudes, visibilities = harmonic_batch(2)
        sequential = [
            inpaint_spectrogram(mag, vis, TINY64, rng=k, reference=mag)
            for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
        ]
        batched = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[0, 1],
            references=magnitudes,
        )
        for seq, bat in zip(sequential, batched):
            assert bat.concealed_errors is not None
            np.testing.assert_allclose(
                bat.concealed_errors, seq.concealed_errors, atol=BATCH_ATOL
            )


class TestEarlyStoppingMonotonicity:
    def test_loss_never_below_recorded_stop(self):
        magnitudes, visibilities = harmonic_batch(3)
        early = EarlyStopConfig(patience=2, rel_tol=0.5, min_iterations=1)
        results = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[1, 2, 3],
            early_stop=early,
        )
        for fit in results:
            assert fit.stop_iteration is not None
            assert fit.losses.size < TINY64.iterations
            assert fit.stop_iteration == int(np.argmin(fit.losses))
            tail = fit.losses[fit.stop_iteration:]
            assert tail.min() >= fit.losses[fit.stop_iteration]

    def test_disabled_early_stop_runs_full_budget(self):
        magnitudes, visibilities = harmonic_batch(1, seed=9)
        # A 1-record batch still exercises the stacked engine directly.
        fit = inpaint_spectrograms(magnitudes, visibilities, TINY64,
                                   rngs=[0])[0]
        assert fit.losses.size == TINY64.iterations
        assert fit.stop_iteration is None


class TestEdgeCases:
    @pytest.fixture
    def record(self):
        magnitudes, visibilities = harmonic_batch(1)
        return magnitudes[0], visibilities[0]

    def test_all_visible_raises(self, record):
        magnitude, _ = record
        all_visible = np.ones_like(magnitude, dtype=bool)
        with pytest.raises(DataError, match="nothing to in-paint"):
            inpaint_spectrogram(magnitude, all_visible, TINY64)
        with pytest.raises(DataError, match="nothing to in-paint"):
            inpaint_spectrograms([magnitude], [all_visible], TINY64)

    def test_all_concealed_raises(self, record):
        magnitude, _ = record
        concealed = np.zeros_like(magnitude, dtype=bool)
        with pytest.raises(DataError, match="conceals everything"):
            inpaint_spectrogram(magnitude, concealed, TINY64)
        with pytest.raises(DataError, match="conceals everything"):
            inpaint_spectrograms([magnitude], [concealed], TINY64)

    @pytest.mark.parametrize("n_frames", [0, 1])
    def test_degenerate_frame_axis_raises(self, n_frames):
        magnitude = np.ones((8, n_frames))
        visibility = np.ones((8, n_frames), dtype=bool)
        with pytest.raises(DataError):
            inpaint_spectrogram(magnitude, visibility, TINY64)
        with pytest.raises(DataError):
            inpaint_spectrograms([magnitude], [visibility], TINY64)

    def test_empty_batch_raises(self):
        with pytest.raises(ConfigurationError):
            inpaint_spectrograms([], [], TINY64)

    def test_mismatched_batch_shapes_raise(self, record):
        magnitude, visibility = record
        other = magnitude[:, :12]
        with pytest.raises(ShapeError, match="group records"):
            inpaint_spectrograms(
                [magnitude, other], [visibility, visibility[:, :12]], TINY64
            )

    def test_mismatched_lengths_raise(self, record):
        magnitude, visibility = record
        with pytest.raises(ShapeError):
            inpaint_spectrograms([magnitude], [visibility, visibility],
                                 TINY64)
        with pytest.raises(ShapeError):
            inpaint_spectrograms([magnitude], [visibility], TINY64,
                                 rngs=[1, 2])
        with pytest.raises(ShapeError):
            inpaint_spectrograms([magnitude], [visibility], TINY64,
                                 references=[magnitude, magnitude])


class TestDHFBatchedSeparation:
    """DHF routing: sibling records share batched fits, semantics hold."""

    @pytest.fixture(scope="class")
    def mixtures(self):
        return [
            make_mixture("msig1", duration_s=10.0, seed=s) for s in (1, 2)
        ]

    def test_batch_matches_sequential_records(self, mixtures):
        # Stacked fits give every record its one-record (K=1) result, so
        # grouping is a pure speed choice: float32 outputs match bitwise.
        dhf = DHFSeparator(DHFConfig.from_preset("smoke"))
        fs = mixtures[0].sampling_hz
        mixed = [m.mixed for m in mixtures]
        tracks = [m.f0_tracks for m in mixtures]
        sequential = [dhf.separate(x, fs, t) for x, t in zip(mixed, tracks)]
        batched = dhf.separate_batch(mixed, fs, tracks)
        for seq, bat in zip(sequential, batched):
            assert set(seq) == set(bat)
            for source in seq:
                np.testing.assert_array_equal(bat[source], seq[source])

    def test_single_record_batch_is_bitwise_sequential(self, mixtures):
        dhf = DHFSeparator(DHFConfig.from_preset("smoke"))
        m = mixtures[0]
        direct = dhf.separate(m.mixed, m.sampling_hz, m.f0_tracks)
        batch = dhf.separate_batch([m.mixed], m.sampling_hz, [m.f0_tracks])
        for source in direct:
            np.testing.assert_array_equal(batch[0][source], direct[source])

    def test_detailed_batch_carries_diagnostics(self, mixtures):
        dhf = DHFSeparator(DHFConfig.from_preset("smoke"))
        fs = mixtures[0].sampling_hz
        results = dhf.separate_batch_detailed(
            [m.mixed for m in mixtures], fs,
            [m.f0_tracks for m in mixtures],
            reference_sources_batch=[m.sources for m in mixtures],
        )
        assert len(results) == len(mixtures)
        for result, mixture in zip(results, mixtures):
            assert set(result.estimates) == set(mixture.f0_tracks)
            assert len(result.rounds) == len(mixture.f0_tracks)
            for round_result in result.rounds:
                assert round_result.masked_energy_ratio is not None
            total = result.residual + sum(result.estimates.values())
            np.testing.assert_allclose(total, mixture.mixed, atol=1e-9)

    def test_config_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            DHFConfig(early_stop_patience=-1)
        with pytest.raises(ConfigurationError):
            DHFConfig(early_stop_patience=5, early_stop_rel_tol=2.0)
        cfg = DHFConfig(early_stop_patience=5)
        assert cfg.early_stop() == EarlyStopConfig(patience=5, rel_tol=1e-3)
        assert DHFConfig().early_stop() is None
