"""Harmonic spectral masking (Gerkmann & Vincent 2018) — the strongest
prior method in Table 2 and the state of the art the in-vivo study compares
against (Vali et al. 2021).

Each source is extracted by applying its harmonic ridge mask directly to
the mixed STFT — no alignment, no in-painting.  Where ridges of two sources
cross, both masks claim the same cells, so interference leaks into the
estimates; that leakage at overlaps is precisely the failure mode DHF's
in-painting repairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.baselines.base import Separator
from repro.core.masking import (
    BandwidthSpec,
    default_bandwidth,
    f0_spread_per_frame,
    f0_track_to_frames,
    harmonic_ridge_mask,
)
from repro.dsp.plan import cache_friendly_chunk, get_stft_plan
from repro.dsp.stft import istft, istft_batch, stft, stft_batch


@dataclass
class SpectralMaskingSeparator(Separator):
    """Binary harmonic-comb masking of the mixture spectrogram.

    Parameters
    ----------
    n_harmonics:
        Harmonics per source comb.
    n_fft_seconds:
        STFT window length in seconds (the paper uses 60 s windows at the
        full 5-minute scale; shorter presets scale this down).
    hop_fraction:
        Hop as a fraction of the window (0.25 matches the paper's
        60 s / 15 s choice).
    bandwidth:
        Ridge half-width spec; defaults to :func:`default_bandwidth`.
    exclusive:
        If true (default), cells claimed by several sources go only to the
        source whose ridge centre is nearest.  This is the stronger variant
        and matches the behaviour of the state of the art the paper
        compares against ([18]); it still discards/corrupts overlap
        content — the failure DHF repairs.  ``False`` gives the naive
        leaky variant.
    """

    n_harmonics: int = 6
    n_fft_seconds: float = 12.0
    hop_fraction: float = 0.25
    bandwidth: Optional[BandwidthSpec] = None
    exclusive: bool = True

    name: str = "Spect. Masking"

    def stft_geometry(self, sampling_hz: float, n_samples: int) -> tuple:
        """``(n_fft, hop)`` this separator uses for a record of a given size.

        Public because streaming callers need it: for frame-exact
        equivalence with the offline path, a
        :class:`repro.streaming.StreamingSeparator` wrapping this method
        should use a segment advance that is a multiple of ``hop`` and a
        segment overlap of at least ``n_fft + hop`` (the edge zone a
        segment's virtual zero padding and partial WOLA normalizer can
        contaminate).  Note ``n_fft`` saturates at ``n_samples``, so
        probe it with the segment length, not the full record length.
        """
        n_fft = max(64, int(self.n_fft_seconds * sampling_hz))
        n_fft = min(n_fft, n_samples)
        hop = max(1, int(n_fft * self.hop_fraction))
        return n_fft, hop

    def _build_masks(self, spec, f0_tracks, sampling_hz: float) -> Dict[str, np.ndarray]:
        """Per-source harmonic combs (overlap-resolved when exclusive)."""
        bandwidth = self.bandwidth or default_bandwidth()
        masks = {}
        for name, track in f0_tracks.items():
            frames = f0_track_to_frames(track, sampling_hz, spec)
            spread = f0_spread_per_frame(track, sampling_hz, spec)
            masks[name] = harmonic_ridge_mask(
                spec, frames, self.n_harmonics, bandwidth, f0_spread=spread
            )
        if self.exclusive:
            masks = _resolve_overlaps(spec, f0_tracks, masks, sampling_hz,
                                      self.n_harmonics)
        return masks

    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        n_fft, hop = self.stft_geometry(sampling_hz, mixed.size)
        spec = stft(mixed, sampling_hz, n_fft=n_fft, hop=hop)
        masks = self._build_masks(spec, f0_tracks, sampling_hz)
        estimates = {}
        for name, mask in masks.items():
            estimates[name] = istft(spec.with_values(spec.values * mask))
        return estimates

    def separate_batch(self, mixed_batch, sampling_hz, f0_tracks_batch):
        """Vectorized batch separation for equal-length records.

        One stride-trick :func:`repro.dsp.stft_batch` analyses every
        record at once; masks are built per record (their f0 tracks
        differ) on views of the shared batch; and every ``(record,
        source)`` masked spectrogram is inverted through
        :func:`repro.dsp.istft_batch` in cache-sized chunks, reusing a
        single cached plan and overlap-add normalizer.  Records of
        differing lengths fall back to the per-record base path.
        """
        self._check_batch(mixed_batch, f0_tracks_batch)
        rows = [  # fail before any FFT
            self._validate(mixed, sampling_hz, tracks)
            for mixed, tracks in zip(mixed_batch, f0_tracks_batch)
        ]
        if len({r.size for r in rows}) != 1:
            return super().separate_batch(
                mixed_batch, sampling_hz, f0_tracks_batch
            )

        n = rows[0].size
        n_fft, hop = self.stft_geometry(sampling_hz, n)
        plan = get_stft_plan(n_fft, hop)
        n_frames = plan.n_frames(n)

        # Whole analyse→mask→invert round trips run chunk by chunk so the
        # batch intermediates stay cache-resident at any batch size.
        chunk = max(1, cache_friendly_chunk(n_frames, n_fft, n_lanes=4))
        estimates: list = [dict() for _ in rows]
        for start in range(0, len(rows), chunk):
            stop = min(len(rows), start + chunk)
            batch = stft_batch(
                np.stack(rows[start:stop]), sampling_hz, n_fft=n_fft, hop=hop
            )
            pair_index: list = []
            masked_list: list = []
            for b in range(start, stop):
                tracks = f0_tracks_batch[b]
                spec = batch.record(b - start)
                masks = self._build_masks(spec, tracks, sampling_hz)
                for name, mask in masks.items():
                    pair_index.append((b, name))
                    masked_list.append((spec.values * mask).T)
            signals = istft_batch(batch, np.stack(masked_list))
            for (b, name), signal in zip(pair_index, signals):
                estimates[b][name] = signal
        return estimates


def _resolve_overlaps(spec, f0_tracks, masks, sampling_hz, n_harmonics):
    """Assign contested cells to the source with the nearest ridge centre."""
    freqs = spec.freqs()
    names = list(masks)
    # Distance of each cell to the closest harmonic centre, per source.
    distances = {}
    for name in names:
        frames = f0_track_to_frames(f0_tracks[name], sampling_hz, spec)
        d = np.full((spec.n_freq, spec.n_frames), np.inf)
        for k in range(1, n_harmonics + 1):
            centers = k * frames
            d = np.minimum(d, np.abs(freqs[:, None] - centers[None, :]))
        distances[name] = d
    stacked = np.stack([distances[n] for n in names])
    owner = np.argmin(stacked, axis=0)
    resolved = {}
    for i, name in enumerate(names):
        resolved[name] = masks[name] & (owner == i)
    return resolved
