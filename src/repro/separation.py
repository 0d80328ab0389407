"""The abstract single-detector separation interface.

Lives at the package top level so both :mod:`repro.core` (DHF) and
:mod:`repro.baselines` can implement it without importing each other.
Every method consumes the same information the paper grants all
competitors: the single mixed measurement, its sampling rate, and the
per-source fundamental-frequency tracks (assumption 3 of Sec. 1).
:func:`check_record` is the one written contract for that input.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.validation import (
    as_1d_float_array,
    check_finite,
    check_positive,
)


def check_record(
    mixed,
    sampling_hz: float,
    f0_tracks: Mapping[str, np.ndarray],
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Validate one record or stream chunk against the input contract.

    ``mixed`` is 1-D, non-empty and finite; ``sampling_hz`` is finite
    and > 0; ``f0_tracks`` is a non-empty mapping whose tracks are 1-D,
    as long as ``mixed``, finite, > 0 and below Nyquist.  A wrong
    dimensionality raises :class:`ShapeError`, a bad rate or an empty
    mapping :class:`ConfigurationError`, anything else
    :class:`DataError`.  Returns ``mixed`` and the tracks as float64.
    """
    mixed = as_1d_float_array(mixed, "mixed")
    check_positive(sampling_hz, "sampling_hz")
    if not f0_tracks:
        raise ConfigurationError("f0_tracks must contain at least one source")
    tracks = {}
    for name, track in f0_tracks.items():
        track = as_1d_float_array(track, f"f0_tracks[{name!r}]")
        if track.size != mixed.size:
            raise DataError(
                f"f0 track for {name!r} has {track.size} samples, "
                f"mixed has {mixed.size}"
            )
        if not np.all((track > 0) & np.isfinite(track)):
            raise DataError(
                f"f0 track for {name!r} must be positive and finite"
            )
        tracks[name] = track
    # Checked last, so a record with several faults keeps the error
    # class of the checks above.
    check_finite(mixed, "mixed")
    nyquist = sampling_hz / 2
    for name, track in tracks.items():
        if np.any(track >= nyquist):
            raise DataError(
                f"f0 track for {name!r} reaches {track.max():g} Hz; it "
                f"must stay below the Nyquist frequency {nyquist:g} Hz"
            )
    return mixed, tracks


class Separator(abc.ABC):
    """Abstract single-detector source separator."""

    #: Human-readable method name used in experiment tables.
    name: str = "separator"

    @abc.abstractmethod
    def separate(
        self,
        mixed,
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        """Separate ``mixed`` into one estimate per entry of ``f0_tracks``.

        Parameters
        ----------
        mixed:
            The single-detector measurement (1-D array).
        sampling_hz:
            Sampling rate in Hz.
        f0_tracks:
            Per-sample fundamental-frequency track for every source,
            keyed by source name.

        Returns
        -------
        Estimates keyed by the same source names, each the length of
        ``mixed``.
        """

    def separate_batch(
        self,
        mixed_batch: Sequence,
        sampling_hz: float,
        f0_tracks_batch: Sequence[Mapping[str, np.ndarray]],
    ) -> List[Dict[str, np.ndarray]]:
        """Separate several records sharing one sampling rate.

        The default runs :meth:`separate` record by record; subclasses
        whose per-record work is dominated by STFT round-trips override
        this with a vectorized implementation (see
        :class:`repro.baselines.SpectralMaskingSeparator`).
        :class:`repro.pipeline.SeparationPipeline` calls this hook on its
        serial path, so vectorized overrides are picked up automatically.

        Parameters
        ----------
        mixed_batch:
            One mixed 1-D measurement per record (lengths may differ).
        sampling_hz:
            Sampling rate shared by every record.
        f0_tracks_batch:
            One per-source f0-track mapping per record, aligned with
            ``mixed_batch``.
        """
        self._check_batch(mixed_batch, f0_tracks_batch)
        return [
            self.separate(mixed, sampling_hz, tracks)
            for mixed, tracks in zip(mixed_batch, f0_tracks_batch)
        ]

    def separate_many(self, records, workers: int = 0, executor: str = "thread"):
        """Run this separator over :class:`repro.pipeline.SeparationRecord` s.

        Convenience wrapper building a
        :class:`repro.pipeline.SeparationPipeline`; returns its
        :class:`repro.pipeline.BatchResult`.  ``workers``/``executor``
        are forwarded verbatim (imported lazily to keep this module at
        the bottom of the dependency graph).
        """
        from repro.pipeline import SeparationPipeline

        pipeline = SeparationPipeline(self, workers=workers, executor=executor)
        return pipeline.run(records)

    def stream(
        self,
        sampling_hz: float,
        segment_samples: int,
        overlap_samples: int,
        record_spans: bool = True,
    ):
        """A :class:`repro.streaming.StreamingSeparator` wrapping this method.

        The returned engine accepts incremental sample blocks via
        ``push(samples, f0_tracks)`` and emits separated sources with
        latency bounded by ``segment_samples``; see
        :mod:`repro.streaming` for the segmentation and cross-fade
        rules.  Imported lazily to keep this module at the bottom of the
        dependency graph.
        """
        from repro.streaming import StreamingSeparator

        return StreamingSeparator(
            self, sampling_hz, segment_samples, overlap_samples,
            record_spans=record_spans,
        )

    def _validate(self, mixed, sampling_hz, f0_tracks) -> np.ndarray:
        return check_record(mixed, sampling_hz, f0_tracks)[0]

    @staticmethod
    def _check_batch(mixed_batch: Sequence, f0_tracks_batch: Sequence) -> None:
        """Raise unless a batch carries one f0-track mapping per record."""
        if len(mixed_batch) != len(f0_tracks_batch):
            raise ConfigurationError(
                f"{len(mixed_batch)} mixed records but "
                f"{len(f0_tracks_batch)} f0-track mappings"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
