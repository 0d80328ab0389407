"""Failure-mode conformance: one input contract in every method and mode.

Every registered separator (DHF at the smoke preset) meets six faulty
inputs — a NaN sample, an Inf sample, an f0 track of the wrong length,
an f0 of zero, an f0 at Nyquist and a NaN sampling rate — in every mode:
offline, batch, stream, the process-sharded batch and the gateway's
wire decoder.  Each case must raise the error class
:func:`repro.separation.check_record` assigns to it, either when the
:class:`repro.pipeline.SeparationRecord` is built or at the call.  The
contract rejects input before any fit, so the file stays cheap.

``make conformance`` runs this file next to ``test_conformance.py``.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.gateway.wire import parse_job_submission
from repro.pipeline import SeparationRecord
from repro.separation import check_record
from repro.service import (
    DHFSpec,
    SeparationService,
    available_separators,
    build_separator,
    default_spec,
)

FS = 20.0
N = 400

#: Faulty input → the error class the contract raises for it.
CASES = {
    "nan-sample": DataError,
    "inf-sample": DataError,
    "track-length": DataError,
    "f0-zero": DataError,
    "f0-nyquist": DataError,
    "nan-sampling-hz": ConfigurationError,
}

#: Cases a record can only carry when it is faulted after construction.
SAMPLE_CASES = [case for case in CASES if case != "nan-sampling-hz"]


def clean_input():
    t = np.arange(N) / FS
    mixed = np.sin(2 * np.pi * 1.2 * t) + 0.5 * np.sin(2 * np.pi * 2.1 * t)
    return mixed, FS, {"a": np.full(N, 1.2), "b": np.full(N, 2.1)}


def faulty_input(case):
    """``(mixed, sampling_hz, f0_tracks)`` breaking exactly one rule."""
    mixed, fs, tracks = clean_input()
    if case == "nan-sample":
        mixed[37] = np.nan
    elif case == "inf-sample":
        mixed[101] = np.inf
    elif case == "track-length":
        tracks["a"] = tracks["a"][:-7]
    elif case == "f0-zero":
        tracks["b"][11] = 0.0
    elif case == "f0-nyquist":
        tracks["a"][250] = fs / 2
    elif case == "nan-sampling-hz":
        fs = float("nan")
    return mixed, fs, tracks


def faulty_record(case):
    mixed, fs, tracks = faulty_input(case)
    return SeparationRecord(mixed=mixed, sampling_hz=fs, f0_tracks=tracks)


def spec_for(name):
    if name == "dhf":
        return DHFSpec.from_preset("smoke")
    return default_spec(name)


@pytest.fixture(scope="module", params=available_separators())
def method(request):
    return request.param


@pytest.fixture(scope="module")
def separator(method):
    return build_separator(spec_for(method))


@pytest.fixture(scope="module")
def service(method):
    with SeparationService(spec_for(method)) as svc:
        yield svc


@pytest.fixture(scope="module")
def process_service(method):
    with SeparationService(
        spec_for(method), workers=2, executor="process",
    ) as svc:
        yield svc


@pytest.fixture(params=list(CASES))
def case(request):
    return request.param


class TestCheckRecord:
    def test_clean_input_passes_as_float64(self):
        mixed, fs, tracks = clean_input()
        tracks["a"] = [1.2] * N  # any array-like
        out_mixed, out_tracks = check_record(mixed, fs, tracks)
        np.testing.assert_array_equal(out_mixed, mixed)
        assert list(out_tracks) == ["a", "b"]
        for track in out_tracks.values():
            assert track.dtype == np.float64 and track.shape == (N,)

    def test_each_case_raises_its_class(self, case):
        with pytest.raises(CASES[case]):
            check_record(*faulty_input(case))

    def test_record_construction_raises_its_class(self, case):
        with pytest.raises(CASES[case]):
            faulty_record(case)

    def test_just_below_nyquist_passes(self):
        mixed, fs, tracks = clean_input()
        tracks["a"][:] = np.nextafter(fs / 2, 0)
        check_record(mixed, fs, tracks)


class TestEveryMethodEveryMode:
    def test_offline(self, separator, service, case):
        mixed, fs, tracks = faulty_input(case)
        with pytest.raises(CASES[case]):
            separator.separate(mixed, fs, tracks)
        with pytest.raises(CASES[case]):
            service.separate(mixed=mixed, sampling_hz=fs, f0_tracks=tracks)

    def test_batch(self, separator, service, case):
        mixed, fs, tracks = faulty_input(case)
        with pytest.raises(CASES[case]):
            separator.separate_batch([mixed], fs, [tracks])
        with pytest.raises(CASES[case]):
            service.separate_batch([faulty_record(case)])

    def test_stream(self, separator, service, case):
        mixed, fs, tracks = faulty_input(case)
        with pytest.raises(CASES[case]):
            engine = separator.stream(fs, N, N // 4)
            engine.push(mixed, tracks)
        with pytest.raises(CASES[case]):
            service.stream(mixed=mixed, sampling_hz=fs, f0_tracks=tracks)

    def test_process_sharded(self, process_service, case):
        with pytest.raises(CASES[case]):
            process_service.separate_batch(
                [faulty_record(case), faulty_record(case)]
            )

    def test_gateway_decode(self, method, case):
        mixed, fs, tracks = faulty_input(case)
        body = {
            "spec": spec_for(method).to_dict(),
            "mode": "separate",
            "records": [{
                "mixed": [float(v) for v in mixed],
                "sampling_hz": fs,
                "f0_tracks": {
                    name: [float(v) for v in track]
                    for name, track in tracks.items()
                },
            }],
        }
        # Python's json accepts NaN / Infinity tokens, so a faulty record
        # survives the HTTP body decode and must be caught by the contract.
        body = json.loads(json.dumps(body))
        with pytest.raises(CASES[case]):
            parse_job_submission(body)


class TestShardWorkersKeepTheContract:
    """A record faulted after construction still fails in the worker."""

    @pytest.mark.parametrize("sample_case", SAMPLE_CASES)
    def test_worker_raises_the_same_class(self, process_service,
                                          sample_case):
        mixed, fs, tracks = faulty_input(sample_case)
        records = []
        for _ in range(2):
            record = SeparationRecord(*clean_input())
            record.mixed, record.f0_tracks = mixed, tracks
            records.append(record)
        with pytest.raises(CASES[sample_case]):
            process_service.separate_batch(records)


class TestZeroLengthChunk:
    def test_stream_push_is_a_no_op(self, separator):
        engine = separator.stream(FS, N, N // 4)
        out = engine.push(np.zeros(0), {"a": np.zeros(0)})
        assert list(out) == ["a"] and out["a"].size == 0
        assert engine.n_pushed == 0
        mixed, _, tracks = clean_input()  # shorter than a segment: no fit
        engine.push(mixed[:10], {"a": tracks["a"][:10]})
        assert engine.n_pushed == 10 and engine.source_names == ["a"]

    def test_stream_rejects_tracks_longer_than_an_empty_chunk(self,
                                                              separator):
        engine = separator.stream(FS, N, N // 4)
        with pytest.raises(DataError):
            engine.push(np.zeros(0), {"a": np.full(5, 1.2)})
