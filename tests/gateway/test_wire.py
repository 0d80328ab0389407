"""Wire format: exact array round-trips, strict validation, specs."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.gateway import (
    array_from_wire,
    array_to_wire,
    parse_job_submission,
    record_from_wire,
    record_to_wire,
)
from repro.pipeline.batch import SeparationRecord
from repro.service import available_separators, separator_entry


def make_record(n=64, seed=3):
    rng = np.random.default_rng(seed)
    return SeparationRecord(
        mixed=rng.standard_normal(n),
        sampling_hz=100.0,
        f0_tracks={"a": np.full(n, 1.5), "b": np.full(n, 2.5)},
        name="r",
        references={"a": rng.standard_normal(n)},
    )


class TestArrays:
    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(512) * 10.0 ** rng.integers(-12, 12, 512)
        over_json = json.loads(json.dumps(array_to_wire(arr)))
        back = array_from_wire(over_json, "x")
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64

    def test_non_finite_rejected_outbound(self):
        with pytest.raises(DataError, match="non-finite"):
            array_to_wire(np.array([1.0, np.nan]))
        with pytest.raises(DataError, match="non-finite"):
            array_to_wire(np.array([np.inf]))

    @pytest.mark.parametrize("bad", ["abc", None, {"a": 1}, [[1, 2]], [1, "x"]])
    def test_malformed_inbound_rejected(self, bad):
        with pytest.raises(DataError):
            array_from_wire(bad, "x")


class TestRecords:
    def test_round_trip_is_bitwise(self):
        record = make_record()
        over_json = json.loads(json.dumps(record_to_wire(record)))
        back = record_from_wire(over_json)
        assert np.array_equal(back.mixed, record.mixed)
        assert back.sampling_hz == record.sampling_hz
        assert back.name == record.name
        for source in record.f0_tracks:
            assert np.array_equal(
                back.f0_tracks[source], record.f0_tracks[source]
            )
        assert np.array_equal(
            back.references["a"], record.references["a"]
        )

    def test_unknown_key_rejected(self):
        wire = record_to_wire(make_record())
        wire["f0tracks"] = wire.pop("f0_tracks")
        with pytest.raises(DataError, match="unknown key"):
            record_from_wire(wire, 4)

    def test_missing_key_rejected(self):
        wire = record_to_wire(make_record())
        del wire["mixed"]
        with pytest.raises(DataError, match="missing required"):
            record_from_wire(wire)

    def test_bad_sampling_hz_rejected(self):
        wire = record_to_wire(make_record())
        wire["sampling_hz"] = "fast"
        with pytest.raises(DataError, match="sampling_hz"):
            record_from_wire(wire)


class TestJobSubmission:
    def submission(self, **overrides):
        data = {
            "method": "spectral-masking",
            "records": [record_to_wire(make_record())],
        }
        data.update(overrides)
        return data

    def test_parses_method(self):
        parsed = parse_job_submission(self.submission())
        assert parsed["spec"].method == "spectral-masking"
        assert parsed["mode"] == "separate_batch"
        assert parsed["callback_url"] is None

    def test_every_registered_spec_round_trips(self):
        """Each registry default spec survives the wire byte-equal."""
        for name in available_separators():
            spec = separator_entry(name).default_spec()
            over_json = json.loads(json.dumps(spec.to_dict()))
            parsed = parse_job_submission(
                self.submission(method=None, spec=over_json)
            )
            assert parsed["spec"] == spec
            assert json.dumps(parsed["spec"].to_dict(), sort_keys=True) \
                == json.dumps(spec.to_dict(), sort_keys=True)

    def test_unknown_method_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            parse_job_submission(self.submission(method="spectral-maskng"))

    def test_unknown_spec_field_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            parse_job_submission(self.submission(
                method=None,
                spec={"method": "vmd", "alpa": 900.0},
            ))

    def test_method_and_spec_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            parse_job_submission(self.submission(spec={"method": "vmd"}))
        with pytest.raises(ConfigurationError, match="exactly one"):
            parse_job_submission({"records": []})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            parse_job_submission(self.submission(mode="stream"))

    @pytest.mark.parametrize("fault", [
        "nan", "inf", "short-track", "zero-f0", "negative-f0", "nyquist-f0",
    ])
    def test_record_breaking_the_contract_rejected(self, fault):
        """Caught at submission (→ 400), not queued to fail later."""
        wire = record_to_wire(make_record())
        if fault == "nan":
            wire["mixed"][5] = float("nan")
        elif fault == "inf":
            wire["mixed"][5] = float("-inf")
        elif fault == "short-track":
            wire["f0_tracks"]["a"] = wire["f0_tracks"]["a"][:-1]
        elif fault == "zero-f0":
            wire["f0_tracks"]["b"][3] = 0.0
        elif fault == "negative-f0":
            wire["f0_tracks"]["b"][3] = -1.5
        else:
            wire["f0_tracks"]["a"][9] = 50.0  # Nyquist at 100 Hz
        # json.loads turns NaN / -Infinity tokens into floats.
        body = json.loads(json.dumps(self.submission(records=[wire])))
        with pytest.raises(DataError):
            parse_job_submission(body)

    def test_separate_needs_one_record(self):
        two = [record_to_wire(make_record(seed=i)) for i in (1, 2)]
        with pytest.raises(ConfigurationError, match="exactly one record"):
            parse_job_submission(
                self.submission(mode="separate", records=two)
            )

    def test_empty_records_rejected(self):
        with pytest.raises(DataError, match="records"):
            parse_job_submission(self.submission(records=[]))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(DataError, match="unknown key"):
            parse_job_submission(self.submission(callbackurl="x"))

    def test_bad_callback_url_rejected(self):
        with pytest.raises(ConfigurationError, match="callback_url"):
            parse_job_submission(self.submission(callback_url=""))
