"""Tests for the frozen separator specs (repro.service.specs)."""

import dataclasses
import json

import pytest

from repro.config import get_preset
from repro.core import DHFConfig
from repro.errors import ConfigurationError
from repro.service import (
    DHFSpec,
    EMDSpec,
    NMFSpec,
    RepetSpec,
    SeparatorSpec,
    SpectralMaskingSpec,
    VMDSpec,
    available_separators,
    default_spec,
)

ALL_SPEC_CLASSES = (
    DHFSpec, EMDSpec, VMDSpec, NMFSpec, RepetSpec, SpectralMaskingSpec,
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        n for n in ("dhf", "emd", "vmd", "nmf", "repet", "repet-ext",
                    "spectral-masking")
    ])
    def test_default_spec_round_trips(self, name):
        spec = default_spec(name)
        data = spec.to_dict()
        assert data["method"] == spec.method
        rebuilt = SeparatorSpec.from_dict(data)
        assert rebuilt == spec
        assert type(rebuilt) is type(spec)

    def test_custom_values_survive(self):
        spec = VMDSpec(modes_per_source=2, alpha=900.0)
        rebuilt = SeparatorSpec.from_dict(spec.to_dict())
        assert rebuilt.modes_per_source == 2
        assert rebuilt.alpha == 900.0

    def test_subclass_from_dict_without_method_key(self):
        spec = EMDSpec.from_dict({"max_imfs": 6})
        assert spec == EMDSpec(max_imfs=6)

    def test_repet_ext_dict_applies_entry_defaults(self):
        # Naming 'repet-ext' in a spec dict must build the *extended*
        # variant even without an explicit extended field.
        spec = SeparatorSpec.from_dict({"method": "repet-ext"})
        assert spec.extended is True
        spec = SeparatorSpec.from_dict(
            {"method": "repet-ext", "n_fft_seconds": 4.0}
        )
        assert spec.extended is True and spec.n_fft_seconds == 4.0
        # An explicit field still wins over the entry default.
        spec = SeparatorSpec.from_dict(
            {"method": "repet-ext", "extended": False}
        )
        assert spec.extended is False

    def test_repet_ext_round_trips_with_own_method_name(self):
        # repet-ext shares RepetSpec with repet, but a spec built from
        # the repet-ext entry remembers its entry name and round-trips.
        spec = default_spec("repet-ext")
        data = spec.to_dict()
        assert data["method"] == "repet-ext"
        assert data["extended"] is True
        assert SeparatorSpec.from_dict(data) == spec

    def test_dict_is_json_compatible(self):
        for name in available_separators():
            spec = default_spec(name)
            assert SeparatorSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            ) == spec


class TestFromDictErrors:
    def test_missing_method_on_base(self):
        with pytest.raises(ConfigurationError, match="method"):
            SeparatorSpec.from_dict({"max_imfs": 3})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            SeparatorSpec.from_dict({"method": "dfh"})

    def test_unknown_field_suggests(self):
        with pytest.raises(ConfigurationError, match="max_imfs"):
            SeparatorSpec.from_dict({"method": "emd", "max_imf": 3})

    def test_method_mismatch_on_subclass(self):
        with pytest.raises(ConfigurationError, match="does not match"):
            EMDSpec.from_dict({"method": "vmd"})


class TestValidation:
    @pytest.mark.parametrize("spec_cls, bad", [
        (EMDSpec, {"max_imfs": 0}),
        (EMDSpec, {"sd_threshold": -0.1}),
        (EMDSpec, {"n_harmonics": 2.5}),
        (VMDSpec, {"alpha": -1.0}),
        (VMDSpec, {"max_iterations": 0}),
        (NMFSpec, {"components_per_source": 0}),
        (NMFSpec, {"n_iterations": True}),
        (RepetSpec, {"extended": "yes"}),
        (RepetSpec, {"n_fft_seconds": 0.0}),
        (SpectralMaskingSpec, {"hop_fraction": 1.5}),
        (SpectralMaskingSpec, {"hop_fraction": 0.0}),
        (SpectralMaskingSpec, {"n_harmonics": 0}),
        (DHFSpec, {"samples_per_period": 0}),
        (DHFSpec, {"phase_policy": "bogus"}),
        (DHFSpec, {"hop_periods": 40}),       # > periods_per_window / 2
        (DHFSpec, {"time_dilation": "fast"}),
        (DHFSpec, {"iterations": -3}),
    ])
    def test_bad_values_raise(self, spec_cls, bad):
        with pytest.raises(ConfigurationError):
            spec_cls(**bad)

    def test_specs_are_frozen(self):
        spec = EMDSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.max_imfs = 3

    def test_replace_revalidates(self):
        spec = VMDSpec()
        assert spec.replace(alpha=500.0).alpha == 500.0
        with pytest.raises(ConfigurationError):
            spec.replace(alpha=-1.0)


class TestDHFSpec:
    def test_from_preset_matches_config_from_preset(self):
        for preset_name in ("smoke", "fast", "full"):
            preset = get_preset(preset_name)
            spec = DHFSpec.from_preset(preset)
            assert spec.build_config() == DHFConfig.from_preset(preset)

    def test_from_preset_accepts_name(self):
        assert DHFSpec.from_preset("smoke") == \
            DHFSpec.from_preset(get_preset("smoke"))

    def test_from_preset_overrides(self):
        spec = DHFSpec.from_preset("smoke", phase_policy="cyclic")
        assert spec.phase_policy == "cyclic"
        assert spec.samples_per_period == \
            get_preset("smoke").alignment.samples_per_period

    def test_unknown_preset_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            DHFSpec.from_preset("smok")

    @pytest.mark.parametrize("batch_fit", [True, False])
    def test_stored_batch_fit_key_is_dropped(self, batch_fit):
        # Specs persisted before every fit ran on the stacked engine
        # carry the retired ``batch_fit`` knob; they must keep loading.
        spec = DHFSpec.from_preset("smoke", early_stop_patience=4)
        stored = json.loads(json.dumps(
            {**spec.to_dict(), "batch_fit": batch_fit}
        ))
        for loader in (SeparatorSpec.from_dict, DHFSpec.from_dict):
            rebuilt = loader(stored)
            assert rebuilt == spec
            assert "batch_fit" not in rebuilt.to_dict()
            assert loader(rebuilt.to_dict()) == spec

    @pytest.mark.parametrize("backend", ["numpy-f32", "torch"])
    def test_stored_f32_backend_loads_as_float32(self, backend):
        # The float32 backends ran every fit in single precision whatever
        # ``dtype`` said, so only that precision survives the retirement.
        stored = {"method": "dhf", "backend": backend, "dtype": "float64"}
        for loader in (SeparatorSpec.from_dict, DHFSpec.from_dict):
            rebuilt = loader(stored)
            assert rebuilt.dtype == "float32"
            assert "backend" not in rebuilt.to_dict()

    @pytest.mark.parametrize("backend", ["numpy", ""])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_stored_reference_backend_keeps_dtype(self, backend, dtype):
        stored = {"method": "dhf", "backend": backend, "dtype": dtype}
        for loader in (SeparatorSpec.from_dict, DHFSpec.from_dict):
            rebuilt = loader(stored)
            assert rebuilt == DHFSpec(dtype=dtype)
            assert "backend" not in rebuilt.to_dict()

    def test_stored_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            SeparatorSpec.from_dict({"method": "dhf", "backend": "cuda"})

    def test_backend_is_not_a_field(self):
        with pytest.raises(TypeError):
            DHFSpec(backend="numpy")
        with pytest.raises(ConfigurationError, match="backend"):
            SeparatorSpec.from_dict({"method": "emd", "backend": "numpy"})

    def test_batch_fit_is_retired_for_dhf_only(self):
        with pytest.raises(TypeError):
            DHFSpec(batch_fit=True)
        with pytest.raises(ConfigurationError, match="batch_fit"):
            SeparatorSpec.from_dict({"method": "emd", "batch_fit": True})
