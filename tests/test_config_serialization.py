"""Config serialization and manifest tests."""

import json

import pytest

from repro.config import FederationConfig, ModelConfig
from repro.experiments.storage import load_manifest, save_manifest


class TestModelConfigSerialization:
    def test_roundtrip(self):
        cfg = ModelConfig.paper()
        restored = ModelConfig.from_dict(cfg.to_dict())
        assert restored == cfg

    def test_json_compatible(self):
        json.dumps(ModelConfig().to_dict())

    def test_channels_tuple_restored(self):
        restored = ModelConfig.from_dict(ModelConfig().to_dict())
        assert isinstance(restored.cnn_channels, tuple)

    def test_unknown_keys_rejected(self):
        data = ModelConfig().to_dict()
        data["quantum_bits"] = 7
        with pytest.raises(KeyError):
            ModelConfig.from_dict(data)


class TestFederationConfigSerialization:
    @pytest.mark.parametrize("factory", [
        FederationConfig.paper_full,
        FederationConfig.paper_scaled,
        FederationConfig.tiny,
    ])
    def test_roundtrip_all_canonical_configs(self, factory):
        cfg = factory()
        restored = FederationConfig.from_dict(cfg.to_dict())
        assert restored == cfg

    def test_json_compatible(self):
        json.dumps(FederationConfig.paper_scaled().to_dict())

    def test_nested_model_restored(self):
        cfg = FederationConfig.paper_full()
        restored = FederationConfig.from_dict(cfg.to_dict())
        assert isinstance(restored.model, ModelConfig)
        assert restored.model.image_size == 28

    def test_validation_applies_on_load(self):
        data = FederationConfig.tiny().to_dict()
        data["server_lr"] = 2.0
        with pytest.raises(ValueError):
            FederationConfig.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = FederationConfig.tiny().to_dict()
        data["gpu_count"] = 8
        with pytest.raises(KeyError):
            FederationConfig.from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("population_store", "ram"),
        ("population_resident_cap", 0),
        ("decoder_cache", True),
    ])
    def test_retired_client_state_keys_rejected(self, key, value):
        # A manifest.json written while these keys existed is refused.
        data = FederationConfig.tiny().to_dict()
        data[key] = value
        with pytest.raises(KeyError, match=key):
            FederationConfig.from_dict(data)


class TestManifest:
    def test_save_load(self, tmp_path):
        cfg = FederationConfig.paper_scaled(rounds=7)
        save_manifest(cfg, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        restored = load_manifest(tmp_path)
        assert restored == cfg

    def test_missing_manifest_returns_none(self, tmp_path):
        assert load_manifest(tmp_path) is None
