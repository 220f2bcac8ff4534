"""ModelConfig is checked when it is built: each field's value against its
annotation. A built config cannot be changed."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from relattn.config import ConfigError, ModelConfig


@pytest.mark.parametrize("name", ModelConfig.field_names())
def test_every_field_rejects_a_wrong_type(name):
    # a list is admitted by no annotation, so every field must be covered
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ModelConfig(**{name: [1]})


@pytest.mark.parametrize("name", ["batch_size", "seed", "epochs", "learning_rate"])
def test_bool_is_not_a_number(name):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ModelConfig(**{name: True})


@pytest.mark.parametrize("name", ModelConfig.field_names())
def test_no_field_admits_none(name):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ModelConfig(**{name: None})


def test_class_count_is_not_a_config_key():
    # the model scores the relations its training data names
    assert "num_classes" not in ModelConfig.field_names()
    with pytest.raises(ConfigError, match="^unknown config keys: num_classes$"):
        ModelConfig.from_dict({"num_classes": 3})


def test_admitted_values():
    # an int is a valid float, and numpy scalars count
    ModelConfig(learning_rate=1, dropout=0, grad_clip=np.float32(0.5), seed=np.int64(3))


def test_fields_cannot_be_assigned():
    cfg = ModelConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 1
    assert cfg.replace(seed=1).seed == 1 and cfg.seed == 0


def test_nyt_profile_is_the_defaults():
    assert ModelConfig.from_profile("nyt") == ModelConfig()
