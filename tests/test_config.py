"""ModelConfig.validate: each field's value is checked against its annotation."""

import numpy as np
import pytest

from relattn.config import ConfigError, ModelConfig


@pytest.mark.parametrize("name", ModelConfig.field_names())
def test_every_field_rejects_a_wrong_type(name):
    # a list is admitted by no annotation, so every field must be covered
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ModelConfig(**{name: [1]}).validate()


@pytest.mark.parametrize("name", ["batch_size", "seed", "num_classes", "learning_rate"])
def test_bool_is_not_a_number(name):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        ModelConfig(**{name: True}).validate()


def test_admitted_values():
    # an int is a valid float, numpy scalars count, and num_classes may be None
    ModelConfig(learning_rate=1, dropout=0, grad_clip=np.float32(0.5),
                seed=np.int64(3), num_classes=None).validate()
    ModelConfig(num_classes=4).validate()
