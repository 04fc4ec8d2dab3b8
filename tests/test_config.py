"""Tests for EngineConfig validation and method factories."""

from __future__ import annotations

import pytest

from repro.config import (
    METHOD_CONFIGS,
    UNLIMITED,
    EngineConfig,
    birt_config,
    gifilter_config,
    ifilter_config,
    irt_config,
)
from repro.errors import ConfigurationError


def test_defaults_are_valid():
    config = EngineConfig()
    assert config.k == 30


@pytest.mark.parametrize(
    "field,value",
    [
        ("k", 0),
        ("alpha", -0.1),
        ("alpha", 1.1),
        ("smoothing_lambda", 2.0),
        ("decay_base", 0.5),
        ("block_size", 0),
        ("delta_s", -0.2),
        ("phi_max", -5),
        ("init_scan_limit", -1),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ConfigurationError):
        EngineConfig(**{field: value})


def test_phi_max_unlimited_allowed():
    assert EngineConfig(phi_max=UNLIMITED).phi_max == UNLIMITED


def test_group_filter_requires_blocks():
    with pytest.raises(ConfigurationError):
        EngineConfig(use_blocks=False, use_group_filter=True)


def test_with_decay_scale():
    config = EngineConfig().with_decay_scale(0.5, horizon=7200.0)
    assert config.decay_base ** (-7200.0) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        EngineConfig().with_decay_scale(0.0, 10.0)
    with pytest.raises(ConfigurationError):
        EngineConfig().with_decay_scale(0.5, 0.0)


def test_evolve_replaces_fields():
    config = EngineConfig().evolve(k=7, alpha=0.9)
    assert config.k == 7
    assert config.alpha == 0.9
    # original untouched (frozen dataclass)
    assert EngineConfig().k == 30


def test_method_factories_flag_matrix():
    cases = {
        "GIFilter": (True, True, True),
        "IFilter": (True, False, True),
        "BIRT": (True, False, False),
        "IRT": (False, False, False),
    }
    for method, (blocks, group, aw) in cases.items():
        config = METHOD_CONFIGS[method]()
        assert config.use_blocks is blocks, method
        assert config.use_group_filter is group, method
        assert config.use_agg_weights is aw, method


def test_factories_accept_overrides():
    assert gifilter_config(k=5).k == 5
    assert ifilter_config(alpha=0.7).alpha == 0.7
    assert birt_config(block_size=32).block_size == 32
    assert irt_config(k=9).k == 9
