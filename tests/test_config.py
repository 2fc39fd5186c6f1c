import math

import pytest

from ddp import ConfigError, PipelineConfig


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["drop_threshold", "rc_threshold_multiplier", "epsilon_denominator"]
)
def test_config_rejects_non_finite_float(name, value):
    with pytest.raises(ConfigError, match=name):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2])
def test_config_rejects_non_finite_bin_edge(position, value):
    edges = [0.3, 1.5, 3.0]
    edges[position] = value
    with pytest.raises(ConfigError, match="bin_edges"):
        PipelineConfig(bin_edges=tuple(edges))
