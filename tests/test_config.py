import dataclasses
import math

import numpy as np
import pytest

from ddp import ConfigError, PipelineConfig

CONSTANTS = {
    "aggregation_factor": 3,
    "drop_threshold": 0.8,
    "rc_threshold_multiplier": 10.0,
    "bin_edges": (0.3, 1.5, 3.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["drop_threshold", "rc_threshold_multiplier", "epsilon_denominator"]
)
def test_config_rejects_non_finite_float(name, value):
    # a constant of the method takes no value at all
    error = ConfigError if name == "epsilon_denominator" else TypeError
    with pytest.raises(error, match=name):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2])
def test_config_rejects_non_finite_bin_edge(position, value):
    edges = [0.3, 1.5, 3.0]
    edges[position] = value
    with pytest.raises(TypeError, match="bin_edges"):
        PipelineConfig(bin_edges=tuple(edges))


def test_config_settable_fields():
    names = [f.name for f in dataclasses.fields(PipelineConfig) if f.init]
    assert names == ["D", "N", "stride_n", "epsilon_denominator", "seed"]


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_config_constants_are_fixed(name):
    cfg = PipelineConfig()
    assert getattr(cfg, name) == CONSTANTS[name]
    with pytest.raises(TypeError, match=name):
        PipelineConfig(**{name: CONSTANTS[name]})
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(cfg, **{name: CONSTANTS[name]})


@pytest.mark.parametrize("name,bad", [
    ("D", 4.0), ("D", True), ("D", 0),
    ("N", 81.0), ("N", True), ("N", 1), ("N", "81"),
    ("stride_n", 1.5), ("stride_n", True), ("stride_n", 0),
    ("seed", 0.5), ("seed", False), ("seed", -1),
])
def test_config_integer_fields_must_be_integers(name, bad):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        PipelineConfig(**{name: bad})


def test_config_accepts_numpy_integers():
    cfg = PipelineConfig(D=np.int64(2), N=np.int32(27), stride_n=np.uint8(2), seed=np.int16(0))
    assert cfg.zoom_point_counts() == [27, 9]


@pytest.mark.parametrize("n", [3, 18, 54, 80])
def test_config_rejects_n_off_the_ladder(n):
    with pytest.raises(ConfigError, match=f"N={n} must be 9 times a power of 3"):
        PipelineConfig(N=n)
