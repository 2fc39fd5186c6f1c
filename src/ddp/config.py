"""Pipeline configuration.

A single frozen config object travels through the whole pipeline so that a
run is reproducible from (input, config) alone.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError

# Dimension order of the default 4-channel "xyzm" record.
DIMENSION_NAMES_4D = (
    "knee_extension_moment",
    "knee_varus_moment",
    "knee_internal_rotation_moment",
    "mechanical_energy",
)


@dataclass(frozen=True)
class PipelineConfig:
    D: int = 4
    N: int = 81
    stride_n: int = 1
    aggregation_factor: int = 3
    drop_threshold: float = 0.8
    rc_threshold_multiplier: float = 10.0
    bin_edges: tuple[float, ...] = (0.3, 1.5, 3.0)
    epsilon_denominator: float = 1e-9
    refinement_max_iter: int = 100
    refinement_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        # NaN and inf slip through the sign and range checks below
        for name in ("drop_threshold", "rc_threshold_multiplier", "epsilon_denominator", "refinement_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not all(math.isfinite(e) for e in self.bin_edges):
            raise ConfigError(f"bin_edges must be finite, not {tuple(self.bin_edges)!r}")
        if self.D < 1:
            raise ConfigError("D must be a positive integer")
        if self.N < 3:
            raise ConfigError("N must be at least 3")
        if self.stride_n < 1:
            raise ConfigError("stride_n must be a positive integer")
        if self.aggregation_factor < 2:
            raise ConfigError("aggregation_factor must be at least 2")
        if not (0.0 < self.drop_threshold < 1.0):
            raise ConfigError("drop_threshold must lie in (0, 1)")
        if self.rc_threshold_multiplier <= 0.0:
            raise ConfigError("rc_threshold_multiplier must be positive")
        if list(self.bin_edges) != sorted(self.bin_edges) or len(set(self.bin_edges)) != len(self.bin_edges):
            raise ConfigError("bin_edges must be strictly ascending")
        if self.epsilon_denominator <= 0.0:
            raise ConfigError("epsilon_denominator must be positive")
        if self.refinement_max_iter < 1:
            raise ConfigError("refinement_max_iter must be a positive integer")
        if self.refinement_tol <= 0.0:
            raise ConfigError("refinement_tol must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        # The zoom-out ladder must land exactly on 9 points, so N has to be
        # 9 times a power of the aggregation factor.
        m = self.N
        while m > 9 and m % self.aggregation_factor == 0:
            m //= self.aggregation_factor
        if m != 9:
            raise ConfigError(
                f"N={self.N} cannot be reduced to 9 points by repeated "
                f"division by aggregation_factor={self.aggregation_factor}"
            )
        object.__setattr__(self, "bin_edges", tuple(float(e) for e in self.bin_edges))

    def zoom_point_counts(self) -> list[int]:
        """Point counts of the zoom-out ladder, finest first, ending at 9."""
        counts = [self.N]
        while counts[-1] > 9:
            counts.append(counts[-1] // self.aggregation_factor)
        return counts

    def dimension_names(self) -> tuple[str, ...]:
        if self.D == 4:
            return DIMENSION_NAMES_4D
        return tuple(f"dim{d}" for d in range(self.D))
