"""Pipeline configuration.

A single frozen config object travels through the whole pipeline so that a
run is reproducible from (input, config) alone.  Five fields are settable:
D, N, stride_n, epsilon_denominator and seed.  The method's own constants
(the zoom factor, the GTI's drop threshold, the group threshold multiplier
and the RC bin edges) are fields too, so their readers and the report's
``config`` block see them, but the constructor and ``dataclasses.replace``
reject them.
"""

import math
import numbers
from dataclasses import dataclass, field

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
    aggregation_factor: int = field(default=3, init=False)
    drop_threshold: float = field(default=0.8, init=False)
    rc_threshold_multiplier: float = field(default=10.0, init=False)
    bin_edges: tuple[float, ...] = field(default=(0.3, 1.5, 3.0), init=False)
    epsilon_denominator: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, least in (("D", 1), ("N", 3), ("stride_n", 1), ("seed", 0)):
            value = getattr(self, name)
            # bool is an int subclass; numpy integers register as Integral
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ConfigError(f"{name} must be an integer of at least {least}, not {value!r}")
        eps = self.epsilon_denominator
        if not (math.isfinite(eps) and eps > 0.0):
            raise ConfigError(f"epsilon_denominator must be finite and positive, not {eps!r}")
        # The zoom-out ladder must land exactly on 9 points.
        m = self.N
        while m > 9 and m % self.aggregation_factor == 0:
            m //= self.aggregation_factor
        if m != 9:
            raise ConfigError(
                f"N={self.N} must be 9 times a power of {self.aggregation_factor}, "
                "so that the zoom-out ladder ends at 9 points"
            )

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
