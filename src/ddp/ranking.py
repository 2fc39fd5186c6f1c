"""Borda counts, objective ranks and their frame-to-frame changes.

The Borda count of a point is the sum of its normalized pairwise margins
against every other point in the frame; antisymmetry of the margins makes
the counts sum to zero per dimension.  The objective rank is the ascending
fractional rank of the Borda counts (ties get the average of the tied
positions), which is invariant under any strictly increasing transform of
the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .normalization import NormalizedField


@dataclass
class BordaState:
    """Counts and ranks of one frame, or of a stack with the frames in front."""

    H: np.ndarray  # (D, N) Borda counts, (B, D, N) for a stack
    R: np.ndarray  # (D, N) objective ranks in [1, N], (B, D, N) for a stack

    def __getitem__(self, index) -> BordaState:
        """The frames of a stack selected by ``index``."""
        return BordaState(H=self.H[index], R=self.R[index])


def objective_ranks(h: np.ndarray) -> np.ndarray:
    """Ascending fractional ranks of finite Borda counts along the last axis.

    Tied values share the mean of the 1-based positions they occupy.
    """
    h = np.asarray(h, dtype=float)
    order = np.argsort(h, axis=-1, kind="stable")
    ordered = np.take_along_axis(h, order, axis=-1)
    n = h.shape[-1]
    position = np.arange(1, n + 1)
    starts = np.ones(h.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(h.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, position, 1), axis=-1)
    last = np.minimum.accumulate(np.where(ends, position, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(h.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0, axis=-1)
    return ranks


def borda_state(field: NormalizedField) -> BordaState:
    """Counts and ranks of every lane of a field, ranked in one call."""
    return BordaState(H=field.borda, R=objective_ranks(field.borda))


def delta_borda(current: BordaState, previous: BordaState) -> np.ndarray:
    """Elementwise Borda change between frames matched by point index.

    Takes two frames, (D, N), or two stacks of frames paired in order,
    (P, D, N).
    """
    if current.H.shape != previous.H.shape:
        raise ContractViolation(
            f"frame shape mismatch: {current.H.shape} vs {previous.H.shape}"
        )
    return current.H - previous.H
