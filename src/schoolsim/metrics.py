"""Outcome classification and school-structure measurements, one value per school."""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Vec2
from .dynamics import SwarmState

# Two fish closer than this are considered in contact for the proximity
# graph (three times the preferred spacing of the default parameters).
DEFAULT_COMPONENT_DELTA = 0.3

# The fields each kind reads, which must be set.
CLASSIFIER_KINDS = {"center-distance": ("food_center", "success_radius"),
                    "min-x-threshold": ("right_threshold",),
                    "band-three-state": ("left_threshold", "right_threshold")}


class OutcomeState(Enum):
    FAILURE = "Failure"
    PRESUCCESS = "PreSuccess"
    SUCCESS = "Success"

    def __str__(self):  # so a CSV writer writes an outcome as its value
        return self.value


# classify's lookup table, indexed 0 = Failure, 1 = PreSuccess, 2 = Success.
_OUTCOMES = np.array(list(OutcomeState), dtype=object)


@dataclass(frozen=True)
class Classifier:
    """Endpoint outcome rule.

    kind selects the rule:
      * ``center-distance``: Success iff the school center lies within
        success_radius of food_center.
      * ``min-x-threshold``: Success iff every fish has x strictly above
        right_threshold.
      * ``band-three-state``: Failure iff the rightmost fish is left of
        left_threshold; Success iff the leftmost fish is right of
        right_threshold; PreSuccess otherwise.

    component_delta is the contact distance of the final component count.
    """

    kind: str
    food_center: Vec2 | None = None
    success_radius: float | None = None
    left_threshold: float | None = None
    right_threshold: float | None = None
    component_delta: float = DEFAULT_COMPONENT_DELTA

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r} "
                             f"(expected one of {tuple(CLASSIFIER_KINDS)})")
        needs = CLASSIFIER_KINDS[self.kind]
        if any(getattr(self, name) is None for name in needs):
            raise ValueError(f"{self.kind} classifier needs {' and '.join(needs)}")
        for name in ("success_radius", "left_threshold", "right_threshold", "component_delta"):
            v = getattr(self, name)
            positive = name in ("success_radius", "component_delta")
            if v is not None and not (math.isfinite(v) and (v > 0 or not positive)):
                raise ValueError(f"Classifier.{name} must be "
                                 f"{'positive and finite' if positive else 'finite'}, got {v}")
        if self.kind == "band-three-state" and not self.left_threshold <= self.right_threshold:
            raise ValueError("band-three-state classifier needs left_threshold <= right_threshold")


def school_center(state: SwarmState) -> np.ndarray:
    """Mean position of each school: shape (2,) for an (N, 2) state, (B, 2)
    for a (B, N, 2) batch."""
    return state.positions.mean(axis=-2)


def connected_components(state: SwarmState, delta: float = DEFAULT_COMPONENT_DELTA) -> np.ndarray:
    """Number of components of each school's proximity graph: a 0-d array
    for an (N, 2) state, shape (B,) for a (B, N, 2) batch.

    Fish are adjacent when their distance is strictly below delta.  Squaring
    the 0/1 contact matrix ceil(log2(N - 1)) times gives who reaches whom
    (the sums are small integers, so exact); a fish starts a component when
    no lower-numbered fish reaches it.
    """
    pos = state.positions
    n = pos.shape[-2]
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    reach = ((diff * diff).sum(axis=-1) < delta * delta).astype(float)
    for _ in range(math.ceil(math.log2(max(n - 1, 1)))):
        reach = np.minimum(reach @ reach, 1)
    return np.asarray((np.triu(reach, 1).sum(axis=-2) == 0).sum(axis=-1))


def classify(state: SwarmState, classifier: Classifier) -> OutcomeState | np.ndarray:
    """Apply the endpoint outcome rule to each school: an OutcomeState for
    an (N, 2) state, a (B,) object array of them for a (B, N, 2) batch."""
    if classifier.kind == "center-distance":
        offset = school_center(state) - [classifier.food_center.x, classifier.food_center.y]
        success = np.hypot(offset[..., 0], offset[..., 1]) < classifier.success_radius
        failure = ~success
    else:
        xs = state.positions[..., 0]
        success = xs.min(axis=-1) > classifier.right_threshold
        # band-three-state: the Failure test is applied first, then Success.
        failure = (xs.max(axis=-1) < classifier.left_threshold
                   if classifier.kind == "band-three-state" else ~success)
    return _OUTCOMES[np.where(failure, 0, np.where(success, 2, 1))]
