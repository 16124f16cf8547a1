"""Immediate reward for one interaction step.

The reward is a weighted sum over the post-transition status vector, the
per-step trial/timestep increments, and the completion/skip flags. The
assistance cost is charged only on a completing step, scaled by the action
that produced the completion, which is what pushes the learner toward
minimal effective assistance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .config import ConfigError, Document, read_number, read_object
from .scenario import StepEvents
from .states import ACTIONS, StatusVector

# The largest magnitude a weight may have. A step's reward sums at most 9 terms (four statuses,
# two per-step costs, completion with its assist cost or skip, task completion), each a weight
# times 0 or 1, so |r| <= 9 * MAX_WEIGHT < 2^44. An episode has at most
# scenario.MAX_EPISODE_STEPS = 2^16 steps, so every return is below 2^60 in magnitude, and a Monte
# Carlo mean and deviation over any rollout count that fits in memory stay far below the float
# limit of about 2^1024. With gamma in [0, 1), gamma <= 1 - 2^-53, so |Q| <= max|r| / (1 - gamma)
# <= 2^53 * max|r| < 2^97. Every reward, return, mean, deviation and Q-value is therefore finite.
MAX_WEIGHT = 1e12


def _read_weight(value: Any, where: str) -> float:
    """A weight as a finite float of magnitude at most ``MAX_WEIGHT``, with ``-0.0`` read as ``0.0``."""
    weight = read_number(value, where)
    if abs(weight) > MAX_WEIGHT:
        raise ConfigError(f"{where} must be at most {MAX_WEIGHT:g} in magnitude, got {value!r}")
    return weight + 0.0  # -0.0 + 0.0 is 0.0


@dataclass(frozen=True)
class RewardWeights(Document):
    """Dimensionless reward units; the shipped calibration is caresim/data/reward_weights.json."""

    _packaged = "reward_weights.json"

    forgetful: float
    confused: float
    angry: float
    disengaged: float
    extra_trial: float
    subtask_complete: float
    subtask_skip: float
    extra_timestep: float
    task_complete: float
    # cost per action, indexed by action, charged on a completing step
    assist: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        # checked wherever a value is built, ``from_dict`` and ``dataclasses.replace`` alike, and
        # stored as floats: equal weights are then equal values with equal ``indented_json``
        for name in _WEIGHT_NAMES:
            object.__setattr__(self, name, _read_weight(getattr(self, name), name))
        if not (isinstance(self.assist, tuple) and len(self.assist) == len(ACTIONS)):
            raise ConfigError(f"assist must be a tuple of {len(ACTIONS)} costs, got {self.assist!r}")
        costs = tuple(_read_weight(cost, f"assist.{a.code}") for a, cost in zip(ACTIONS, self.assist))
        object.__setattr__(self, "assist", costs)

    @classmethod
    def from_dict(cls, doc: Any) -> "RewardWeights":
        doc = read_object(doc, "reward weights", (*_WEIGHT_NAMES, "assist"))
        costs = read_object(doc["assist"], "assist", [a.code for a in ACTIONS])
        return cls(**{name: doc[name] for name in _WEIGHT_NAMES}, assist=tuple(costs[a.code] for a in ACTIONS))

    def to_dict(self) -> dict:
        doc: dict = {name: getattr(self, name) for name in _WEIGHT_NAMES}
        doc["assist"] = {a.code: self.assist[a] for a in ACTIONS}
        return doc


# every scalar weight, in field and document order
_WEIGHT_NAMES = tuple(f.name for f in fields(RewardWeights) if f.name != "assist")


def compute_reward(next_state: StatusVector, events: StepEvents, weights: RewardWeights) -> float:
    """Immediate reward for a step that landed in ``next_state`` with ``events``."""
    if events.subtask_completed and events.subtask_skipped:
        raise ValueError("a step cannot both complete and skip a subtask")
    r = (
        weights.forgetful * next_state.forgetful
        + weights.confused * next_state.confused
        + weights.angry * next_state.angry
        + weights.disengaged * next_state.disengaged
        + weights.extra_trial * events.delta_trial
        + weights.extra_timestep * events.delta_timestep
    )
    if events.subtask_completed:
        r += weights.subtask_complete + weights.assist[events.action_taken]
    if events.subtask_skipped:
        r += weights.subtask_skip
    if events.task_completed:
        r += weights.task_complete
    return r
