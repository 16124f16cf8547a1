"""Core state and action types shared by every other module.

The simulated person is described by four binary statuses (forgetfulness,
confusion, anger, disengagement). A status vector packs into an integer
index in [0, 16) with forgetful as the least significant bit, then
confused, angry, disengaged.
"""

from __future__ import annotations

import random
from enum import IntEnum
from typing import NamedTuple

STATUS_NAMES = ("forgetful", "confused", "angry", "disengaged")
NUM_STATES = 16


class StatusVector(NamedTuple):
    """Binary cognitive/affective state of the simulated person.

    Each field is 0 or 1. Bit order for the packed index is
    forgetful (bit 0), confused (bit 1), angry (bit 2), disengaged (bit 3).
    """

    forgetful: int
    confused: int
    angry: int
    disengaged: int

    @property
    def index(self) -> int:
        return self.forgetful | (self.confused << 1) | (self.angry << 2) | (self.disengaged << 3)

    @classmethod
    def from_index(cls, index: int) -> "StatusVector":
        if not 0 <= index < NUM_STATES:
            raise ValueError(f"state index out of range: {index}")
        return cls(index & 1, (index >> 1) & 1, (index >> 2) & 1, (index >> 3) & 1)

    @classmethod
    def zero(cls) -> "StatusVector":
        """The all-clear starting state."""
        return cls(0, 0, 0, 0)

    def validate(self) -> None:
        for name, value in zip(STATUS_NAMES, self):
            if value not in (0, 1):
                raise ValueError(f"status '{name}' must be 0 or 1, got {value!r}")


ALL_STATES = tuple(StatusVector.from_index(i) for i in range(NUM_STATES))


class AssistAction(IntEnum):
    """The four verbal assistance levels the caregiver can select.

    A forced subtask skip is an environment event, not a selectable action.
    """

    NO_ASSISTANCE = 0
    VERBAL_SUPPORTIVE = 1
    VERBAL_NON_DIRECTIVE = 2
    VERBAL_DIRECTIVE = 3

    @property
    def code(self) -> str:
        """Short identifier used in files and on the command line (a0-a3)."""
        return f"a{self.value}"

    @property
    def label(self) -> str:
        return _ACTION_LABELS[self]

    @classmethod
    def from_code(cls, code: str) -> "AssistAction":
        try:
            return _ACTIONS_BY_CODE[code]
        except KeyError:
            raise ValueError(f"unknown assistance code: {code!r}") from None


_ACTION_LABELS = {
    AssistAction.NO_ASSISTANCE: "no assistance",
    AssistAction.VERBAL_SUPPORTIVE: "verbal supportive assistance",
    AssistAction.VERBAL_NON_DIRECTIVE: "verbal non-directive assistance",
    AssistAction.VERBAL_DIRECTIVE: "verbal directive assistance",
}

ACTIONS = tuple(AssistAction)
NUM_ACTIONS = len(ACTIONS)
_ACTIONS_BY_CODE = {a.code: a for a in ACTIONS}


def sample_index(probs: tuple[float, float, float, float], rng: random.Random) -> int:
    """Draw the four statuses in order, each on with its probability; exactly 4 draws.

    Returns the packed index of the sampled vector, so sampling allocates
    nothing. It defines the draw order of status bits: ``transition`` and
    perception noise (``flip_index``) call it, and ``CaregivingEnv.step``
    makes the same four draws inline, for the assisted transition and for
    a forced skip, as the environment tests check draw for draw.
    """
    draw = rng.random
    return (
        (draw() < probs[0])
        | (draw() < probs[1]) << 1
        | (draw() < probs[2]) << 2
        | (draw() < probs[3]) << 3
    )


def flip_index(index: int, p: float, rng: random.Random) -> int:
    """Flip each bit of a packed status index with probability ``p``; exactly 4 draws.

    The one model of perception noise: training observations and the text
    layer both go through it.
    """
    return index ^ sample_index((p,) * 4, rng)
