"""Scenario structure and the subtask progression state machine.

A scenario is an ordered list of tasks, each an ordered list of subtasks.
Every interaction step is one trial at the current subtask. A subtask
completes when the post-transition status vector is all clear after at
least one trial; if the trial counter reaches the scenario's max_trial
without completion, the subtask is force-skipped. Either way progression
moves to the next subtask, and the scenario terminates once every subtask
has been completed or skipped.

Progress is one integer node, ``flat subtask index * max_trial + trial``,
with ``0 <= node < max_episode_steps``; ``max_episode_steps`` itself is the
terminal node. Every step raises the node, so node order is a topological
order of the progression. Only ``ScenarioSpec.position`` reads the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

from .config import ConfigError, Document, read_integer, read_name, read_object
from .states import ACTIONS, AssistAction

# bound on max_trial x subtasks: an environment's edge table is built whole, 8 slots per step,
# which takes about 2 s and 60 MiB at the bound
MAX_EPISODE_STEPS = 2**16


@dataclass(frozen=True)
class TaskSpec:
    name: str
    subtasks: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioSpec(Document):
    _packaged = "scenario_shopping.json"  # 6 + 2 subtasks, max_trial 5

    name: str
    max_trial: int
    tasks: tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        read_integer(self.max_trial, "max_trial", 1)
        if not self.tasks:
            raise ConfigError("scenario must contain at least one task")
        for task in self.tasks:
            if not task.subtasks:
                raise ConfigError(f"task {task.name!r} must contain at least one subtask")
        if self.max_episode_steps > MAX_EPISODE_STEPS:
            raise ConfigError(f"scenario allows {self.max_episode_steps} steps per episode "
                              f"(max_trial x subtasks), above the limit of {MAX_EPISODE_STEPS}")

    @property
    def total_subtasks(self) -> int:
        return sum(len(task.subtasks) for task in self.tasks)

    @cached_property
    def max_episode_steps(self) -> int:
        """Hard upper bound on episode length: every subtask runs to a skip. Computed once per value."""
        return self.max_trial * self.total_subtasks

    @cached_property
    def _subtask_positions(self) -> tuple[tuple[int, int], ...]:
        """(task index, subtask index within the task) of each subtask in flat order. Computed once per value."""
        return tuple((t, s) for t, task in enumerate(self.tasks) for s in range(len(task.subtasks)))

    def position(self, node: int) -> tuple[int, int, int]:
        """(task index, subtask index within the task, trial) of a non-terminal node."""
        if not 0 <= node < self.max_episode_steps:
            raise ValueError(f"node {node} is terminal or outside 0..{self.max_episode_steps - 1}")
        subtask_index, trial = divmod(node, self.max_trial)
        return (*self._subtask_positions[subtask_index], trial)

    @classmethod
    def from_dict(cls, doc: Any) -> "ScenarioSpec":
        doc = read_object(doc, "scenario", ("name", "max_trial", "tasks"))
        name = read_name(doc["name"], "scenario name")
        if not isinstance(doc["tasks"], list):
            raise ConfigError("scenario tasks must be a list")
        tasks = []
        for task_doc in doc["tasks"]:
            task_doc = read_object(task_doc, "scenario task", ("name", "subtasks"))
            task_name = read_name(task_doc["name"], "task name")
            if not isinstance(task_doc["subtasks"], list):
                raise ConfigError(f"subtasks of task {task_name!r} must be a list of names")
            subtasks = tuple(read_name(s, f"subtask name in task {task_name!r}") for s in task_doc["subtasks"])
            tasks.append(TaskSpec(task_name, subtasks))
        return cls(name=name, max_trial=doc["max_trial"], tasks=tuple(tasks))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_trial": self.max_trial,
            "tasks": [{"name": t.name, "subtasks": list(t.subtasks)} for t in self.tasks],
        }


class StepEvents(NamedTuple):
    """What happened on one interaction step, as consumed by the reward.

    A plain value, built afresh by every ``advance`` call.
    """

    delta_trial: int
    delta_timestep: int
    subtask_completed: bool
    subtask_skipped: bool
    task_completed: bool
    action_taken: AssistAction


def advance(
    node: int,
    all_clear: bool,
    action: AssistAction,
    scenario: ScenarioSpec,
) -> tuple[int, StepEvents]:
    """Register one trial's outcome at ``node`` and return the next node.

    ``all_clear`` says whether the status vector after this trial's
    transition, before any forced-skip dynamics, is all clear. Completion
    (all clear, the subtask has been attempted) is checked first; a skip
    fires only when the trial counter has reached max_trial without
    completion, so the two outcomes are mutually exclusive by construction.
    The next node is ``node + 1`` while the subtask goes on, else trial 0
    of the next subtask.
    """
    task_index, subtask_index, trial = scenario.position(node)
    completed = all_clear
    skipped = not completed and trial + 1 >= scenario.max_trial
    if not (completed or skipped):
        return node + 1, StepEvents(1, 1, False, False, False, ACTIONS[action])
    task_completed = subtask_index + 1 == len(scenario.tasks[task_index].subtasks)
    events = StepEvents(1, 1, completed, skipped, task_completed, ACTIONS[action])
    return node - trial + scenario.max_trial, events
