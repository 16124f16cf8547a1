"""Episode environment tying together patient dynamics, scenario progression, and reward.

One step = one trial at the current subtask: the patient transitions
under the chosen assistance, the progression machine registers the
outcome, and if the trial exhausted the budget without completion the
forced-skip dynamics run within the same step. The post-skip state is the
step's successor for both the reward and any learner bootstrapping, so a
step is always a single (state, action, reward, next_state) tuple.

Random draws per step: 4 for the assisted transition, plus 4 more when a
forced skip fires, one per status in the order ``states.sample_index``
fixes. A forced skip (1-2% of steps) calls ``sample_index``; the assisted
transition, on every step, makes the same draws inline on the rng's
``random`` bound at reset, each compared in a branch and its bit added, and
the step sums its edge slot as integers, so that CPython's specializing
interpreter runs every compare, add and subscript of the step in its int,
float or tuple form. An action outside 0-3 is a ``ValueError`` raised
before any draw. The rng is supplied at reset and owned by the episode;
independent episodes with independent rngs may run in parallel.

Every step of every caller goes through ``CaregivingEnv.step`` as looked
up on the class when the episode starts: the rollout and training loops
bind ``env.step`` once per episode, never at import, so a wrapper put on
the class attribute (a profiler's, a test's) sees each step.

The stepping core runs on integers. The environment keeps ``index``, the
status index that the learner and the evaluators act on, and ``node``,
the scenario's progress node (``ScenarioSpec.position`` reads it). Each
step looks its outcome up in an edge table with one slot per (node,
post-transition state is all clear, action), which is exactly what
``advance`` takes. A slot holds the next node, whether a forced skip
fires, and an outcome row: the 16 finished ``EnvStep``s of that slot,
indexed by the step's final state. A step returns an element of its row
and builds no object.

The table is a pure function of the scenario and the reward weights (the
transition model is read on every step and never stored in a slot), so
``_edge_table`` builds it whole and keeps the last one built: every slot
from ``advance`` and, for each new (events, done) pair, ``compute_reward``
over all 16 states, so those stay the only sources of progression and
reward. Slots that yield the same events and done share one row.
Environments built on equal scenarios and equal weights share one table,
and so return the very same ``EnvStep`` objects; building one on another
pair builds that pair's table, and environments built earlier keep theirs.

The run record's three documents are an environment's, and ``DOCUMENTS`` is
the one table that names them: ``documents_to_dict`` puts them in a command
value's record and ``read_config`` takes them back out of one.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, Callable, Collection, NamedTuple

from .config import Document, read_object
from .reward import RewardWeights, compute_reward
from .scenario import ScenarioSpec, StepEvents, advance
from .states import ALL_STATES, AssistAction, StatusVector, sample_index
from .transition import TransitionModel


class EnvStep(NamedTuple):
    next_state: StatusVector
    reward: float
    events: StepEvents
    done: bool


@lru_cache(maxsize=1)
def _edge_table(scenario: ScenarioSpec, weights: RewardWeights) -> tuple[tuple[int, bool, tuple[EnvStep, ...]], ...]:
    """Every slot ``node << 3 | all clear << 2 | action`` -> (next node, skip fires, outcome row)."""
    end = scenario.max_episode_steps  # the terminal node
    rows: dict[tuple[StepEvents, bool], tuple[EnvStep, ...]] = {}  # (events, done) -> outcome row
    edges = []
    for slot in range(end << 3):
        node, events = advance(slot >> 3, bool(slot & 4), slot & 3, scenario)
        done = node == end
        row = rows.get((events, done))
        if row is None:
            row = rows[events, done] = tuple(
                EnvStep(state, compute_reward(state, events, weights), events, done) for state in ALL_STATES
            )
        edges.append((node, events.subtask_skipped, row))
    return tuple(edges)


class CaregivingEnv:
    """Sequential single-episode environment with reset/step semantics.

    ``model``, ``scenario`` and ``weights`` are fixed for the life of the
    environment. Its edge table is ``_edge_table(scenario, weights)``, built
    by the first environment on those values and shared with every later
    one in the process until another pair is built.
    """

    def __init__(self, model: TransitionModel, scenario: ScenarioSpec, weights: RewardWeights):
        self.model = model
        self.scenario = scenario
        self.weights = weights
        self._onset_table = model.onset
        self._draw: Callable[[], float] | None = None  # the episode rng's ``random``, bound at reset
        self._end = scenario.max_episode_steps  # the terminal node
        self._edges = _edge_table(scenario, weights)
        self.index = 0
        self.node = 0

    def reset(self, rng: random.Random) -> StatusVector:
        """Start a fresh episode at the all-clear state, driven by ``rng``."""
        self._draw = rng.random
        self.index = 0
        self.node = 0
        return ALL_STATES[0]

    def step(self, action: AssistAction | int) -> EnvStep:
        """One trial under ``action``, an assistance level 0-3 (an ``AssistAction`` or its int).

        An integer outside 0-3 is a ``ValueError``, and an action that is no
        integer the ``TypeError`` of the onset table's index, both raised
        before any draw.
        """
        draw = self._draw
        if draw is None:
            raise RuntimeError("call reset() before step()")
        node = self.node
        if node == self._end:
            raise ValueError("step() called on a finished episode")
        if action < 0 or action > 3:  # before any draw: -1 would read a3's row, 4 past the last
            raise ValueError(f"action must be an assistance level 0-3, got {action!r}")

        # the draws of states.sample_index, inlined and in its form: one per status, in bit order, each
        # compared in a branch and its bit added, which CPython specializes (`|` and `<<` on bools it does not)
        p0, p1, p2, p3 = self._onset_table[self.index][action]
        post = 1 if draw() < p0 else 0
        if draw() < p1:
            post += 2
        if draw() < p2:
            post += 4
        if draw() < p3:
            post += 8
        # the slot node << 3 | all clear << 2 | action, summed as integers
        self.node, skips, outcomes = self._edges[node * 8 + (4 if post == 0 else 0) + action]
        if skips:
            post = sample_index(self.model.skip[post], draw.__self__)  # the episode's rng
        self.index = post
        return outcomes[post]


# each document of a run: the field of a command's configuration value that holds it (and the command-line
# option that names its file), its key in the manifest's ``config``, and its class
DOCUMENTS = (("model", "transition_model", TransitionModel), ("scenario", "scenario", ScenarioSpec),
             ("weights", "reward_weights", RewardWeights))


def documents_to_dict(value: Any) -> dict[str, Document]:
    """The record entries of the documents ``value`` holds: the documents themselves (``render_json`` splices them)."""
    return {key: getattr(value, name) for name, key, _ in DOCUMENTS}


def read_config(doc: Any, where: str, keys: Collection[str]) -> tuple[dict, dict[str, Document]]:
    """``doc`` as a record of exactly ``keys`` and the document keys, and its documents by field name.

    An entry that already is its document is kept; one given as JSON is rebuilt by its class's ``from_dict``.
    """
    doc = read_object(doc, where, [*keys, *(key for _, key, _ in DOCUMENTS)])
    return doc, {name: item if isinstance(item := doc[key], cls) else cls.from_dict(item)
                 for name, key, cls in DOCUMENTS}
