"""Episode environment tying together patient dynamics, scenario progression, and reward.

One step = one trial at the current subtask: the patient transitions
under the chosen assistance, the progression machine registers the
outcome, and if the trial exhausted the budget without completion the
forced-skip dynamics run within the same step. The post-skip state is the
step's successor for both the reward and any learner bootstrapping, so a
step is always a single (state, action, reward, next_state) tuple.

Random draws per step: 4 for the assisted transition, plus 4 more when a
forced skip fires, one per status in the order ``states.sample_index``
fixes. ``step`` makes them itself, on the rng's ``random`` bound at reset,
and calls no sampler. The rng is supplied at reset and owned by the
episode; independent episodes with independent rngs may run in parallel.

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

The run record's three documents are an environment's: ``documents_to_dict``
writes them into a manifest's ``config`` and ``read_config`` reads them back.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, Callable, Collection, NamedTuple

from .config import Document, JsonText, read_object
from .reward import RewardWeights, compute_reward
from .scenario import ScenarioSpec, StepEvents, advance
from .states import ALL_STATES, AssistAction, StatusVector
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
        self._skip_table = model.skip
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

    def step(self, action: AssistAction) -> EnvStep:
        draw = self._draw
        if draw is None:
            raise RuntimeError("call reset() before step()")
        node = self.node
        if node == self._end:
            raise ValueError("step() called on a finished episode")

        # the draws of states.sample_index, inlined: one per status, in bit order
        p0, p1, p2, p3 = self._onset_table[self.index][action]
        post = (draw() < p0) | (draw() < p1) << 1 | (draw() < p2) << 2 | (draw() < p3) << 3
        self.node, skips, outcomes = self._edges[node << 3 | (post == 0) << 2 | action]
        if skips:
            p0, p1, p2, p3 = self._skip_table[post]
            post = (draw() < p0) | (draw() < p1) << 1 | (draw() < p2) << 2 | (draw() < p3) << 3
        self.index = post
        return outcomes[post]


# each document of a run: the field of a command's configuration value that holds it, its key in the
# manifest's ``config``, and its class
_DOCUMENTS = (("model", "transition_model", TransitionModel), ("scenario", "scenario", ScenarioSpec),
              ("weights", "reward_weights", RewardWeights))


def documents_to_dict(value: Any) -> dict[str, JsonText]:
    """The manifest entries of the documents ``value`` holds: the text each rendered (``indented_json``)."""
    return {key: getattr(value, name).indented_json for name, key, _ in _DOCUMENTS}


def read_config(doc: Any, where: str, keys: Collection[str]) -> tuple[dict, dict[str, Document]]:
    """``doc`` as a manifest's ``config`` of exactly ``keys`` and the document keys, and its documents.

    Each document is rebuilt by its own ``from_dict`` and returned under the field name that holds it.
    """
    doc = read_object(doc, where, [*keys, *(key for _, key, _ in _DOCUMENTS)])
    return doc, {name: cls.from_dict(doc[key]) for name, key, cls in _DOCUMENTS}
