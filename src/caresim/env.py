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
``advance`` takes. A slot holds the next
node, whether a forced skip fires, and an outcome row: the 16 finished
``EnvStep``s of that slot, indexed by the step's final state. A slot is
filled the first time an episode reaches it, by ``advance`` and, for each
new (events, done) pair, ``compute_reward`` over all 16 states, so those
stay the only sources of progression and reward. Slots that yield the
same events and done share one row. A step returns an element of its row
and builds no object.

The table depends on the scenario and the reward weights alone (the
transition model is read on every step and never stored in a slot), so it
is kept per process: this module remembers the table of the last
(scenario, weights) pair an environment was built on, compared by
identity, and an environment built on the same two objects shares it and
starts warm. Building one on any other pair starts a new table and makes
it the remembered one; environments built earlier keep the table they
have.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .reward import RewardWeights, compute_reward
from .scenario import ScenarioSpec, StepEvents, advance
from .states import ALL_STATES, AssistAction, StatusVector
from .transition import TransitionModel


class EnvStep(NamedTuple):
    next_state: StatusVector
    reward: float
    events: StepEvents
    done: bool


# (scenario, weights, edge slots, outcome rows) of the last pair an environment was built on;
# holding the two objects keeps their ids from being reused while the table is remembered
_shared: tuple = (None, None, [], {})


class CaregivingEnv:
    """Sequential single-episode environment with reset/step semantics.

    ``model``, ``scenario`` and ``weights`` are fixed for the life of the
    environment. The edge table fills in as episodes reach new slots and is
    shared with every other environment in the process built on the same
    ``scenario`` and ``weights`` objects, unless another pair was used in
    between; construction allocates at most one empty slot list.
    """

    def __init__(self, model: TransitionModel, scenario: ScenarioSpec, weights: RewardWeights):
        self.model = model
        self.scenario = scenario
        self.weights = weights
        self._onset_table = model.onset
        self._skip_table = model.skip
        self._draw: Callable[[], float] | None = None  # the episode rng's ``random``, bound at reset
        self._end = scenario.max_episode_steps  # the terminal node
        global _shared
        if _shared[0] is not scenario or _shared[1] is not weights:
            _shared = (scenario, weights, [None] * (self._end << 3), {})
        # slot (node << 3 | all clear << 2 | action) -> (next node, skip fires, outcome row),
        # None until an episode reaches the slot
        self._edges: list[tuple | None] = _shared[2]
        # (events, done) -> outcome row, shared by every slot that yields them
        self._outcomes: dict[tuple[StepEvents, bool], tuple[EnvStep, ...]] = _shared[3]
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
        slot = node << 3 | (post == 0) << 2 | action
        self.node, skips, outcomes = self._edges[slot] or self._fill_edge(slot, post == 0, action)
        if skips:
            p0, p1, p2, p3 = self._skip_table[post]
            post = (draw() < p0) | (draw() < p1) << 1 | (draw() < p2) << 2 | (draw() < p3) << 3
        self.index = post
        return outcomes[post]

    def _fill_edge(self, slot: int, all_clear: bool, action: AssistAction) -> tuple:
        """Run ``advance`` once for an unseen slot and store its outcome."""
        node, events = advance(self.node, all_clear, action, self.scenario)
        done = node == self._end
        outcomes = self._outcomes.get((events, done))
        if outcomes is None:
            outcomes = self._outcomes[events, done] = tuple(
                EnvStep(state, compute_reward(state, events, self.weights), events, done)
                for state in ALL_STATES
            )
        edge = self._edges[slot] = (node, events.subtask_skipped, outcomes)
        return edge
