"""CaregivingEnv.step against a reference stepper written from the README rules.

The reference recomputes every probability from the raw model parameters,
which it reads from ``model.to_dict()`` once per stepper, and the reward
from the weights on each step, builds fresh values, and draws from its
own rng; the environment must agree with it on every field of every step
and leave its rng in the same state, which pins the draw accounting (4
draws per step, 8 when a forced skip fires).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caresim import CaregivingEnv, Policy, RewardWeights, ScenarioSpec, TransitionModel, compute_reward
from caresim.env import _edge_table
from caresim.scenario import MAX_EPISODE_STEPS, advance
from caresim.states import ACTIONS, ALL_STATES, STATUS_NAMES

FORGETFUL, CONFUSED, ANGRY, DISENGAGED = range(4)

probabilities = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def models(draw) -> TransitionModel:
    doc = {
        "base_onset": {name: draw(probabilities) for name in STATUS_NAMES},
        "persistence": {name: draw(probabilities) for name in STATUS_NAMES},
        "influence": {
            src: {dst: draw(probabilities) for dst in STATUS_NAMES if dst != src} for src in STATUS_NAMES
        },
        "assist_overrides": {},
        "skip_persistence": {
            name: draw(probabilities) for name in ("cognitive_pair", "cognitive_alone", "angry", "disengaged")
        },
    }
    for action in ACTIONS:
        overridden = draw(st.lists(st.sampled_from(STATUS_NAMES), unique=True))
        if overridden:
            doc["assist_overrides"][action.code] = {
                name: {"persist": draw(probabilities), "onset": draw(probabilities)} for name in overridden
            }
    return TransitionModel.from_dict(doc)


@st.composite
def scenarios(draw) -> ScenarioSpec:
    tasks = [
        {"name": f"t{t}", "subtasks": [f"s{t}.{s}" for s in range(draw(st.integers(1, 3)))]}
        for t in range(draw(st.integers(1, 3)))
    ]
    return ScenarioSpec.from_dict({"name": "drawn", "max_trial": draw(st.integers(1, 5)), "tasks": tasks})


# integer weights keep every reward exact whatever order the terms are summed in
weight_values = st.integers(min_value=-20, max_value=60).map(float)


@st.composite
def reward_weights(draw) -> RewardWeights:
    names = ("forgetful", "confused", "angry", "disengaged", "extra_trial", "subtask_complete",
             "subtask_skip", "extra_timestep", "task_complete")
    doc = {name: draw(weight_values) for name in names}
    doc["assist"] = {action.code: draw(weight_values) for action in ACTIONS}
    return RewardWeights.from_dict(doc)


policies = st.lists(st.sampled_from(ACTIONS), min_size=16, max_size=16).map(lambda a: Policy(tuple(a)))


def reference_onset(doc, state, action, status):
    """Override, else persistence, else base onset plus clamped influences, read from the raw document."""
    name = STATUS_NAMES[status]
    override = doc["assist_overrides"].get(action.code, {}).get(name)
    if override is not None:
        return override["persist"] if state[status] else override["onset"]
    if state[status]:
        return doc["persistence"][name]
    onset = doc["base_onset"][name] + sum(doc["influence"][src].get(name, 0.0)
                                          for other, src in enumerate(STATUS_NAMES)
                                          if other != status and state[other])
    return min(1.0, max(0.0, onset))


def reference_skip_persistence(rules, state, status):
    """Absent statuses stay off; present ones persist by the skip rules."""
    if not state[status]:
        return 0.0
    if status in (FORGETFUL, CONFUSED):
        both = state[FORGETFUL] and state[CONFUSED]
        return rules["cognitive_pair"] if both else rules["cognitive_alone"]
    return rules["angry"] if status == ANGRY else rules["disengaged"]


def sample(probs, rng):
    return tuple(1 if rng.random() < p else 0 for p in probs)


class ReferenceStepper:
    def __init__(self, model, scenario, weights, rng):
        self.doc, self.scenario, self.weights, self.rng = model.to_dict(), scenario, weights, rng
        self.state = (0, 0, 0, 0)
        self.task = self.subtask = self.trial = self.timestep = 0
        self.terminal = False

    def step(self, action):
        doc, scenario, weights = self.doc, self.scenario, self.weights
        post = sample([reference_onset(doc, self.state, action, s) for s in range(4)], self.rng)
        self.trial += 1
        self.timestep += 1
        completed = post == (0, 0, 0, 0)
        skipped = not completed and self.trial == scenario.max_trial
        task_completed = False
        if completed or skipped:
            self.trial = 0
            self.subtask += 1
            if self.subtask == len(scenario.tasks[self.task].subtasks):
                task_completed = True
                self.task += 1
                self.subtask = 0
                self.terminal = self.task == len(scenario.tasks)
        if skipped:
            post = sample([reference_skip_persistence(doc["skip_persistence"], post, s) for s in range(4)], self.rng)
        reward = (
            sum(w * bit for w, bit in zip((weights.forgetful, weights.confused, weights.angry,
                                           weights.disengaged), post))
            + weights.extra_trial
            + weights.extra_timestep
            + (weights.subtask_complete + weights.assist[action] if completed else 0.0)
            + (weights.subtask_skip if skipped else 0.0)
            + (weights.task_complete if task_completed else 0.0)
        )
        self.state = post
        events = {
            "delta_trial": 1,
            "delta_timestep": 1,
            "subtask_completed": completed,
            "subtask_skipped": skipped,
            "task_completed": task_completed,
            "action_taken": action,
        }
        return post, reward, events, self.terminal


@settings(max_examples=150, deadline=None)
@given(models(), scenarios(), reward_weights(), policies, st.integers(0, 2**32), st.booleans())
def test_step_matches_reference_stepper(model, scenario, weights, policy, seed, as_int):
    env = CaregivingEnv(model, scenario, weights)
    env_rng, ref_rng = random.Random(seed), random.Random(seed)
    for _episode in range(3):  # later episodes read the slots and outcome rows earlier ones filled
        state = env.reset(env_rng)
        reference = ReferenceStepper(model, scenario, weights, ref_rng)
        assert tuple(state) == reference.state
        done = False
        while not done:
            action = policy(env.index)
            # the rollouts and the training episode both pass plain ints; callers may pass the members
            step = env.step(int(action) if as_int else action)
            post, reward, events, done = reference.step(action)
            assert tuple(step.next_state) == post
            assert step.next_state is ALL_STATES[step.next_state.index]
            assert step.reward == reward
            assert step.events._asdict() == events
            assert step.done is done
            if done:
                assert env.node == scenario.max_episode_steps
            else:
                assert scenario.position(env.node) == (reference.task, reference.subtask, reference.trial)
            assert env_rng.getstate() == ref_rng.getstate()
            assert reference.timestep <= scenario.max_episode_steps


def _play(env, seed):
    """One episode under uniformly random actions; each step with the rng state after it."""
    rng = random.Random(seed)
    env.reset(rng)
    trace = []
    done = False
    while not done:
        step = env.step(ACTIONS[int(rng.random() * len(ACTIONS))])
        trace.append((step, rng.getstate()))
        done = step.done
    return trace


def _isolated(model, scenario, weights):
    """An environment whose edge table is built anew, shared with no environment built before it."""
    _edge_table.cache_clear()
    return CaregivingEnv(model, scenario, weights)


def _reference_play(model, scenario, weights, seed):
    """``_play`` on the reference stepper: each step's fields with the rng state after it."""
    rng = random.Random(seed)
    reference = ReferenceStepper(model, scenario, weights, rng)
    trace = []
    done = False
    while not done:
        post, reward, events, done = reference.step(ACTIONS[int(rng.random() * len(ACTIONS))])
        trace.append(((post, reward, events, done), rng.getstate()))
    return trace


def test_warm_edge_table_replays_like_a_fresh_environment(model, scenario, weights):
    warm = CaregivingEnv(model, scenario, weights)
    for seed in range(300):
        warm_trace = _play(warm, seed)
        fresh_trace = _play(_isolated(model, scenario, weights), seed)
        assert len(warm_trace) == len(fresh_trace)
        for (warm_step, warm_rng), (fresh_step, fresh_rng) in zip(warm_trace, fresh_trace):
            assert fresh_step is not warm_step  # built anew with the fresh table
            assert tuple(warm_step) == tuple(fresh_step)
            assert warm_rng == fresh_rng
        # a replay on the warm env returns the very step objects of the first, built with its table
        replay = _play(warm, seed)
        assert len(replay) == len(warm_trace)
        for (again, again_rng), (first, first_rng) in zip(replay, warm_trace):
            assert again is first
            assert again_rng == first_rng


def test_steps_reach_one_next_node_per_edge_slot(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    shared = {}
    repeats = 0
    for seed in range(50):
        rng = random.Random(seed)
        env.reset(rng)
        done = False
        while not done:
            before = env.node
            action = ACTIONS[int(rng.random() * len(ACTIONS))]
            step = env.step(action)
            # a subtask completes exactly when the post-transition state is all clear
            slot = (before, step.events.subtask_completed, action)
            repeats += slot in shared
            assert env.node == shared.setdefault(slot, env.node)
            done = step.done
    assert repeats > 100  # the 50 episodes revisit a slot 839 times


def test_environments_sharing_model_and_scenario_keep_their_own_rewards(model, scenario, weights):
    doubled = RewardWeights.from_dict(
        {key: ({a: 2 * v for a, v in value.items()} if key == "assist" else 2 * value)
         for key, value in weights.to_dict().items()}
    )
    envs = [CaregivingEnv(model, scenario, weights), CaregivingEnv(model, scenario, doubled)]
    for seed in range(20):
        traces = [_play(env, seed) for env in envs]
        for (plain, _), (double, _) in zip(*traces):
            assert plain.next_state is double.next_state
            assert plain.events == double.events
            assert double.reward == 2 * plain.reward
            assert plain.reward == compute_reward(plain.next_state, plain.events, weights)


def test_environments_on_the_same_scenario_and_weights_share_their_steps(model, scenario, weights):
    first = _isolated(model, scenario, weights)
    traces = [_play(first, seed) for seed in range(50)]
    # equal but distinct documents: the table goes by value
    second = CaregivingEnv(model, replace(scenario), replace(weights))
    assert second.scenario is not scenario and second.weights is not weights
    for seed, trace in enumerate(traces):
        again = _play(second, seed)
        assert len(again) == len(trace)
        for (step, rng_state), (shared, shared_rng_state) in zip(trace, again):
            assert shared is step
            assert shared_rng_state == rng_state


def test_environments_built_alternately_on_two_weights_each_keep_their_own(model, scenario, weights):
    both = (weights, replace(weights, subtask_skip=weights.subtask_skip - 40))
    expected = [[_play(_isolated(model, scenario, w), seed) for seed in range(40)] for w in both]
    # each construction builds its pair's table in place of the last one; the envs built before keep theirs
    envs = [(k, CaregivingEnv(model, scenario, both[k])) for k in (0, 1, 0, 1)]
    for seed in range(40):
        for k, env in envs:
            trace = _play(env, seed)
            assert [(tuple(step), rng_state) for step, rng_state in trace] == [
                (tuple(step), rng_state) for step, rng_state in expected[k][seed]
            ]
    # the two weights see the same episodes and differ in the reward of every skipping step
    skips = 0
    for plain, harsh in zip(*expected):
        for (step, _), (harsh_step, _) in zip(plain, harsh):
            skips += step.events.subtask_skipped
            assert harsh_step.reward == step.reward - 40 * step.events.subtask_skipped
    assert skips > 0


def test_environments_on_two_models_share_the_table_but_step_their_own_model(model, scenario, weights):
    doc = model.to_dict()
    doc["base_onset"] = {name: min(1.0, p + 0.3) for name, p in doc["base_onset"].items()}
    models = (model, TransitionModel.from_dict(doc))
    envs = [CaregivingEnv(m, scenario, weights) for m in models]
    for seed in range(30):
        for env in envs:
            trace = _play(env, seed)
            reference = _reference_play(env.model, scenario, weights, seed)
            assert len(trace) == len(reference)
            for (step, rng_state), ((post, reward, events, done), ref_rng_state) in zip(trace, reference):
                assert (tuple(step.next_state), step.reward, step.events._asdict(), step.done) == (
                    post, reward, events, done)
                assert rng_state == ref_rng_state


def _check_every_slot(scenario, weights):
    """Each slot holds ``advance`` at its (node, all clear, action) and ``compute_reward`` on all 16 states."""
    table = _edge_table(scenario, weights)
    end = scenario.max_episode_steps
    assert len(table) == end * 8
    for node in range(end):
        for all_clear in (False, True):
            for action in ACTIONS:
                next_node, events = advance(node, all_clear, action, scenario)
                done = next_node == end
                slot_node, skips, row = table[node << 3 | all_clear << 2 | action]
                assert slot_node == next_node
                assert skips is events.subtask_skipped
                assert len(row) == len(ALL_STATES)
                for state, step in zip(ALL_STATES, row):
                    assert step.next_state is state
                    assert step.reward == compute_reward(state, events, weights)
                    assert step.events == events
                    assert step.done is done


def test_edge_table_of_the_shipped_documents_is_advance_plus_reward(scenario, weights):
    _check_every_slot(scenario, weights)


@settings(max_examples=60, deadline=None)
@given(scenarios(), reward_weights())
def test_edge_table_is_advance_plus_reward_in_every_slot(scenario, weights):
    _check_every_slot(scenario, weights)


def test_a_scenario_of_one_subtask_tasks_at_the_step_limit_builds_its_table(weights):
    # a position lookup that scanned the tasks would make this build quadratic: over half an hour
    doc = {"name": "long", "max_trial": 1,
           "tasks": [{"name": f"t{t}", "subtasks": ["s"]} for t in range(MAX_EPISODE_STEPS)]}
    scenario = ScenarioSpec.from_dict(doc)
    try:
        table = _edge_table(scenario, weights)
        assert len(table) == 8 * MAX_EPISODE_STEPS
        # trial 0 is the last trial: every slot of the last node ends the episode
        assert {edge[0] for edge in table[-8:]} == {MAX_EPISODE_STEPS}
        assert all(edge[2][0].events.task_completed for edge in table)
    finally:
        _edge_table.cache_clear()


def test_slots_with_equal_events_and_done_share_one_row(scenario, weights):
    rows = {}
    for _node, _skips, row in _edge_table(scenario, weights):
        assert rows.setdefault((row[0].events, row[0].done), row) is row
    # the shipped scenario: 4 actions completing (last subtask of a task or not, and the final one),
    # a skip of each of the same three kinds, and a plain trial, for each action
    assert len(rows) == 4 * 7


def test_step_before_reset_and_after_the_last_step_are_errors(model, tiny_scenario, weights):
    env = CaregivingEnv(model, tiny_scenario, weights)
    with pytest.raises(RuntimeError, match="reset"):
        env.step(ACTIONS[0])
    rng = random.Random(0)
    env.reset(rng)
    # an action outside 0-3 is refused before any draw: -1 would read a3's row, 4 the row past the last
    for action in (-1, 4):
        before = (rng.getstate(), env.node, env.index)
        with pytest.raises(ValueError, match=rf"^action must be an assistance level 0-3, got {action}$"):
            env.step(action)
        assert (rng.getstate(), env.node, env.index) == before
    with pytest.raises(TypeError):
        env.step(1.5)
    assert (rng.getstate(), env.node, env.index) == before
    done = False
    while not done:
        done = env.step(ACTIONS[3]).done
    with pytest.raises(ValueError, match="finished episode"):
        env.step(ACTIONS[0])
