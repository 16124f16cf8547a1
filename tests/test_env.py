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

from hypothesis import given, settings
from hypothesis import strategies as st

from caresim import CaregivingEnv, Policy, RewardWeights, ScenarioSpec, TransitionModel, compute_reward
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
@given(models(), scenarios(), reward_weights(), policies, st.integers(0, 2**32))
def test_step_matches_reference_stepper(model, scenario, weights, policy, seed):
    env = CaregivingEnv(model, scenario, weights)
    env_rng, ref_rng = random.Random(seed), random.Random(seed)
    for _episode in range(3):  # later episodes read the slots and outcome rows earlier ones filled
        state = env.reset(env_rng)
        reference = ReferenceStepper(model, scenario, weights, ref_rng)
        assert tuple(state) == reference.state
        done = False
        while not done:
            action = policy(env.index)
            step = env.step(action)
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
    """An environment on equal but distinct scenario and weights objects: its edge table starts cold."""
    return CaregivingEnv(model, replace(scenario), replace(weights))


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
            assert fresh_step is not warm_step  # built anew by the cold table
            assert tuple(warm_step) == tuple(fresh_step)
            assert warm_rng == fresh_rng
        # a replay on the warm env returns the very step objects of the first, built when the slots filled
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
    first = CaregivingEnv(model, scenario, weights)
    traces = [_play(first, seed) for seed in range(50)]
    second = CaregivingEnv(model, scenario, weights)
    for seed, trace in enumerate(traces):
        again = _play(second, seed)
        assert len(again) == len(trace)
        for (step, rng_state), (shared, shared_rng_state) in zip(trace, again):
            assert shared is step
            assert shared_rng_state == rng_state


def test_environments_built_alternately_on_two_weights_each_keep_their_own(model, scenario, weights):
    both = (weights, replace(weights, subtask_skip=weights.subtask_skip - 40))
    expected = [[_play(_isolated(model, scenario, w), seed) for seed in range(40)] for w in both]
    # each construction replaces the process's remembered table; the envs built before keep theirs
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
