from __future__ import annotations

import dataclasses
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caresim import AssistAction, ConfigError, ScenarioSpec
from caresim.scenario import MAX_EPISODE_STEPS, TaskSpec, advance

A0 = AssistAction.NO_ASSISTANCE


def skipped_pairs(scenario, before, events):
    """The (task, subtask) pair a step from node ``before`` skipped, read from its events."""
    return {scenario.position(before)[:2]} if events.subtask_skipped else set()


def test_default_scenario_structure(scenario):
    assert scenario.max_trial == 5
    assert len(scenario.tasks) == 2
    assert len(scenario.tasks[0].subtasks) == 6
    assert len(scenario.tasks[1].subtasks) == 2
    assert scenario.total_subtasks == 8


def test_load_scenario_from_file(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": ["a"]}]}',
        encoding="utf-8",
    )
    spec = ScenarioSpec.from_file(path)
    assert spec.max_trial == 5
    assert spec.tasks[0].subtasks == ("a",)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"name": "s", "max_trial": 5, "tasks": []}, "at least one task"),
        ({"name": "s", "max_trial": 0, "tasks": [{"name": "t", "subtasks": ["a"]}]}, "max_trial"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": []}]}, "at least one subtask"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": ["a"]}], "x": 1}, "unknown field"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": "abc"}]}, "subtasks .* must be a list"),
        ({"name": "s", "max_trial": 5, "tasks": "abc"}, "tasks must be a list"),
        ({"name": "s", "max_trial": 5, "tasks": ["abc"]}, "must be an object"),
        ({"name": "s", "max_trial": 2.7, "tasks": [{"name": "t", "subtasks": ["a"]}]}, "max_trial must be an integer"),
        ({"name": "s", "max_trial": True, "tasks": [{"name": "t", "subtasks": ["a"]}]}, "max_trial must be an integer"),
        ({"name": "s", "max_trial": "5", "tasks": [{"name": "t", "subtasks": ["a"]}]}, "max_trial must be an integer"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": [1]}]}, "subtask name .* must be a string"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": [None]}]}, "subtask name .* must be a string"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": 7, "subtasks": ["a"]}]}, "task name must be a string"),
        ({"name": None, "max_trial": 5, "tasks": [{"name": "t", "subtasks": ["a"]}]}, "scenario name must be a string"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t"}]}, "missing field 'subtasks'"),
        ({"name": "s", "max_trial": MAX_EPISODE_STEPS // 4 + 1, "tasks": [{"name": "t", "subtasks": ["a"] * 4}]},
         f"above the limit of {MAX_EPISODE_STEPS}"),
        ({"name": "s", "max_trial": 10**17, "tasks": [{"name": "t", "subtasks": ["a"]}]}, f"allows {10**17} steps"),
        ({"name": "s\ud800", "max_trial": 5, "tasks": [{"name": "t", "subtasks": ["a"]}]},
         "scenario name must be text that UTF-8 can encode"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "\udfff", "subtasks": ["a"]}]},
         "task name must be text that UTF-8"),
        ({"name": "s", "max_trial": 5, "tasks": [{"name": "t", "subtasks": ["a\ud800b"]}]},
         "subtask name .* must be text that UTF-8"),
    ],
)
def test_load_scenario_schema_violations(doc, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioSpec.from_dict(doc)


@given(st.sampled_from(["scenario", "task", "subtask"]), st.text(max_size=4),
       st.sampled_from(["{}\nPolicy: 3333333333333333", "x\r\n{}", "{}\u2028x", "{}\x85", " {}", "{}\t", "\xa0{}"]))
def test_a_name_that_is_not_one_line_is_the_same_error_however_the_scenario_is_built(level, text, fault):
    # the transcript writes each name as it is, so a value built in code must not get round from_dict's check
    name, default = fault.format(text), ScenarioSpec.default()
    doc, first = default.to_dict(), default.tasks[0]
    if level == "scenario":
        doc["name"] = name
        build = partial(dataclasses.replace, default, name=name)
    elif level == "task":
        doc["tasks"][0]["name"] = name
        build = partial(dataclasses.replace, default, tasks=(TaskSpec(name, first.subtasks), *default.tasks[1:]))
    else:
        doc["tasks"][0]["subtasks"][0] = name
        build = partial(ScenarioSpec, default.name, default.max_trial,
                        (TaskSpec(first.name, (name, *first.subtasks[1:])), *default.tasks[1:]))
    with pytest.raises(ConfigError, match="must be one line without leading or trailing whitespace") as loaded:
        ScenarioSpec.from_dict(doc)
    with pytest.raises(ConfigError) as built:
        build()
    assert str(built.value) == str(loaded.value)


def test_a_scenario_at_the_step_limit_loads():
    doc = {"name": "s", "max_trial": MAX_EPISODE_STEPS // 4, "tasks": [{"name": "t", "subtasks": ["a"] * 4}]}
    assert ScenarioSpec.from_dict(doc).max_episode_steps == MAX_EPISODE_STEPS


def test_completion_advances_subtask(scenario):
    node, events = advance(0, True, A0, scenario)
    assert events.subtask_completed and not events.subtask_skipped
    assert not events.task_completed
    assert scenario.position(node)[1:] == (1, 0)
    assert events.delta_timestep == 1
    assert not scenario.position(node)[2] > 0


def test_failed_trial_keeps_subtask(scenario):
    node, events = advance(0, False, A0, scenario)
    assert not events.subtask_completed and not events.subtask_skipped
    assert scenario.position(node)[1:] == (0, 1)
    assert scenario.position(node)[2] > 0


def test_skip_fires_at_max_trial(scenario):
    before = 4
    assert scenario.position(before) == (0, 0, 4)
    node, events = advance(before, False, A0, scenario)
    assert events.subtask_skipped and not events.subtask_completed
    assert (0, 0) in skipped_pairs(scenario, before, events)
    assert scenario.position(node)[1:] == (1, 0)


def test_completion_wins_over_skip_at_max_trial(scenario):
    before = 4
    assert scenario.position(before) == (0, 0, 4)
    node, events = advance(before, True, A0, scenario)
    assert events.subtask_completed and not events.subtask_skipped
    assert not skipped_pairs(scenario, before, events)


def test_task_and_scenario_completion(scenario):
    node = 0
    steps = 0
    task_completions = 0
    timesteps = 0
    while node != scenario.max_episode_steps:
        node, events = advance(node, True, A0, scenario)
        steps += 1
        task_completions += events.task_completed
        timesteps += events.delta_timestep
    assert steps == scenario.total_subtasks
    assert task_completions == len(scenario.tasks)
    assert timesteps == steps


def test_all_skips_also_terminates(scenario):
    node = 0
    steps = 0
    skipped = set()
    while node != scenario.max_episode_steps:
        before = node
        node, events = advance(before, False, A0, scenario)
        skipped |= skipped_pairs(scenario, before, events)
        steps += 1
    assert steps == scenario.max_episode_steps
    assert len(skipped) == scenario.total_subtasks


def test_advance_on_terminal_is_an_error(scenario):
    with pytest.raises(ValueError, match="terminal"):
        advance(scenario.max_episode_steps, True, A0, scenario)


def test_position_walks_every_trial_once_in_scenario_order(scenario):
    expected = [
        (task_index, subtask_index, trial)
        for task_index, task in enumerate(scenario.tasks)
        for subtask_index in range(len(task.subtasks))
        for trial in range(scenario.max_trial)
    ]
    assert [scenario.position(node) for node in range(scenario.max_episode_steps)] == expected
    for node in (-1, scenario.max_episode_steps):
        with pytest.raises(ValueError, match="terminal"):
            scenario.position(node)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60))
def test_episode_invariants_under_random_outcomes(outcomes):
    scenario = ScenarioSpec.from_dict(
        {
            "name": "p",
            "max_trial": 3,
            "tasks": [
                {"name": "t1", "subtasks": ["a", "b"]},
                {"name": "t2", "subtasks": ["c"]},
            ],
        }
    )
    node = 0
    steps = 0
    for index in outcomes:
        if node == scenario.max_episode_steps:
            break
        next_node, events = advance(node, index == 0, A0, scenario)
        steps += 1
        # exactly one of completed / skipped / neither, never both
        assert not (events.subtask_completed and events.subtask_skipped)
        assert next_node > node
        if next_node < scenario.max_episode_steps:
            assert scenario.position(next_node)[2] <= scenario.max_trial
        assert events.delta_timestep == 1
        node = next_node
    assert steps <= scenario.max_episode_steps


def test_episode_always_terminates_within_bound(scenario):
    rng = random.Random(7)
    for _ in range(200):
        node = 0
        steps = 0
        while node != scenario.max_episode_steps:
            node, _ = advance(node, rng.randrange(16) == 0, A0, scenario)
            steps += 1
            assert steps <= scenario.max_episode_steps
