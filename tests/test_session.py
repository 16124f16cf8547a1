from __future__ import annotations

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from caresim import AssistAction, CaregivingEnv, ConfigError, Policy, ScenarioSpec, TemplateBackend
from caresim.behavior import PromptVariant
from caresim.llm import _one_line
from caresim.session import run_session

A2_EVERYWHERE = Policy(tuple([AssistAction.VERBAL_NON_DIRECTIVE] * 16))


@pytest.fixture()
def env(model, scenario, weights):
    return CaregivingEnv(model, scenario, weights)


def test_transcript_byte_identical_under_fixed_seed(env):
    kwargs = dict(policy=A2_EVERYWHERE, env=env, backend=TemplateBackend(), seed=11)
    first = run_session(**kwargs)
    second = run_session(**kwargs)
    assert first.transcript == second.transcript
    assert first.total_return == second.total_return


def test_transcript_structure(env, scenario):
    result = run_session(A2_EVERYWHERE, env, TemplateBackend(), seed=3)
    text = result.transcript
    assert "=== Timestep 1 ===" in text
    for label in ("TrueState:", "PLWD:", "Perceived:", "Action:", "Robot:", "Reward:", "Progress:"):
        assert text.count(label) == result.timesteps
    assert "=== Episode complete ===" in text
    rewards = [float(m) for m in re.findall(r"^Reward: (\S+)$", text, flags=re.M)]
    assert sum(rewards) == pytest.approx(result.total_return)
    assert result.timesteps <= scenario.max_episode_steps


def test_transcript_without_noise_perceives_exactly(env):
    result = run_session(A2_EVERYWHERE, env, TemplateBackend(), seed=5, noise=0.0)
    true_lines = re.findall(r"^TrueState: (.+)$", result.transcript, flags=re.M)
    perceived_lines = re.findall(r"^Perceived: (.+)$", result.transcript, flags=re.M)
    assert true_lines == perceived_lines


def test_noisy_perception_can_differ_and_is_recorded(env):
    result = run_session(A2_EVERYWHERE, env, TemplateBackend(), seed=5, noise=0.5, use_perceived=True)
    true_lines = re.findall(r"^TrueState: (.+)$", result.transcript, flags=re.M)
    perceived_lines = re.findall(r"^Perceived: (.+)$", result.transcript, flags=re.M)
    assert len(true_lines) == len(perceived_lines) == result.timesteps
    assert true_lines != perceived_lines


def test_noise_zero_and_use_perceived_matches_true_state_decisions(env):
    with_true = run_session(A2_EVERYWHERE, env, TemplateBackend(), seed=9, use_perceived=False)
    with_perceived = run_session(A2_EVERYWHERE, env, TemplateBackend(), seed=9, use_perceived=True)
    assert with_true.transcript.splitlines()[4:] == with_perceived.transcript.splitlines()[4:]


def test_prompt_variant_recorded_in_header(env):
    result = run_session(
        A2_EVERYWHERE,
        env,
        TemplateBackend(),
        seed=1,
        variant=PromptVariant(guidance="detailed", include_state=True),
    )
    assert "guidance=detailed include_state=True" in result.transcript


# every boundary str.splitlines splits on, and whitespace that str.strip removes
_LINE_TEXT = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\xa0\u3000ab|é") | st.characters())


@given(_LINE_TEXT)
@example("")
@example("  one line  ")
@example(" a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i ")
@example("\xa0 padded \u3000")
def test_one_line_joins_the_stripped_non_blank_lines(text):
    assert _one_line(text) == " / ".join(part.strip() for part in text.splitlines() if part.strip())


def test_scenario_name_cannot_forge_transcript_lines(model, weights):
    doc = {"name": "shop\n=== Episode complete ===\nReturn: 999", "max_trial": 5,
           "tasks": [{"name": "only task", "subtasks": ["only step"]}]}
    with pytest.raises(ConfigError, match="^scenario name must be one line"):
        ScenarioSpec.from_dict(doc)
    # the session writes a name as it is, so what loads stays inside the header line
    forged = ScenarioSpec.from_dict({**doc, "name": "shop === Episode complete === Return: 999"})
    result = run_session(A2_EVERYWHERE, CaregivingEnv(model, forged, weights), TemplateBackend(), seed=2)
    lines = result.transcript.splitlines()
    assert lines[0] == "Scenario: shop === Episode complete === Return: 999"
    assert lines[1].startswith("Policy: ")
    assert lines.count("=== Episode complete ===") == 1
    assert "Return: 999" not in lines
