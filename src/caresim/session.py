"""Full two-agent interaction loop: narrate, perceive, decide, assist, transition.

Each timestep the simulated person behaves according to their true state,
the caregiver perceives a (possibly noisy) state from that behavior,
selects an assistance level with its policy, speaks, and the person
attempts the current subtask under that assistance. Everything is recorded
in a line-oriented transcript, returned as text; with the template backend
and a fixed seed it is byte-identical across runs.

Random draws per timestep: 4 for perception (when an rng-backed perceive
runs), 4 for the transition, plus 4 more on a forced skip.

The fixed parts of the transcript are built once, at import: the
``[f,c,a,d]`` fragment of each state (``_BITS``, by state index) and the
``Action:`` line of each action (``_ACTION_LINES``). Names and utterances are
written as they are: ``config.read_name`` and the HTTP backend let in only one
line, and so does every template bank entry, so none can start a line of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .agent import Policy
from .behavior import InteractionContext, PromptVariant, narrate, perceive, render_assist
from .env import CaregivingEnv
from .seeding import spawn_rng
from .states import ACTIONS, ALL_STATES


@dataclass
class SessionResult:
    transcript: str
    total_return: float
    timesteps: int


_BITS = tuple(f"[{s.forgetful},{s.confused},{s.angry},{s.disengaged}]" for s in ALL_STATES)
_ACTION_LINES = tuple(f"Action: {action.code} {action.label}" for action in ACTIONS)


def run_session(
    policy: Policy,
    env: CaregivingEnv,
    backend,
    seed: int = 0,
    noise: float = 0.0,
    use_perceived: bool = False,
    variant: PromptVariant = PromptVariant(),
) -> SessionResult:
    scenario = env.scenario
    rng = spawn_rng(seed, "session")
    state = env.reset(rng)
    ctx = InteractionContext(scenario_name=scenario.name)

    lines: list[str] = [
        f"Scenario: {scenario.name}",
        f"Policy: {policy.policy_id}",
        f"Prompt variant: guidance={variant.guidance} include_state={variant.include_state}",
        f"Perception noise: {noise:g}  decisions use: {'perceived' if use_perceived else 'true'} state",
        "",
    ]
    total = 0.0
    timestep = 0
    while True:
        timestep += 1
        task_index, subtask_index, trial = scenario.position(env.node)
        task = scenario.tasks[task_index]
        ctx.task_name = task.name
        ctx.subtask_name = task.subtasks[subtask_index]

        behavior = narrate(state, ctx, backend)
        ctx.history.append(("PLWD", f"{behavior.nonverbal} | {behavior.verbal}".strip()))  # empty verbal: "x |"
        perceived = perceive(behavior, backend, noise=noise, rng=rng)
        decision_state = perceived.state if use_perceived else state
        action = policy(decision_state.index)
        utterance = render_assist(action, ctx, variant, state, backend=backend)
        ctx.latest_assistance = utterance
        if utterance:
            ctx.history.append(("Caregiver", utterance))

        step = env.step(action)
        total += step.reward

        lines.extend(
            [
                f"=== Timestep {timestep} ===",
                f"TrueState: {_BITS[state.index]}",
                f"PLWD: {behavior.nonverbal} | {behavior.verbal}",
                f"Perceived: {_BITS[perceived.state.index]}",
                _ACTION_LINES[action],
                f"Robot: {utterance}",
                f"Reward: {step.reward:g}",
                f"Progress: task {task_index + 1} subtask {subtask_index + 1} trial {trial + 1}"
                + (" [completed]" if step.events.subtask_completed else "")
                + (" [skipped]" if step.events.subtask_skipped else ""),
            ]
        )
        if step.done:
            break
        state = step.next_state

    lines.extend(["", "=== Episode complete ===", f"Return: {total:g}", f"Timesteps: {timestep}"])
    return SessionResult(transcript="\n".join(lines) + "\n", total_return=total, timesteps=timestep)
