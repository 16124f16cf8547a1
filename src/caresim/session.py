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

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any

from .behavior import InteractionContext, PromptVariant, narrate, perceive, render_assist
from .config import ConfigError, read_choice, read_integer, read_object, require_probability
from .env import CaregivingEnv, documents_to_dict, read_config
from .reward import RewardWeights
from .scenario import ScenarioSpec
from .seeding import spawn_rng
from .states import ACTIONS, ALL_STATES, Policy, read_policy_id
from .transition import TransitionModel

if TYPE_CHECKING:
    from .llm import HttpBackendConfig

# the fields of ``SimulateConfig`` that its manifest records as they are
_PLAIN_KEYS = ("policy", "policy_id", "backend", "noise", "use_perceived", "seed")


@dataclass(frozen=True)
class SimulateConfig:
    """What ``caresim simulate`` runs: the documents, the policy, the text backend, the session's settings."""

    model: TransitionModel
    scenario: ScenarioSpec
    weights: RewardWeights
    policy: str  # the policy file's path
    policy_id: str  # the id of the policy read from it
    backend: str = "template"
    noise: float = 0.0
    use_perceived: bool = False
    variant: PromptVariant = PromptVariant()
    seed: int = 0
    http: HttpBackendConfig | None = None  # the settings of the http backend, and only of it

    def __post_init__(self) -> None:
        if not isinstance(self.policy, str):
            raise ConfigError(f"policy must be a string, got {self.policy!r}")
        read_policy_id(self.policy_id, "policy_id")
        if (self.http is None) != (read_choice(self.backend, "backend", ("template", "http")) == "template"):
            raise ConfigError(f"backend {self.backend} {'needs' if self.http is None else 'takes no'} http settings")
        require_probability(self.noise, "--noise")
        if not isinstance(self.use_perceived, bool):
            raise ConfigError(f"use_perceived must be a boolean, got {self.use_perceived!r}")
        read_integer(self.seed, "seed")

    def to_dict(self) -> dict:
        """A ``simulate`` manifest's ``config``: the variant's fields flat, the http settings or null."""
        return {"policy": self.policy, "policy_id": self.policy_id, "backend": self.backend, "noise": self.noise,
                "use_perceived": self.use_perceived, **asdict(self.variant), "seed": self.seed,
                "http": asdict(self.http) if self.http is not None else None, **documents_to_dict(self)}

    @classmethod
    def from_dict(cls, doc: Any) -> "SimulateConfig":
        """The value whose ``to_dict`` is ``doc``."""
        variant_keys = [f.name for f in fields(PromptVariant)]
        doc, documents = read_config(doc, "simulate config", [*_PLAIN_KEYS, *variant_keys, "http"])
        http = doc["http"]
        if http is not None:
            from .llm import HttpBackendConfig  # the HTTP stack loads only for an http run

            http = HttpBackendConfig(**read_object(http, "http", [f.name for f in fields(HttpBackendConfig)]))
        variant = PromptVariant(**{key: doc[key] for key in variant_keys})
        return cls(**documents, **{key: doc[key] for key in _PLAIN_KEYS}, variant=variant, http=http)

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
