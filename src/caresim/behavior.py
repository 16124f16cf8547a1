"""Text layer: states rendered as behavior, behavior read back as states,
actions rendered as caregiver speech.

Two interchangeable backends drive the three operations. The template
backend is a pure function of its inputs: phrases come from per-status
banks, picked by a stable checksum of the interaction coordinates, and
every narration embeds a machine-readable state marker so perception can
be exact. ``_pick`` memoises each pick on (bank, coordinates) in a
bounded cache. One session seldom repeats its coordinates, but later
sessions in the same process repeat those of earlier ones, so each is
joined and checksummed once per process. The HTTP backend (see llm.py)
assembles structured chat-completion prompts from the builders in this
module.

Perception noise is explicit: each perceived bit flips independently with
the configured probability, which emulates caregiver misreading without
depending on a language model's failure modes. Both backends apply it
through ``add_perception_noise``, which calls ``states.flip_index``, the
flip that training observations use too: when an rng is supplied,
perception always consumes exactly 4 draws so replay alignment survives
noise changes.
"""

from __future__ import annotations

import random
import re
import zlib
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .config import ConfigError, read_choice, read_name, require_probability
from .states import ALL_STATES, STATUS_NAMES, AssistAction, StatusVector, flip_index

HISTORY_CAP = 20  # exchanges kept in InteractionContext.history


@dataclass
class InteractionContext:
    """Rolling conversational context shared by both agents."""

    scenario_name: str = ""
    task_name: str = ""
    subtask_name: str = ""
    history: deque[tuple[str, str]] = field(default_factory=lambda: deque(maxlen=HISTORY_CAP))
    latest_assistance: str = ""


@dataclass(frozen=True)
class BehaviorText:
    nonverbal: str
    verbal: str


@dataclass(frozen=True)
class PerceivedState:
    state: StatusVector


def add_perception_noise(state: StatusVector, noise: float, rng: random.Random | None) -> PerceivedState:
    """The perceived state for a state a backend read off the behavior.

    ``noise`` must lie in [0, 1]. With an rng, each bit flips with that
    probability in exactly 4 draws; without one, ``noise`` must be 0.
    """
    require_probability(noise, "noise")
    if rng is not None:
        state = ALL_STATES[flip_index(state.index, noise, rng)]
    elif noise > 0.0:
        raise ValueError("an rng is required when perception noise is positive")
    return PerceivedState(state)


@dataclass(frozen=True)
class PromptVariant:
    """Assistance-prompt variation: guidance depth (a key of ``ASSIST_GUIDANCE``) x state disclosure."""

    guidance: str = "brief"
    include_state: bool = False

    def __post_init__(self) -> None:
        read_choice(read_name(self.guidance, "guidance"), "guidance", ASSIST_GUIDANCE)
        if not isinstance(self.include_state, bool):
            raise ConfigError(f"include_state must be a boolean, got {self.include_state!r}")


class BackendError(RuntimeError):
    """Any failure of the text layer.

    A request that timed out, failed to connect or was rejected, a reply
    that could not be interpreted, and behavior text that no state vector
    can be read from. Defined here, not in ``caresim.llm``, so the CLI can
    catch it without loading the HTTP stack.
    """


# --------------------------------------------------------------------------
# state marker embedded in template narrations

_MARKER_RE = re.compile(r"\[state f=([01]) c=([01]) a=([01]) d=([01])\]")


def format_state_marker(state: StatusVector) -> str:
    return f"[state f={state.forgetful} c={state.confused} a={state.angry} d={state.disengaged}]"


def parse_state_marker(text: str) -> StatusVector:
    match = _MARKER_RE.search(text)
    if match is None:
        raise BackendError(f"no state marker found in behavior text: {text!r}")
    return StatusVector(*(int(g) for g in match.groups()))


# --------------------------------------------------------------------------
# template phrase banks: each entry is one line with no whitespace around it, written as it is

_COOPERATIVE_NONVERBAL = (
    "nods and scans the shelf, checking labels one by one",
    "picks up an item, reads the label carefully, and sets it in the basket",
    "glances between the list and the shelf, working steadily",
)
_COOPERATIVE_VERBAL = (
    "Let me see... this one matches the list.",
    "Alright, that one is done. What's next on the list?",
    "Found it. I'll put it with the others.",
)

_STATUS_NONVERBAL = {
    "forgetful": (
        "pauses mid-reach and stares at the shelf, the list hanging forgotten",
        "puts an item down, then picks it up again as if seeing it for the first time",
        "looks around the aisle, patting pockets for something",
    ),
    "confused": (
        "turns the item over repeatedly, brow furrowed",
        "looks back and forth between two similar boxes without choosing",
        "holds the list upside down for a moment before lowering it",
    ),
    "angry": (
        "sets the item down hard and crosses their arms",
        "pushes the basket away with a sharp motion",
        "exhales loudly and glares at the shelf",
    ),
    "disengaged": (
        "gaze drifts away from the shelf toward the window",
        "shoulders slump; hands rest idle on the cart handle",
        "turns slightly away, attention wandering from the task",
    ),
}

_STATUS_VERBAL = {
    "angry": (
        "I already did it! This is just annoying.",
        "Why does this keep happening? I'm done with it.",
        "Stop it. I know what I'm doing!",
    ),
    "confused": (
        "Wait, did I get the right one? What were the last ones again?",
        "Which one is it supposed to be? They look the same.",
        "I don't... this doesn't look like what it said.",
    ),
    "forgetful": (
        "What was I looking for again?",
        "I had it just now... where did I put the list?",
        "Was it this one? I can't remember.",
    ),
    "disengaged": (
        "I... I think... yeah, maybe later.",
        "Mm. Whatever's fine.",
        "",
    ),
}

# verbal tone priority when several statuses are present
_VERBAL_PRIORITY = ("angry", "confused", "forgetful", "disengaged")

_ASSIST_UTTERANCES = {
    AssistAction.NO_ASSISTANCE: ("",),
    AssistAction.VERBAL_SUPPORTIVE: (
        "Keep at it, you're doing great.",
        "Great, you're almost there. Keep going.",
        "You're doing really well. I understand it can be frustrating.",
    ),
    AssistAction.VERBAL_NON_DIRECTIVE: (
        "Is there anything missing?",
        "Can you try another way?",
        "What does the shopping list say comes next?",
    ),
    AssistAction.VERBAL_DIRECTIVE: (
        "Check the shopping list again.",
        "Look at the label and match it to the first item on the list.",
        "Put that item in the basket, then read the next line on the list.",
    ),
}


# bounded, as the coordinates grow with the scenarios a process runs: 200 sessions of the
# shipped scenario reach 932. typed, as 1, 1.0 and True are one key but three texts
@lru_cache(maxsize=4096, typed=True)
def _pick(bank: tuple[str, ...], *keys: object) -> str:
    """Stable bank selection: a crc32 of the coordinates, not a random draw."""
    digest = zlib.crc32("|".join(map(str, keys)).encode("utf-8"))
    return bank[digest % len(bank)]


class TemplateBackend:
    """Deterministic offline backend; never touches the network."""

    def narrate(self, state: StatusVector, ctx: InteractionContext) -> BehaviorText:
        active = [name for name, bit in zip(STATUS_NAMES, state) if bit]
        coords = (ctx.scenario_name, ctx.task_name, ctx.subtask_name, len(ctx.history))
        if not active:
            nonverbal = _pick(_COOPERATIVE_NONVERBAL, "nv", *coords)
            verbal = _pick(_COOPERATIVE_VERBAL, "v", *coords)
        else:
            fragments = [_pick(_STATUS_NONVERBAL[name], "nv", name, *coords) for name in active]
            nonverbal = "; ".join(fragments)
            tone = next(name for name in _VERBAL_PRIORITY if name in active)
            verbal = _pick(_STATUS_VERBAL[tone], "v", tone, *coords)
        nonverbal = f"{nonverbal} {format_state_marker(state)}"
        return BehaviorText(nonverbal=nonverbal, verbal=verbal)

    def perceive(
        self, behavior: BehaviorText, noise: float, rng: random.Random | None
    ) -> PerceivedState:
        state = parse_state_marker(behavior.nonverbal + "\n" + behavior.verbal)
        return add_perception_noise(state, noise, rng)

    def render_assist(
        self,
        action: AssistAction,
        ctx: InteractionContext,
        variant: PromptVariant,
        state: StatusVector,
    ) -> str:
        bank = _ASSIST_UTTERANCES[action]
        return _pick(bank, "assist", action.code, ctx.task_name, ctx.subtask_name, len(ctx.history))


# --------------------------------------------------------------------------
# operations (dispatch onto whichever backend is supplied)


def narrate(state: StatusVector, ctx: InteractionContext, backend) -> BehaviorText:
    """Render the current state as verbal and nonverbal behavior."""
    state.validate()
    return backend.narrate(state, ctx)


def perceive(
    behavior: BehaviorText,
    backend,
    noise: float = 0.0,
    rng: random.Random | None = None,
) -> PerceivedState:
    """Read a state vector back out of behavior text, optionally noisily."""
    return backend.perceive(behavior, noise, rng)


def render_assist(
    action: AssistAction,
    ctx: InteractionContext,
    variant: PromptVariant,
    state: StatusVector,
    *,
    backend,
) -> str:
    """Turn the abstract assistance level into a caregiver utterance.

    ``state`` is the person's true state; only a variant with
    ``include_state`` discloses it.
    """
    return backend.render_assist(action, ctx, variant, state)


# --------------------------------------------------------------------------
# prompt builders for chat-completion backends

_STATE_GUIDELINES = """State guidelines:
- Forgetfulness: loses track of the goal or recent actions; may ask what they were doing, misplace things, or repeat completed steps.
- Confusion: cannot make sense of the current options; mixes up similar items, hesitates between choices, misreads instructions.
- Anger: frustration directed at the task or helper; sharp tone, refusals, complaints that it is annoying or pointless.
- Disengagement: attention drifts away from the task; minimal or trailing speech, averted gaze, idle hands."""

_ASSIST_LEVELS = (  # (definition, examples) of each assistance level, in action order
    ("No assistance: say nothing.", "(no utterance)"),
    ("Verbal supportive assistance: encouragement to initiate, continue, or complete the task.", '"Keep at it"; "Great"'),
    ("Verbal non-directive assistance: a cue, often a question, that helps without saying exactly what to do.",
     '"Is there anything missing?"; "Can you try another way?"'),
    ("Verbal directive assistance: a direct statement of what to do next.",
     '"Check the recipe again"; "The date needs to be filled in on the check"'),
)

# the assist prompt's guidance block by guidance name; its keys are the only guidance names
ASSIST_GUIDANCE = {
    "brief": "Assistance guidance:" + "".join(f"\n- {definition}" for definition, _ in _ASSIST_LEVELS),
    "detailed": "Assistance guidance (with examples):"
    + "".join(f"\n- {definition} Examples: {examples}" for definition, examples in _ASSIST_LEVELS),
}


def _task_and_history(ctx: InteractionContext) -> str:
    """The task context and the history so far, which open the narrate and assist prompts.

    The names are written as they are: ``config.read_name`` let in only one-line names.
    """
    history = "\n".join(f"{speaker}: {text}" for speaker, text in ctx.history) or "(no prior exchanges)"
    return (
        f"Task context: scenario '{ctx.scenario_name}', task '{ctx.task_name}', "
        f"current step '{ctx.subtask_name}'.\n\n"
        f"Interaction history so far:\n{history}"
    )


def _format_state_vector(state: StatusVector) -> str:
    return (
        f"[Forgetfulness={state.forgetful}, Confusion={state.confused}, "
        f"Anger={state.angry}, Disengagement={state.disengaged}]"
    )


def build_narrate_messages(state: StatusVector, ctx: InteractionContext) -> list[dict]:
    """Seven-part prompt: role, task context, history, latest assistance,
    state guidelines, state vector, output format."""
    system = (
        "You are role-playing an older adult living with moderate dementia who is "
        "performing an everyday activity with a caregiver nearby. Stay in character; "
        "respond with realistic, understated behavior, never as an assistant."
    )
    user = "\n\n".join(
        [
            _task_and_history(ctx),
            f"Latest caregiver assistance: {ctx.latest_assistance or '(none)'}",
            _STATE_GUIDELINES,
            "Your current state vector (1 = present, 0 = absent): "
            + _format_state_vector(state),
            "Output format: reply with exactly two lines.\n"
            "Nonverbal: <one sentence describing observable behavior>\n"
            "Verbal: <what you say aloud, possibly empty>",
        ]
    )
    return [{"role": "system", "content": system}, {"role": "user", "content": user}]


def build_perceive_messages(behavior: BehaviorText) -> list[dict]:
    system = (
        "You are the perception module of a caregiving robot. From a description of "
        "a person's behavior, identify their cognitive and emotional state."
    )
    user = "\n\n".join(
        [
            _STATE_GUIDELINES,
            "Observed behavior:\n"
            f"Nonverbal: {behavior.nonverbal}\n"
            f"Verbal: {behavior.verbal}",
            "Output format: reply with only a binary vector "
            "[Forgetfulness, Confusion, Anger, Disengagement], e.g. [0,1,0,0].",
        ]
    )
    return [{"role": "system", "content": system}, {"role": "user", "content": user}]


def build_assist_messages(
    action: AssistAction,
    ctx: InteractionContext,
    variant: PromptVariant,
    state: StatusVector,
) -> list[dict]:
    """Eight-part prompt: role, task context, history, current behavior,
    selected action, output format, the ``ASSIST_GUIDANCE`` block of
    ``variant.guidance``, and the state, read only with ``variant.include_state``."""
    system = (
        "You are a caregiving robot helping an older adult with dementia complete "
        "an everyday activity. Produce the exact words you will say."
    )
    last_plwd = next((text for speaker, text in reversed(ctx.history) if speaker == "PLWD"), "(none)")
    parts = [
        _task_and_history(ctx),
        f"The person's current behavior: {last_plwd}",
        f"Selected assistance level: {action.code} ({action.label}).",
        "Output format: reply with a single line, the utterance only; reply with an "
        "empty line if the assistance level is no assistance.",
        ASSIST_GUIDANCE[variant.guidance],
    ]
    if variant.include_state:
        parts.append("The person's current state vector: " + _format_state_vector(state))
    return [{"role": "system", "content": system}, {"role": "user", "content": "\n\n".join(parts)}]
