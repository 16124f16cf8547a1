"""Probabilistic dynamics of the simulated person's four binary statuses.

Per-status transition probabilities come from three layered rules:

1. If the selected assistance overrides the target status, the override's
   persistence (current=1) or onset (current=0) probability applies.
   Supportive assistance overrides the emotional statuses (anger,
   disengagement); non-directive and directive assistance override the
   cognitive statuses (forgetfulness, confusion).
2. Otherwise a present status persists with its fixed persistence
   probability.
3. Otherwise the status turns on with its base onset probability plus the
   additive increments contributed by every other currently-present
   status, clamped to [0, 1].

Increments apply only to onset, never to persistence. A forced subtask
skip uses its own persistence rules and never creates a new impairment:
the cognitive pair (forgetfulness, confusion) persists with
``cognitive_pair`` when both are present and ``cognitive_alone`` when only
one is, and anger and disengagement each persist with their own flat
probability.

All sampling is Bernoulli per status, conditionally independent given the
current vector, in the draw order of ``states.sample_index``: exactly 4 rng
draws in fixed status order, so replays stay aligned under model edits.
``transition`` and a forced skip call ``sample_index``; only the environment's
assisted transition makes the same draws inline. Sampled vectors are the
shared ``ALL_STATES`` instances, never fresh objects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Collection

from .config import Document, read_object, require_probability
from .states import ACTIONS, ALL_STATES, STATUS_NAMES, AssistAction, StatusVector, sample_index


def _read_probabilities(
    value: Any, where: str, required: Collection[str] = (), optional: Collection[str] = ()
) -> dict[str, float]:
    """The probabilities of an object, in the order of ``required`` and then ``optional``."""
    doc = read_object(value, where, required, optional)
    return {key: require_probability(doc[key], f"{where}.{key}") for key in (*required, *optional) if key in doc}


@dataclass(frozen=True)
class TransitionModel(Document):
    """The dynamics as one canonical document, with the tables derived from it.

    ``document`` is the compact JSON text that ``from_dict`` builds from a
    checked document: every probability a float, the statuses and actions
    in their fixed order, and only the nonzero influences. Equal documents
    therefore make equal models with equal hashes.
    """

    _packaged = "transition_model.json"

    document: str
    # onset[state index][action][status]: P(status present after the step), by the layered rules
    onset: tuple[tuple[tuple[float, ...], ...], ...] = field(init=False, repr=False, compare=False)
    # skip[state index][status]: P(status present after a forced skip)
    skip: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        doc = self.to_dict()
        overrides = [doc["assist_overrides"].get(action.code, {}) for action in ACTIONS]
        onset = tuple(
            tuple(
                tuple(_onset_rule(doc, per_status, state, status) for status in range(4))
                for per_status in overrides
            )
            for state in ALL_STATES
        )
        skip = tuple(
            tuple(_skip_rule(doc["skip_persistence"], state, status) for status in range(4))
            for state in ALL_STATES
        )
        object.__setattr__(self, "onset", onset)
        object.__setattr__(self, "skip", skip)

    @classmethod
    def from_dict(cls, doc: Any) -> "TransitionModel":
        doc = read_object(
            doc,
            "transition model",
            required=("base_onset", "persistence", "skip_persistence"),
            optional=("influence", "assist_overrides"),
        )
        base = _read_probabilities(doc["base_onset"], "base_onset", STATUS_NAMES)
        persistence = _read_probabilities(doc["persistence"], "persistence", STATUS_NAMES)
        influence_doc = read_object(doc.get("influence", {}), "influence", optional=STATUS_NAMES)
        influence = {}
        for src in STATUS_NAMES:
            others = [dst for dst in STATUS_NAMES if dst != src]
            row = _read_probabilities(influence_doc.get(src, {}), f"influence.{src}", optional=others)
            influence[src] = {dst: p for dst, p in row.items() if p}
        overrides_doc = read_object(
            doc.get("assist_overrides", {}), "assist_overrides", optional=[a.code for a in ACTIONS]
        )
        overrides = {}
        for code in [a.code for a in ACTIONS if a.code in overrides_doc]:
            per_status = read_object(overrides_doc[code], f"assist_overrides.{code}", optional=STATUS_NAMES)
            overrides[code] = {
                name: _read_probabilities(per_status[name], f"assist_overrides.{code}.{name}", ("persist", "onset"))
                for name in STATUS_NAMES if name in per_status
            }
        skip = _read_probabilities(
            doc["skip_persistence"], "skip_persistence", ("cognitive_pair", "cognitive_alone", "angry", "disengaged")
        )
        canonical = {"base_onset": base, "persistence": persistence, "influence": influence,
                     "assist_overrides": overrides, "skip_persistence": skip}
        return cls(json.dumps(canonical, separators=(",", ":")))

    def to_dict(self) -> dict:
        return json.loads(self.document)


def _onset_rule(doc: dict, overrides: dict, current: StatusVector, status: int) -> float:
    """The layered rule under an action's ``overrides``; the source of truth for the onset table."""
    name = STATUS_NAMES[status]
    override = overrides.get(name)
    if override is not None:
        return override["persist" if current[status] else "onset"]
    if current[status]:
        return doc["persistence"][name]
    total = doc["base_onset"][name]
    for other, src in enumerate(STATUS_NAMES):
        if other != status and current[other]:
            total += doc["influence"][src].get(name, 0.0)
    return min(max(total, 0.0), 1.0)


def _skip_rule(rules: dict, current: StatusVector, status: int) -> float:
    if not current[status]:
        return 0.0
    if STATUS_NAMES[status] in rules:  # anger and disengagement
        return rules[STATUS_NAMES[status]]
    return rules["cognitive_pair" if current.forgetful and current.confused else "cognitive_alone"]


def onset_probability(
    model: TransitionModel, current: StatusVector, assist: AssistAction, target: str
) -> float:
    """P(target status is present at t+1 | current vector, assistance). Pure, no sampling."""
    try:
        status = STATUS_NAMES.index(target)
    except ValueError:
        raise ValueError(f"unknown status: {target!r} (expected one of {STATUS_NAMES})") from None
    return model.onset[current.index][assist][status]


def transition(
    model: TransitionModel, current: StatusVector, assist: AssistAction, rng: random.Random
) -> StatusVector:
    """Sample the next status vector. Consumes exactly 4 rng draws."""
    return ALL_STATES[sample_index(model.onset[current.index][assist], rng)]
