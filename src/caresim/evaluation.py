"""Monte Carlo policy evaluation and the final-policy selection protocol.

Returns are undiscounted sums of immediate rewards from the starting state
to episode termination (discounting applies only inside the learner's
update). Every rollout gets its own rng derived from (base seed, rollout
index), so parallel and serial evaluation agree and two evaluations with
the same base seed are identical.

``evaluate_policy`` plays a ``Policy`` through its action table, a C-level
dict lookup, so no Python frame runs per step to choose the action;
``random_actor`` keeps its one draw per step. Either way every step still
goes through ``CaregivingEnv.step``.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .config import ConfigError, read_choice, read_integer, write_csv, write_json
from .env import CaregivingEnv, documents_to_dict, read_config
from .reward import RewardWeights
from .scenario import ScenarioSpec
from .seeding import derive_seed, spawn_rngs
from .states import ACTIONS, NUM_ACTIONS, AssistAction, Policy, read_policy_id
from .transition import TransitionModel

if TYPE_CHECKING:
    from .agent import TrainingLog

# maps the env's state index (``CaregivingEnv.index``) and the episode rng to an action;
# evaluate_policy plays a Policy as the lookup ``dict(enumerate(policy.actions)).get``, which
# ignores the rng, and random_actor as itself (one draw per step); each step is one env.step
Actor = Callable[[int, random.Random], AssistAction]

# final-policy selection protocol: the most frequent late policies, and rollouts per candidate
SELECT_FINAL_CANDIDATES = 5
SELECT_FINAL_ROLLOUTS = 10000
# rollouts of ``caresim evaluate --policy`` or ``--baseline`` when ``--rollouts`` is not given
EVALUATE_ROLLOUTS = 40

# the manifest keys that name each mode's input: the policy file read and its id, no policy
# (``"policy": null``), or the training log read and the SHA-256 of its bytes
_MODE_INPUTS = {"policy": ("policy", "policy_id"), "baseline-random": ("policy",),
                "select-final": ("log", "log_sha256")}


@dataclass(frozen=True)
class EvaluateConfig:
    """What ``caresim evaluate`` runs: the documents, the mode and its input, rollouts and seed."""

    model: TransitionModel
    scenario: ScenarioSpec
    weights: RewardWeights
    mode: str
    rollouts: int
    seed: int = 0
    policy: str | None = None
    policy_id: str | None = None
    log: str | None = None
    log_sha256: str | None = None

    def __post_init__(self) -> None:
        inputs = _MODE_INPUTS[read_choice(self.mode, "mode", _MODE_INPUTS)]
        read_integer(self.rollouts, "--rollouts", 1)
        read_integer(self.seed, "seed")
        for key in ("policy", "policy_id", "log", "log_sha256"):
            value = getattr(self, key)
            if (value is None) == (key in inputs and self.mode != "baseline-random"):
                raise ConfigError(f"mode {self.mode} {'needs' if value is None else 'takes no'} {key}")
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        if self.policy_id is not None:
            read_policy_id(self.policy_id, "policy_id")
        digest = self.log_sha256
        if digest is not None and (len(digest) != 64 or digest.strip("0123456789abcdef")):
            raise ConfigError(f"log_sha256 must be 64 lowercase hex digits, got {digest!r}")

    def to_dict(self) -> dict:
        """An ``evaluate`` manifest's ``config``: the mode, its input, the rollouts and the seed."""
        inputs = {key: getattr(self, key) for key in _MODE_INPUTS[self.mode]}
        return {"mode": self.mode, **inputs, "rollouts": self.rollouts, "seed": self.seed,
                **documents_to_dict(self)}

    @classmethod
    def from_dict(cls, doc: Any) -> "EvaluateConfig":
        """The value whose ``to_dict`` is ``doc``."""
        mode = read_choice(doc.get("mode") if isinstance(doc, dict) else None, "mode", _MODE_INPUTS)
        keys = ["mode", *_MODE_INPUTS[mode], "rollouts", "seed"]
        doc, documents = read_config(doc, "evaluate config", keys)
        return cls(**documents, **{key: doc[key] for key in keys})


def random_actor(state: int, rng: random.Random) -> AssistAction:
    """Uniform action choice; consumes exactly 1 rng draw per step."""
    return ACTIONS[int(rng.random() * NUM_ACTIONS)]


def run_episode(actor: Actor, env: CaregivingEnv, rng: random.Random) -> float:
    """Play one episode to termination and return the undiscounted return."""
    env.reset(rng)
    env_step = env.step  # bound per episode, so a replaced CaregivingEnv.step still runs every step
    total = 0.0
    while True:
        step = env_step(actor(env.index, rng))
        total += step.reward
        if step.done:
            return total


@dataclass(frozen=True)
class EvaluationReport:
    policy_id: str
    num_rollouts: int
    mean_return: float
    returns: tuple[float, ...]
    seed: int

    @cached_property
    def std_return(self) -> float:
        """Population standard deviation of the returns, computed on first access."""
        return statistics.pstdev(self.returns)

    def to_dict(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "num_rollouts": self.num_rollouts,
            "mean_return": self.mean_return,
            "std_return": self.std_return,
            "seed": self.seed,
            "returns": list(self.returns),
        }

    def summary(self) -> str:
        return (
            f"policy {self.policy_id}: mean return {self.mean_return:.3f} "
            f"(std {self.std_return:.3f}, n={self.num_rollouts}, seed {self.seed})"
        )


def evaluate_policy(
    actor: Actor, env: CaregivingEnv, num_rollouts: int, base_seed: int
) -> EvaluationReport:
    """Estimate an actor's mean return over independently seeded rollouts."""
    if num_rollouts < 1:
        raise ValueError(f"num_rollouts must be >= 1, got {num_rollouts}")
    # called as get(state, rng), the rng lands in get's unused default
    play = dict(enumerate(actor.actions)).get if isinstance(actor, Policy) else actor
    returns = tuple(
        run_episode(play, env, rng) for rng in spawn_rngs(base_seed, "rollout", count=num_rollouts)
    )
    policy_id = getattr(actor, "policy_id", None) or "random"
    return EvaluationReport(
        policy_id=policy_id,
        num_rollouts=num_rollouts,
        mean_return=statistics.fmean(returns),
        returns=returns,
        seed=base_seed,
    )


def select_final_policy(
    log: TrainingLog,
    env: CaregivingEnv,
    rollouts: int = SELECT_FINAL_ROLLOUTS,
    base_seed: int = 0,
) -> tuple[Policy, list[EvaluationReport]]:
    """Pick the final policy from the most frequent late-training candidates.

    Counts policy frequency over the trailing-episode records, evaluates the
    top ``SELECT_FINAL_CANDIDATES`` (fewer if fewer are distinct), and returns the
    policy with the highest Monte Carlo mean. Candidate seeds derive from
    the policy id, so the outcome is invariant to log record order; mean
    ties break to the lowest policy id.
    """
    if not log.final_policies:
        raise ValueError("training log has no final-window policy records")
    counts = Counter(policy_id for _, policy_id in log.final_policies)
    candidates = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:SELECT_FINAL_CANDIDATES]
    reports = [
        evaluate_policy(
            Policy.from_id(policy_id), env, rollouts, derive_seed(base_seed, "candidate", policy_id)
        )
        for policy_id, _count in candidates
    ]
    best = min(reports, key=lambda r: (-r.mean_return, r.policy_id))
    return Policy.from_id(best.policy_id), reports


def export_learning_curve(path: str | Path, log: TrainingLog, strategy_label: str) -> None:
    """Write per-epoch snapshot means as CSV rows (epoch, strategy, mean_return)."""
    rows = [[rec.epoch, strategy_label, rec.mean_return] for rec in log.epochs]
    write_csv(path, [["epoch", "strategy", "mean_return"], *rows], "\r\n")


def export_report(path: str | Path, reports: Iterable[EvaluationReport]) -> None:
    """Write evaluation reports as a JSON document."""
    write_json(path, [r.to_dict() for r in reports])
