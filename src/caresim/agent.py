"""Tabular Q-learning over the 16-state x 4-action space.

The Q-table persists across all epochs of a run; epochs are logging and
evaluation boundaries only. Exploration follows either a constant epsilon
or an exponential decay indexed by epoch. Forced subtask skips are
environment events, not actions: the skip penalty and post-skip state are
already folded into the step result the learner sees.

Random-draw accounting (for reproducibility):
  - each action choice consumes exactly 2 draws (explore test, choice): in
    ``select_action``, and in the training episode's inlined copy of it,
  - each environment step consumes 4 draws, or 8 when a skip fires,
  - with perception noise, each observation costs 4 more draws (``states.flip_index``).

``select_action`` and ``q_update`` are the reference definitions of the
choice and the update. The training episode runs both inline, with the same
draws and the same float operations in the same order, so it learns exactly
what a loop over the two functions learns.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from .config import (ConfigError, is_count, is_number, read_choice, read_csv, read_float, read_integer, read_number,
                     require_probability, settings, write_csv)
from .env import CaregivingEnv, documents_to_dict, read_config
from .evaluation import evaluate_policy
from .reward import RewardWeights
from .scenario import ScenarioSpec
from .seeding import derive_seed, spawn_rng
from .states import (ACTIONS, NUM_ACTIONS, NUM_STATES, POLICY_ID_DIGITS, AssistAction, Policy, flip_index,
                     is_policy_id, read_state_rows)
from .transition import TransitionModel


@dataclass(frozen=True)
class ConstantEpsilon:
    epsilon: float = 0.1
    # not fields (no annotation): the schedule's ``--schedule`` name, and its learning curve's strategy
    name = "constant"
    label = "constant-epsilon"

    def __post_init__(self) -> None:
        require_probability(self.epsilon, "epsilon")


# Calibrated so exploration has fallen to 0.8 by epoch 300: ln(1.25)/300 = 7.438e-4.
# The 0.03 floor is then reached at epoch 4715 and held from there on.
DEFAULT_DECAY_RATE = math.log(1.0 / 0.8) / 300


@dataclass(frozen=True)
class ExponentialDecayEpsilon:
    eps_min: float = 0.03
    eps_max: float = 1.0
    decay_rate: float = DEFAULT_DECAY_RATE
    name = "decay"
    label = "decaying-epsilon"

    def __post_init__(self) -> None:
        if not require_probability(self.eps_min, "eps_min") <= require_probability(self.eps_max, "eps_max"):
            raise ConfigError("need 0 <= eps_min <= eps_max <= 1")
        if not (is_number(self.decay_rate) and 0.0 < self.decay_rate < math.inf):
            raise ConfigError(f"decay_rate must be positive and finite, got {self.decay_rate!r}")


EpsilonSchedule = Union[ConstantEpsilon, ExponentialDecayEpsilon]
SCHEDULES = {schedule.name: schedule for schedule in (ConstantEpsilon, ExponentialDecayEpsilon)}


def epsilon_at(schedule: EpsilonSchedule, epoch: int) -> float:
    """Exploration probability for a given training epoch.

    The decaying schedule is the clipped exponential
    max(eps_min, eps_max * exp(-decay_rate * epoch)): it starts at eps_max,
    falls geometrically, and holds eps_min exactly once it gets there.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if isinstance(schedule, ConstantEpsilon):
        return schedule.epsilon
    return max(schedule.eps_min, schedule.eps_max * math.exp(-schedule.decay_rate * epoch))


class QTable:
    """16 x 4 action-value table, mutable during training."""

    __slots__ = ("values",)
    _header = ["state", *(a.code for a in ACTIONS)]

    def __init__(self, values: Optional[list[list[float]]] = None):
        if values is None:
            values = [[0.0] * NUM_ACTIONS for _ in range(NUM_STATES)]
        if len(values) != NUM_STATES or any(len(row) != NUM_ACTIONS for row in values):
            raise ValueError("Q-table must be 16 x 4")
        self.values = values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QTable) and self.values == other.values

    def to_file(self, path: str | Path) -> None:
        rows = [[index, *row] for index, row in enumerate(self.values)]
        write_csv(path, [self._header, *rows], "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "QTable":
        rows = read_state_rows(path, cls._header, "Q-table")
        return cls([[read_float(cell, f"Q-value in {path}") for cell in row] for row in rows])


def select_action(q: QTable, state: int, epsilon: float, rng: random.Random) -> AssistAction:
    """Epsilon-greedy action choice at a state index; ties among maxima break uniformly at random.

    Always consumes exactly 2 rng draws.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    explore = rng.random() < epsilon
    u = rng.random()
    if explore:
        return ACTIONS[int(u * NUM_ACTIONS)]
    row = q.values[state]
    best = max(row)
    if row.count(best) == 1:
        return ACTIONS[row.index(best)]
    ties = [i for i in range(NUM_ACTIONS) if row[i] == best]
    return ACTIONS[ties[int(u * len(ties))]]


def q_update(
    q: QTable,
    state: int,
    action: AssistAction,
    reward: float,
    next_state: int,
    terminal: bool,
    alpha: float,
    gamma: float,
) -> None:
    """Standard one-step update between state indexes; terminal steps bootstrap from zero."""
    row = q.values[state]
    target = reward if terminal else reward + gamma * max(q.values[next_state])
    row[action] += alpha * (target - row[action])


def _greedy_policy_id(q: QTable) -> str:
    """The id of the greedy policy; ties break to the lowest action index (deterministic)."""
    return "".join([POLICY_ID_DIGITS[row.index(max(row))] for row in q.values])


def extract_policy(q: QTable) -> Policy:
    """Greedy policy, by ``_greedy_policy_id``'s rule."""
    return Policy.from_id(_greedy_policy_id(q))


@dataclass(frozen=True)
class TrainingConfig:
    model: TransitionModel
    scenario: ScenarioSpec
    weights: RewardWeights
    schedule: EpsilonSchedule
    seed: int = 0
    alpha: float = 0.05
    gamma: float = 0.95
    epochs: int = 6000
    episodes_per_epoch: int = 30
    # policy snapshot taken at this (1-based) episode of each epoch
    snapshot_episode: int = 10
    # rollouts per snapshot evaluation; 0 disables the evaluation (policy is still logged)
    snapshot_rollouts: int = 40
    # greedy policies recorded after each of this many trailing episodes
    final_policy_window: int = 100
    # 0 trains on the true state; > 0 flips each observed bit with this probability
    perception_noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < read_number(self.alpha, "alpha") <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= read_number(self.gamma, "gamma") < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        read_integer(self.seed, "seed")
        read_integer(self.epochs, "epochs", 1)
        read_integer(self.episodes_per_epoch, "episodes_per_epoch", 1)
        if read_integer(self.snapshot_episode, "snapshot_episode", 1) > self.episodes_per_epoch:
            raise ConfigError("snapshot_episode must fall inside each epoch")
        read_integer(self.snapshot_rollouts, "snapshot_rollouts", 0)
        read_integer(self.final_policy_window, "final_policy_window", 0)
        require_probability(self.perception_noise, "perception_noise")

    def to_dict(self) -> dict:
        """A ``train`` manifest's ``config``: the schedule by name and its settings, then every other setting."""
        plain = {name: getattr(self, name) for name in settings(TrainingConfig)}
        return {"schedule": self.schedule.name, **asdict(self.schedule), **plain, **documents_to_dict(self)}

    @classmethod
    def from_dict(cls, doc: Any) -> "TrainingConfig":
        """The value whose ``to_dict`` is ``doc``."""
        name = doc.get("schedule") if isinstance(doc, dict) else None
        schedule = SCHEDULES[read_choice(name, "schedule", SCHEDULES)]
        doc, documents = read_config(doc, "train config", ["schedule", *settings(schedule), *settings(cls)])
        return cls(**documents, schedule=schedule(**{key: doc[key] for key in settings(schedule)}),
                   **{key: doc[key] for key in settings(cls)})


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    epsilon: float
    policy_id: str
    mean_return: float | None


@dataclass
class TrainingLog:
    """Per-epoch snapshot records plus the greedy policies of the final episodes."""

    epochs: list[EpochRecord] = field(default_factory=list)
    final_policies: list[tuple[int, str]] = field(default_factory=list)
    _header = ["record", "epoch", "episode", "epsilon", "policy", "mean_return"]  # not a field: no annotation

    def to_file(self, path: str | Path) -> None:
        snapshots = [["snapshot", rec.epoch, None, rec.epsilon, rec.policy_id, rec.mean_return]
                     for rec in self.epochs]
        finals = [["final", None, episode, None, policy_id, None]
                  for episode, policy_id in self.final_policies]
        write_csv(path, [self._header, *snapshots, *finals], "\r\n")

    @classmethod
    def from_file(cls, path: str | Path, data: bytes | None = None) -> "TrainingLog":
        """Parse a training log; ``data`` is the file's bytes if the caller has already read them."""
        log = cls()
        for row in read_csv(path, "training log", cls._header, data):
            if len(row) != 6 or row[0] not in ("snapshot", "final") or not is_policy_id(row[4]):
                raise ConfigError(f"malformed training log row in {path}: {row!r}")
            kind, epoch, episode, epsilon, policy_id, mean = row
            # the count the row's kind carries, and the cells it leaves empty, joined
            number, unused = (epoch, episode) if kind == "snapshot" else (episode, epoch + epsilon + mean)
            if not is_count(number) or unused:
                raise ConfigError(f"malformed training log row in {path}: {row!r}")
            if kind == "snapshot":
                mean_return = read_float(mean, f"mean return in {path}") if mean else None
                log.epochs.append(EpochRecord(int(number), read_float(epsilon, f"epsilon in {path}"),
                                              policy_id, mean_return))
            else:
                log.final_policies.append((int(number), policy_id))
        return log


def _run_training_episode(
    env: CaregivingEnv, q: QTable, epsilon: float, config: TrainingConfig, rng: random.Random
) -> float:
    """One learning episode: ``select_action``, ``env.step`` and ``q_update`` per step, inlined.

    Each step takes the maximum of a row once: the TD target's maximum over
    the next row is the next step's ``best``, taken again only when the step
    stayed in its row, which the update has just changed.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    noise, alpha, gamma = config.perception_noise, config.alpha, config.gamma
    values = q.values
    draw = rng.random
    env.reset(rng)
    env_step = env.step  # bound per episode, so a replaced CaregivingEnv.step still runs every step
    obs = flip_index(env.index, noise, rng) if noise else env.index
    row = values[obs]
    best = max(row)
    episode_return = 0.0
    while True:
        explore = draw() < epsilon
        u = draw()
        if explore:
            action = int(u * NUM_ACTIONS)
        elif row.count(best) == 1:
            action = row.index(best)
        else:
            ties = [i for i in range(NUM_ACTIONS) if row[i] == best]
            action = ties[int(u * len(ties))]
        step = env_step(action)
        reward = step.reward
        next_obs = flip_index(env.index, noise, rng) if noise else env.index
        if step.done:
            row[action] += alpha * (reward - row[action])
            return episode_return + reward
        next_row = values[next_obs]
        best = max(next_row)
        row[action] += alpha * (reward + gamma * best - row[action])
        episode_return += reward
        if next_obs == obs:
            best = max(row)
        obs, row = next_obs, next_row


def train(config: TrainingConfig) -> tuple[QTable, TrainingLog]:
    """Run the full training protocol and return the learned table plus its log.

    Fully deterministic in (config, seed): the training stream is derived
    from the seed, and every snapshot evaluation uses its own derived
    per-epoch stream so evaluation settings never perturb training. Snapshot
    evaluation runs between training episodes on the training environment:
    every episode starts with ``reset`` on its own rng, so sharing it
    changes no result.
    """
    env = CaregivingEnv(config.model, config.scenario, config.weights)
    q = QTable()
    rng = spawn_rng(config.seed, "train")
    log = TrainingLog()

    total_episodes = config.epochs * config.episodes_per_epoch
    final_window_start = max(0, total_episodes - config.final_policy_window)
    global_episode = 0

    for epoch in range(config.epochs):
        eps = epsilon_at(config.schedule, epoch)
        snapshot_policy: Policy | None = None
        for episode in range(config.episodes_per_epoch):
            _run_training_episode(env, q, eps, config, rng)
            if episode + 1 == config.snapshot_episode:
                snapshot_policy = extract_policy(q)
            if global_episode >= final_window_start:
                log.final_policies.append((global_episode, _greedy_policy_id(q)))
            global_episode += 1
        assert snapshot_policy is not None
        mean_return = None
        if config.snapshot_rollouts:
            report = evaluate_policy(
                snapshot_policy,
                env,
                config.snapshot_rollouts,
                derive_seed(config.seed, "snapshot", epoch),
            )
            mean_return = report.mean_return
        log.epochs.append(EpochRecord(epoch, eps, snapshot_policy.policy_id, mean_return))
    return q, log
