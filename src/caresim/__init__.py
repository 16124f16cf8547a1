"""caresim: a seedable simulator of dementia-caregiving interactions.

A probabilistic model of a person living with dementia performing
multi-step daily tasks, a tabular Q-learning caregiver agent choosing
among four verbal assistance levels, the training and evaluation protocol
around it, and a pluggable text layer that renders states as behavior and
actions as caregiver speech.
"""

__version__ = "0.1.0"

from .agent import (
    ConstantEpsilon,
    ExponentialDecayEpsilon,
    TrainingConfig,
    epsilon_at,
    extract_policy,
    train,
)
from .behavior import TemplateBackend, narrate, perceive
from .config import ConfigError
from .env import CaregivingEnv
from .evaluation import evaluate_policy, random_actor, select_final_policy
from .reward import RewardWeights, compute_reward
from .scenario import ScenarioSpec, StepEvents
from .states import ACTIONS, AssistAction, Policy, StatusVector
from .transition import TransitionModel, onset_probability

__all__ = [
    "ACTIONS",
    "AssistAction",
    "CaregivingEnv",
    "ConfigError",
    "ConstantEpsilon",
    "ExponentialDecayEpsilon",
    "Policy",
    "RewardWeights",
    "ScenarioSpec",
    "StatusVector",
    "StepEvents",
    "TemplateBackend",
    "TrainingConfig",
    "TransitionModel",
    "compute_reward",
    "epsilon_at",
    "evaluate_policy",
    "extract_policy",
    "narrate",
    "onset_probability",
    "perceive",
    "random_actor",
    "select_final_policy",
    "train",
]
