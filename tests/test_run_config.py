"""Each command's configuration value: its manifest ``config`` is ``to_dict()``, and ``from_dict`` rebuilds it."""

from __future__ import annotations

import hashlib
import json
import platform

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_env import models, policies, reward_weights, scenarios

import caresim.cli
from caresim import (ConfigError, ConstantEpsilon, ExponentialDecayEpsilon, Policy, RewardWeights, ScenarioSpec,
                     TrainingConfig, TransitionModel)
from caresim.behavior import ASSIST_GUIDANCE, PromptVariant
from caresim.cli import main
from caresim.config import render_json
from caresim.env import DOCUMENTS
from caresim.evaluation import EvaluateConfig
from caresim.llm import HttpBackendConfig
from caresim.session import SimulateConfig

SMOKE_TRAIN = ["train", "--epochs", "2", "--episodes", "10", "--snapshot-rollouts", "2"]
probabilities = st.floats(0.0, 1.0)
seeds = st.integers(-(2**70), 2**70)


def _documents(draw) -> dict:
    return {"model": draw(models()), "scenario": draw(scenarios()), "weights": draw(reward_weights())}


@st.composite
def schedules(draw):
    if draw(st.booleans()):
        return ConstantEpsilon(draw(probabilities))
    low, high = sorted([draw(probabilities), draw(probabilities)])
    return ExponentialDecayEpsilon(low, high, draw(st.floats(1e-300, 1e300)))


@st.composite
def training_configs(draw) -> TrainingConfig:
    episodes = draw(st.integers(1, 100))
    return TrainingConfig(
        **_documents(draw), schedule=draw(schedules()), seed=draw(seeds),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)), gamma=draw(st.floats(0.0, 1.0, exclude_max=True)),
        epochs=draw(st.integers(1, 10**6)), episodes_per_epoch=episodes,
        snapshot_episode=draw(st.integers(1, episodes)), snapshot_rollouts=draw(st.integers(0, 10**4)),
        final_policy_window=draw(st.integers(0, 10**4)), perception_noise=draw(probabilities),
    )


@st.composite
def evaluate_configs(draw) -> EvaluateConfig:
    mode = draw(st.sampled_from(["policy", "baseline-random", "select-final"]))
    inputs = {
        "policy": {"policy": draw(st.text()), "policy_id": draw(policies).policy_id},
        "baseline-random": {},
        "select-final": {"log": draw(st.text()), "log_sha256": hashlib.sha256(draw(st.binary())).hexdigest()},
    }[mode]
    return EvaluateConfig(**_documents(draw), mode=mode, rollouts=draw(st.integers(1, 10**6)), seed=draw(seeds),
                          **inputs)


# model names: letters, digits, punctuation and symbols, so no whitespace or line break around them
names = st.text(st.characters(categories=["L", "N", "P", "S"]), min_size=1)


@st.composite
def http_configs(draw) -> HttpBackendConfig:
    return HttpBackendConfig(
        base_url=draw(st.sampled_from(["http://127.0.0.1:9/v1", "https://example.com/api/v1", "http://[::1]:8000"])),
        model=draw(names), temperature=draw(st.floats(0.0, 1e300)), timeout_ms=draw(st.integers(1, 10**9)),
        max_retries=draw(st.integers(0, 100)),
    )


@st.composite
def simulate_configs(draw) -> SimulateConfig:
    http = draw(st.none() | http_configs())
    return SimulateConfig(
        **_documents(draw), policy=draw(st.text()), policy_id=draw(policies).policy_id,
        backend="template" if http is None else "http", noise=draw(probabilities), use_perceived=draw(st.booleans()),
        variant=PromptVariant(draw(st.sampled_from(list(ASSIST_GUIDANCE))), draw(st.booleans())),
        seed=draw(seeds), http=http,
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(training_configs(), evaluate_configs(), simulate_configs()))
def test_from_dict_rebuilds_the_value_from_its_rendered_record(value):
    record = json.loads(render_json(value.to_dict()))
    assert type(value).from_dict(record) == value
    assert render_json(type(value).from_dict(record).to_dict()) == render_json(value.to_dict())


@settings(max_examples=60, deadline=None)
@given(st.one_of(training_configs(), evaluate_configs(), simulate_configs()))
def test_from_dict_rebuilds_the_value_from_its_record_in_memory(value):
    rebuilt = type(value).from_dict(value.to_dict())
    assert rebuilt == value
    # a record holds the documents themselves, and the rebuilt value keeps them
    assert all(getattr(rebuilt, name) is getattr(value, name) for name, _, _ in DOCUMENTS)


def _record(cls) -> dict:
    """A valid record of ``cls``, with the shipped documents."""
    documents = {"model": TransitionModel.default(), "scenario": ScenarioSpec.default(),
                 "weights": RewardWeights.default()}
    value = {
        TrainingConfig: lambda: TrainingConfig(**documents, schedule=ExponentialDecayEpsilon()),
        EvaluateConfig: lambda: EvaluateConfig(**documents, mode="policy", rollouts=2, policy="p.csv",
                                               policy_id="0123012301230123"),
        SimulateConfig: lambda: SimulateConfig(**documents, policy="p.csv", policy_id="0123012301230123"),
    }[cls]()
    return json.loads(render_json(value.to_dict()))


DROP = object()  # a change that removes the key
HTTP = {"base_url": "http://127.0.0.1:9/v1", "model": "m", "temperature": 0.7, "timeout_ms": 1000, "max_retries": 2}


@pytest.mark.parametrize("cls, change, message", [
    (TrainingConfig, {"seed": DROP}, "missing field 'seed'"),
    (EvaluateConfig, {"rollouts": DROP}, "missing field 'rollouts'"),
    (SimulateConfig, {"reward_weights": DROP}, "missing field 'reward_weights'"),
    (TrainingConfig, {"epsilon": 0.1}, r"unknown field\(s\) in train config: epsilon"),
    (EvaluateConfig, {"log": "x"}, r"unknown field\(s\) in evaluate config: log"),
    (SimulateConfig, {"variant": "brief"}, r"unknown field\(s\) in simulate config: variant"),
    (TrainingConfig, {"alpha": "0.05"}, "alpha must be a finite number"),
    (TrainingConfig, {"decay_rate": True}, "decay_rate must be positive and finite"),
    (EvaluateConfig, {"rollouts": 2.0}, "--rollouts must be an integer"),
    (EvaluateConfig, {"rollouts": 0}, "--rollouts must be >= 1, got 0"),
    (EvaluateConfig, {"policy_id": 5}, "policy_id must be a string"),
    (EvaluateConfig, {"policy_id": "0123"}, "policy_id must be 16 action indexes"),
    (SimulateConfig, {"policy": 5}, "policy must be a string, got 5"),
    (SimulateConfig, {"policy_id": "0123"}, "policy_id must be 16 action indexes 0-3, got '0123'"),
    (SimulateConfig, {"noise": 1.5}, r"--noise must be in \[0, 1\]"),
    (SimulateConfig, {"use_perceived": 0}, "use_perceived must be a boolean"),
    (SimulateConfig, {"seed": "0"}, "seed must be an integer"),
    (SimulateConfig, {"include_state": None}, "include_state must be a boolean"),
    (SimulateConfig, {"http": []}, "http must be an object"),
    (TrainingConfig, {"schedule": "linear"}, "schedule must be 'constant' or 'decay', got 'linear'"),
    (TrainingConfig, {"schedule": ["decay"]}, "schedule must be 'constant' or 'decay'"),
    (EvaluateConfig, {"mode": "baseline"}, "mode must be 'policy' or 'baseline-random' or 'select-final'"),
    (SimulateConfig, {"backend": "openai"}, "backend must be 'template' or 'http'"),
    (SimulateConfig, {"http": HTTP}, "backend template takes no http settings"),
    (SimulateConfig, {"backend": "http"}, "backend http needs http settings"),
    (SimulateConfig, {"backend": "http", "http": {**HTTP, "api_key": "k"}}, r"unknown field\(s\) in http: api_key"),
    (TrainingConfig, {"scenario": {"name": "s"}}, "missing field 'max_trial' in scenario"),
])
def test_from_dict_rejects_a_record_that_no_value_writes(cls, change, message):
    record = {key: value for key, value in {**_record(cls), **change}.items() if value is not DROP}
    with pytest.raises(ConfigError, match=message):
        cls.from_dict(record)


def test_from_dict_rejects_a_record_that_is_not_an_object():
    with pytest.raises(ConfigError, match="simulate config must be an object"):
        SimulateConfig.from_dict([])


@pytest.mark.parametrize("mode, inputs, message", [
    ("policy", {"policy": "p.csv"}, "mode policy needs policy_id"),
    ("baseline-random", {"policy": "p.csv"}, "mode baseline-random takes no policy"),
    ("select-final", {"log": "l.csv", "log_sha256": "AB" * 32}, "log_sha256 must be 64 lowercase hex digits"),
    ("select-final", {"log": "l.csv", "log_sha256": "ab" * 32, "policy_id": "0" * 16}, "takes no policy_id"),
])
def test_an_evaluate_value_holds_exactly_its_mode_input(mode, inputs, message):
    with pytest.raises(ConfigError, match=message):
        EvaluateConfig(TransitionModel.default(), ScenarioSpec.default(), RewardWeights.default(), mode=mode,
                       rollouts=1, **inputs)


def _manifest_config(out) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]


class _Stop(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Stop


@pytest.mark.parametrize("flags", [[], ["--schedule", "decay", "--eps-max", "0.9", "--perception-noise", "0.1"]])
def test_a_train_manifest_rebuilds_the_value_the_run_used(tmp_path, monkeypatch, flags):
    ran_with = []
    monkeypatch.setattr(caresim.cli, "train", lambda config: _stop(ran_with.append(config)))
    with pytest.raises(_Stop):
        main([*SMOKE_TRAIN, *flags, "--seed", "9", "--out-dir", str(tmp_path / "o")])
    assert TrainingConfig.from_dict(_manifest_config(tmp_path / "o")) == ran_with[0]


def _documents_of_files(folder) -> tuple[list[str], dict]:
    """Flags naming model, scenario and weights files that differ from the shipped ones, and their values."""
    model = TransitionModel.default().to_dict()
    model["base_onset"]["angry"] = 0.07
    docs = {"model": model, "scenario": {**ScenarioSpec.default().to_dict(), "name": "elsewhere"},
            "weights": {**RewardWeights.default().to_dict(), "angry": -7.0}}
    flags = []
    for name, doc in docs.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        flags += [f"--{name}", str(path)]
    classes = {"model": TransitionModel, "scenario": ScenarioSpec, "weights": RewardWeights}
    return flags, {name: classes[name].from_dict(doc) for name, doc in docs.items()}


def test_an_evaluate_manifest_rebuilds_the_value_of_its_flags_in_every_mode(tmp_path):
    assert main([*SMOKE_TRAIN, "--out-dir", str(tmp_path / "t")]) == 0
    flags, documents = _documents_of_files(tmp_path)
    policy, log = tmp_path / "t" / "policy.csv", tmp_path / "t" / "training_log.csv"
    runs = {
        "policy": (["--policy", str(policy), "--rollouts", "2"],
                   {"rollouts": 2, "policy": str(policy), "policy_id": Policy.from_file(policy).policy_id}),
        "baseline-random": (["--baseline", "random", "--seed", "3"], {"rollouts": 40, "seed": 3}),
        "select-final": (["--select-final", "--log", str(log), "--rollouts", "1"],
                         {"rollouts": 1, "log": str(log), "log_sha256": hashlib.sha256(log.read_bytes()).hexdigest()}),
    }
    for mode, (argv, fields) in runs.items():
        assert main(["evaluate", *argv, *flags, "--out-dir", str(tmp_path / mode)]) == 0
        expected = EvaluateConfig(**documents, mode=mode, **fields)
        assert EvaluateConfig.from_dict(_manifest_config(tmp_path / mode)) == expected, mode


def test_a_simulate_manifest_rebuilds_the_value_of_its_flags(tmp_path):
    policy = tmp_path / "policy.csv"
    Policy.from_id("0123012301230123").to_file(policy)
    flags, documents = _documents_of_files(tmp_path)
    assert main(["simulate", "--policy", str(policy), "--noise", "0.25", "--use-perceived", "--guidance", "detailed",
                 "--seed", "-4", *flags, "--out-dir", str(tmp_path / "o")]) == 0
    expected = SimulateConfig(**documents, policy=str(policy), policy_id="0123012301230123", noise=0.25,
                              use_perceived=True, variant=PromptVariant("detailed"), seed=-4)
    assert SimulateConfig.from_dict(_manifest_config(tmp_path / "o")) == expected


def test_an_http_simulate_manifest_rebuilds_the_value_of_its_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("CARESIM_API_KEY", "test-key")
    monkeypatch.setattr(caresim.cli, "run_session", _stop)
    policy = tmp_path / "policy.csv"
    Policy.from_id("0123012301230123").to_file(policy)
    with pytest.raises(_Stop):
        main(["simulate", "--policy", str(policy), "--backend", "http", "--base-url", HTTP["base_url"],
              "--llm-model", "m", "--timeout-ms", "1000", "--out-dir", str(tmp_path / "o")])
    expected = SimulateConfig(TransitionModel.default(), ScenarioSpec.default(), RewardWeights.default(),
                              policy=str(policy), policy_id="0123012301230123", backend="http",
                              http=HttpBackendConfig(**HTTP))
    assert SimulateConfig.from_dict(_manifest_config(tmp_path / "o")) == expected


def test_every_manifest_records_the_python_that_ran_it(tmp_path):
    assert main(["evaluate", "--baseline", "random", "--rollouts", "1", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == ["command", "version", "python", "created_utc", "config", "outputs"]
    assert platform.python_version().startswith(manifest["python"]) and manifest["python"].count(".") == 2
