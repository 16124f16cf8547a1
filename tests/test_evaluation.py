from __future__ import annotations

import math
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_env import models, reward_weights, scenarios

from caresim import (
    AssistAction,
    CaregivingEnv,
    ConstantEpsilon,
    Policy,
    TrainingConfig,
    evaluate_policy,
    random_actor,
    select_final_policy,
    train,
)
from caresim.agent import TrainingLog
from caresim.evaluation import export_learning_curve, export_report, run_episode
from caresim.seeding import derive_seed, spawn_rng

A2_EVERYWHERE = Policy(tuple([AssistAction.VERBAL_NON_DIRECTIVE] * 16))
A0_EVERYWHERE = Policy(tuple([AssistAction.NO_ASSISTANCE] * 16))


def test_degenerate_scenario_first_step_completion_return(model, tiny_scenario, weights):
    # completing the single subtask on the first trial under a2 yields
    # 50 - 3 - 1 - 1 + 20 = 65; the completing successor [0,0,0,0] occurs
    # with probability (1-0)(1-0)(1-0.05)(1-0.20) = 0.76 under a2
    env = CaregivingEnv(model, tiny_scenario, weights)
    hits = 0
    n = 20000
    for i in range(n):
        rng = spawn_rng("tiny", i)
        env.reset(rng)
        step = env.step(A2_EVERYWHERE(env.index))
        if env.index == 0:
            assert step.done
            assert step.reward == 65
            hits += 1
    assert hits / n == pytest.approx(0.76, abs=0.01)


def test_run_episode_deterministic(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    r1 = run_episode(A2_EVERYWHERE, env, random.Random(99))
    r2 = run_episode(A2_EVERYWHERE, env, random.Random(99))
    assert r1 == r2


def test_random_actor_uniform_and_single_draw(model, scenario, weights):
    rng = random.Random(41)
    counts = {a: 0 for a in AssistAction}
    n = 40000
    for _ in range(n):
        counts[random_actor(0, rng)] += 1
    for a in AssistAction:
        assert counts[a] / n == pytest.approx(0.25, abs=0.01)
    rng = random.Random(42)
    random_actor(0, rng)
    reference = random.Random(42)
    reference.random()
    assert rng.random() == reference.random()


def test_evaluate_policy_single_rollout(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    report = evaluate_policy(A2_EVERYWHERE, env, 1, base_seed=5)
    assert report.num_rollouts == 1
    assert report.mean_return == report.returns[0]
    assert report.std_return == 0.0


def test_evaluate_policy_reproducible_and_seed_sensitive(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    r1 = evaluate_policy(A2_EVERYWHERE, env, 50, base_seed=7)
    r2 = evaluate_policy(A2_EVERYWHERE, env, 50, base_seed=7)
    r3 = evaluate_policy(A2_EVERYWHERE, env, 50, base_seed=8)
    assert r1.returns == r2.returns
    assert r1.returns != r3.returns
    # different seeds estimate the same mean within sampling error
    spread = 3 * max(r1.std_return, r3.std_return) / math.sqrt(50)
    assert abs(r1.mean_return - r3.mean_return) <= spread


def test_evaluate_report_stats_recomputable(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    report = evaluate_policy(A2_EVERYWHERE, env, 30, base_seed=1)
    mean = sum(report.returns) / 30
    var = sum((r - mean) ** 2 for r in report.returns) / 30
    assert report.mean_return == pytest.approx(mean)
    assert report.std_return == pytest.approx(math.sqrt(var))


def test_report_std_is_computed_on_first_access(model, scenario, weights):
    report = evaluate_policy(A2_EVERYWHERE, CaregivingEnv(model, scenario, weights), 30, base_seed=1)
    assert "std_return" not in vars(report)
    assert report.std_return == statistics.pstdev(report.returns)
    assert list(report.to_dict()) == ["policy_id", "num_rollouts", "mean_return", "std_return", "seed", "returns"]


def test_no_assistance_policy_is_worse_in_expectation(model, scenario, weights):
    # anger is absorbing without supportive assistance, so an all-a0 actor
    # must underperform an all-a2 actor over enough rollouts
    env = CaregivingEnv(model, scenario, weights)
    good = evaluate_policy(A2_EVERYWHERE, env, 1000, base_seed=21)
    bad = evaluate_policy(A0_EVERYWHERE, env, 1000, base_seed=21)
    assert good.mean_return > bad.mean_return


def test_select_final_policy_single_candidate(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    log = TrainingLog(final_policies=[(i, A2_EVERYWHERE.policy_id) for i in range(100)])
    best, reports = select_final_policy(log, env, rollouts=20, base_seed=0)
    assert best == A2_EVERYWHERE
    assert len(reports) == 1


def test_select_final_policy_empty_log_is_an_error(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    with pytest.raises(ValueError, match="no final-window"):
        select_final_policy(TrainingLog(), env)


def test_select_final_policy_orders_by_mean_and_is_order_invariant(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    ids = [A2_EVERYWHERE.policy_id, A0_EVERYWHERE.policy_id]
    log_a = TrainingLog(final_policies=[(i, ids[i % 2]) for i in range(100)])
    log_b = TrainingLog(final_policies=[(i, ids[(i + 1) % 2]) for i in range(100)])
    best_a, reports_a = select_final_policy(log_a, env, rollouts=200, base_seed=3)
    best_b, reports_b = select_final_policy(log_b, env, rollouts=200, base_seed=3)
    assert best_a == best_b
    assert {r.policy_id: r.mean_return for r in reports_a} == {
        r.policy_id: r.mean_return for r in reports_b
    }
    assert best_a.policy_id == max(reports_a, key=lambda r: r.mean_return).policy_id
    # the winner's mean is >= every other candidate's mean by construction
    for report in reports_a:
        assert max(r.mean_return for r in reports_a) >= report.mean_return


def test_select_final_policy_caps_candidates_at_five(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    ids = ["0" * 16, "1" * 16, "2" * 16, "3" * 16, "0123012301230123", "3210321032103210"]
    entries = []
    episode = 0
    for rank, policy_id in enumerate(ids):
        for _ in range(10 - rank):  # distinct frequencies
            entries.append((episode, policy_id))
            episode += 1
    log = TrainingLog(final_policies=entries)
    _, reports = select_final_policy(log, env, rollouts=10, base_seed=0)
    assert len(reports) == 5


def test_exports_write_parseable_files(tmp_path, model, scenario, weights):
    config = TrainingConfig(
        model=model,
        scenario=scenario,
        weights=weights,
        schedule=ConstantEpsilon(0.1),
        seed=0,
        epochs=3,
        episodes_per_epoch=4,
        snapshot_episode=2,
        snapshot_rollouts=2,
        final_policy_window=5,
    )
    _, log = train(config)
    curve = tmp_path / "curve.csv"
    export_learning_curve(curve, log, "constant-epsilon")
    lines = curve.read_text().splitlines()
    assert lines[0] == "epoch,strategy,mean_return"
    assert len(lines) == 1 + config.epochs

    env = CaregivingEnv(model, scenario, weights)
    report = evaluate_policy(A2_EVERYWHERE, env, 3, base_seed=0)
    out = tmp_path / "report.json"
    export_report(out, [report])
    import json

    payload = json.loads(out.read_text())
    assert payload[0]["policy_id"] == A2_EVERYWHERE.policy_id
    assert payload[0]["num_rollouts"] == 3


policy_ids = st.text(alphabet="0123", min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(models(), scenarios(), reward_weights(), policy_ids, st.integers(0, 2**32), st.integers(1, 6))
def test_evaluate_policy_plays_the_reference_rollouts(model, scenario, weights, policy_id, seed, n):
    # the reference calls each actor once per step: Policy.__call__ for a policy
    env = CaregivingEnv(model, scenario, weights)
    for actor in (Policy.from_id(policy_id), random_actor):
        reference = tuple(run_episode(actor, env, spawn_rng(seed, "rollout", i)) for i in range(n))
        assert evaluate_policy(actor, env, n, seed).returns == reference


def reference_steps(actor, env, seed: int, n: int) -> int:
    """Steps played by n rollouts of ``actor`` seeded as evaluate_policy seeds them."""
    steps = 0
    for i in range(n):
        rng = spawn_rng(seed, "rollout", i)
        env.reset(rng)
        done = False
        while not done:
            done = env.step(actor(env.index, rng)).done
            steps += 1
    return steps


@pytest.fixture
def step_count(monkeypatch):
    """The number of CaregivingEnv.step calls since the test began, read as ``step_count[0]``."""
    count = [0]
    step = CaregivingEnv.step

    def counted(self, action):
        count[0] += 1
        return step(self, action)

    monkeypatch.setattr(CaregivingEnv, "step", counted)
    return count


def test_every_rollout_step_goes_through_env_step(model, scenario, weights, step_count):
    # env_steps_per_s and the env.step spans of the benchmark count these calls
    env = CaregivingEnv(model, scenario, weights)
    for actor in (A2_EVERYWHERE, random_actor):
        expected = reference_steps(actor, env, 11, 25)
        step_count[0] = 0
        evaluate_policy(actor, env, 25, base_seed=11)
        assert step_count[0] == expected

    ids = [A2_EVERYWHERE.policy_id, A0_EVERYWHERE.policy_id, "2333111111111111"]
    log = TrainingLog(final_policies=[(i, ids[i % 3]) for i in range(30)])
    expected = sum(reference_steps(Policy.from_id(policy_id), env,
                                   derive_seed(4, "candidate", policy_id), 20) for policy_id in ids)
    step_count[0] = 0
    select_final_policy(log, env, rollouts=20, base_seed=4)
    assert step_count[0] == expected


def test_every_snapshot_step_goes_through_env_step(model, scenario, weights, step_count):
    config = TrainingConfig(model=model, scenario=scenario, weights=weights, schedule=ConstantEpsilon(0.1),
                            seed=5, epochs=2, episodes_per_epoch=4, snapshot_episode=2,
                            snapshot_rollouts=0, final_policy_window=4)
    train(config)
    training_steps = step_count[0]
    step_count[0] = 0
    # snapshot evaluation draws from its own streams, so the training episodes play the same steps
    _, log = train(replace(config, snapshot_rollouts=15))
    counted = step_count[0]
    env = CaregivingEnv(model, scenario, weights)
    snapshot_steps = sum(reference_steps(Policy.from_id(rec.policy_id), env,
                                         derive_seed(config.seed, "snapshot", rec.epoch), 15)
                         for rec in log.epochs)
    assert counted == training_steps + snapshot_steps
