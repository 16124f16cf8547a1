from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from caresim import (
    AssistAction,
    CaregivingEnv,
    ConfigError,
    ConstantEpsilon,
    ExponentialDecayEpsilon,
    Policy,
    TrainingConfig,
    epsilon_at,
    evaluate_policy,
    extract_policy,
    train,
)
from caresim.agent import (
    DEFAULT_DECAY_RATE,
    QTable,
    TrainingLog,
    _greedy_policy_id,
    _run_training_episode,
    q_update,
    select_action,
)
from caresim.seeding import derive_seed
from caresim.states import ACTIONS, flip_index

A0, A1, A2, A3 = AssistAction


# --------------------------------------------------------------------------
# epsilon schedules


def test_decay_rate_calibration():
    # solve eps_max * exp(-rate * 300) = 0.8 by hand (the floor clip is inactive there):
    # rate = ln(1 / 0.8) / 300 = 7.43812...e-4
    assert DEFAULT_DECAY_RATE == 0.0007438118377140325


def test_decay_schedule_checkpoints():
    schedule = ExponentialDecayEpsilon()
    assert epsilon_at(schedule, 0) == pytest.approx(1.0, abs=1e-12)
    assert epsilon_at(schedule, 300) == pytest.approx(0.8, abs=1e-9)
    # the schedule is clipped at the floor, which it reaches at epoch 4715 and then holds
    assert epsilon_at(schedule, 20000) == pytest.approx(0.03, abs=1e-6)
    assert epsilon_at(schedule, 10**9) == pytest.approx(0.03, abs=1e-12)


def test_decay_schedule_is_monotone_and_bounded():
    schedule = ExponentialDecayEpsilon()
    # first epoch at which eps_max * exp(-rate * epoch) <= eps_min: ln(1 / 0.03) / rate = 4714.3
    floor_epoch = math.ceil(math.log(schedule.eps_max / schedule.eps_min) / schedule.decay_rate)
    assert floor_epoch == 4715
    previous = 2.0
    for epoch in range(0, 6000, 50):
        eps = epsilon_at(schedule, epoch)
        assert schedule.eps_min <= eps <= schedule.eps_max
        # strictly falling above the floor, flat once on it
        assert eps < previous or eps == previous == schedule.eps_min
        previous = eps
    assert epsilon_at(schedule, floor_epoch - 1) > schedule.eps_min
    for epoch in range(floor_epoch, 6000):
        assert epsilon_at(schedule, epoch) == schedule.eps_min


def test_constant_schedule():
    assert epsilon_at(ConstantEpsilon(0.1), 0) == 0.1
    assert epsilon_at(ConstantEpsilon(0.1), 5999) == 0.1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ConstantEpsilon(1.5), "epsilon must be in"),
        (lambda: ConstantEpsilon(True), "epsilon must be in .*got True"),
        (lambda: ConstantEpsilon("0.5"), "epsilon must be in .*got '0.5'"),
        (lambda: ExponentialDecayEpsilon(eps_min=0.5, eps_max=0.1), "need 0 <= eps_min <= eps_max <= 1"),
        (lambda: ExponentialDecayEpsilon(eps_min=True), "eps_min must be in .*got True"),
        (lambda: ExponentialDecayEpsilon(eps_max=None), "eps_max must be in .*got None"),
        (lambda: ExponentialDecayEpsilon(decay_rate=True), "decay_rate must be positive and finite, got True"),
        (lambda: ExponentialDecayEpsilon(decay_rate="0.01"), "decay_rate must be positive and finite, got '0.01'"),
        (lambda: ExponentialDecayEpsilon(decay_rate=0.0), "decay_rate must be positive and finite"),
    ],
)
def test_schedule_validation(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


def test_epsilon_at_rejects_negative_epoch():
    with pytest.raises(ValueError):
        epsilon_at(ConstantEpsilon(0.1), -1)


# --------------------------------------------------------------------------
# action selection


def test_greedy_selection_picks_argmax():
    q = QTable()
    q.values[0] = [1.0, 2.0, 3.0, 0.0]
    action = select_action(q, 0, 0.0, random.Random(0))
    assert action is A2


def test_select_action_consumes_exactly_two_draws():
    q = QTable()
    rng = random.Random(12)
    select_action(q, 0, 0.5, rng)
    reference = random.Random(12)
    reference.random()
    reference.random()
    assert rng.random() == reference.random()


def test_full_exploration_is_uniform():
    q = QTable()
    q.values[0] = [10.0, 0.0, 0.0, 0.0]
    rng = random.Random(77)
    counts = {a: 0 for a in AssistAction}
    n = 100000
    for _ in range(n):
        counts[select_action(q, 0, 1.0, rng)] += 1
    for a in AssistAction:
        assert counts[a] / n == pytest.approx(0.25, abs=0.01)


def test_greedy_ties_break_uniformly():
    q = QTable()
    rng = random.Random(78)
    counts = {a: 0 for a in AssistAction}
    n = 100000
    for _ in range(n):
        counts[select_action(q, 0, 0.0, rng)] += 1
    for a in AssistAction:
        assert counts[a] / n == pytest.approx(0.25, abs=0.01)


def test_partial_tie_break_restricted_to_maxima():
    q = QTable()
    q.values[0] = [5.0, 1.0, 5.0, 0.0]
    rng = random.Random(79)
    seen = {select_action(q, 0, 0.0, rng) for _ in range(500)}
    assert seen == {A0, A2}


def test_select_action_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        select_action(QTable(), 0, 1.5, random.Random(0))


# --------------------------------------------------------------------------
# updates and policy extraction


def test_q_update_from_zero():
    q = QTable()
    q_update(q, 0, A0, 10.0, 0, False, 0.05, 0.95)
    assert q.values[0][0] == pytest.approx(0.5)


def test_q_update_terminal_ignores_bootstrap():
    q = QTable()
    q.values[0][0] = 10.0
    q.values[1] = [100.0] * 4  # must not leak into a terminal update
    q_update(q, 0, A0, 0.0, 1, True, 0.05, 0.95)
    assert q.values[0][0] == pytest.approx(9.5)


def test_q_update_converges_to_fixed_point():
    q = QTable()
    for _ in range(4000):
        q_update(q, 0, A1, 7.0, 0, True, 0.05, 0.95)
    assert q.values[0][1] == pytest.approx(7.0, abs=1e-6)


def test_extract_policy_lowest_index_tie_break():
    q = QTable()
    assert extract_policy(q).actions[0] is A0
    q.values[3] = [-3.0, 5.0, 5.0, 1.0]
    assert extract_policy(q).actions[3] is A1


def test_extract_policy_invariant_under_positive_affine_transforms():
    rng = random.Random(4)
    q = QTable([[rng.uniform(-10, 10) for _ in range(4)] for _ in range(16)])
    transformed = QTable([[3.0 * v + 7.5 for v in row] for row in q.values])
    assert extract_policy(q) == extract_policy(transformed)


def test_policy_id_round_trip():
    rng = random.Random(5)
    actions = tuple(AssistAction(rng.randrange(4)) for _ in range(16))
    policy = Policy(actions)
    assert Policy.from_id(policy.policy_id) == policy
    with pytest.raises(ValueError):
        Policy.from_id("012")


def test_policy_file_round_trip(tmp_path):
    policy = Policy.from_id("0123012301230123")
    path = tmp_path / "policy.csv"
    policy.to_file(path)
    assert Policy.from_file(path) == policy


def test_qtable_file_round_trip(tmp_path):
    rng = random.Random(6)
    q = QTable([[rng.uniform(-50, 150) for _ in range(4)] for _ in range(16)])
    path = tmp_path / "q.csv"
    q.to_file(path)
    assert QTable.from_file(path) == q
    # identical tables serialize to identical bytes
    path2 = tmp_path / "q2.csv"
    QTable.from_file(path).to_file(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("kind", ["policy", "qtable"])
@pytest.mark.parametrize("bad_index", ["99", "-1", "x", "0"])
def test_state_files_reject_bad_row_index(tmp_path, kind, bad_index):
    path = tmp_path / f"{kind}.csv"
    if kind == "policy":
        Policy.from_id("0123012301230123").to_file(path)
        load = Policy.from_file
    else:
        QTable().to_file(path)
        load = QTable.from_file
    cells = path.read_text().splitlines()[1].split(",", 1)[1]
    with path.open("a", encoding="utf-8") as fh:
        fh.write(f"{bad_index},{cells}\n")
    with pytest.raises(ConfigError):
        load(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_qtable_file_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "q.csv"
    QTable().to_file(path)
    lines = path.read_text().splitlines()
    lines[4] = f"3,1.0,{value},0.0,0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="Q-value in .* must be a finite number"):
        QTable.from_file(path)


@pytest.mark.parametrize("value", [" 1.5", "1.5 ", "\t1.5", "1_0", "\u0661.\u0665", "\uff11", "abc", ""])
def test_qtable_file_reads_a_number_only_as_repr_writes_it(tmp_path, value):
    path = tmp_path / "q.csv"
    QTable().to_file(path)
    lines = path.read_text().splitlines()
    lines[4] = f"3,1.0,{value},0.0,0.0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="Q-value in .* must be a finite number"):
        QTable.from_file(path)


@pytest.mark.parametrize("kind", ["policy", "qtable"])
@pytest.mark.parametrize("index", ["\uff11", "\u0661", "\u00b9", "+1", " 1", ""])
def test_state_files_read_a_row_index_only_in_ascii_digits(tmp_path, kind, index):
    path = tmp_path / f"{kind}.csv"
    if kind == "policy":
        Policy.from_id("0123012301230123").to_file(path)
        load = Policy.from_file
    else:
        QTable().to_file(path)
        load = QTable.from_file
    lines = path.read_text().splitlines()
    lines[2] = index + lines[2].removeprefix("1")  # the row of state 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        load(path)


@pytest.mark.parametrize("kind", ["policy", "qtable"])
def test_state_files_need_a_row_for_every_state_under_their_own_header(tmp_path, kind):
    path = tmp_path / f"{kind}.csv"
    (Policy.from_id("0123012301230123") if kind == "policy" else QTable()).to_file(path)
    load = Policy.from_file if kind == "policy" else QTable.from_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + lines[6:]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="does not cover all 16 states"):
        load(path)
    for header in ("state,a0", ""):
        path.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unrecognized .* header"):
            load(path)


def test_a_qtable_or_policy_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match="16 x 4"):
        QTable([[0.0] * 4] * 15)
    with pytest.raises(ValueError, match="16 x 4"):
        QTable([[0.0] * 3] * 16)
    with pytest.raises(ValueError, match="all 16 states"):
        Policy((A0,) * 15)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=16, max_size=16))
def test_a_policy_takes_members_and_exact_ints_and_holds_members(tmp_path, entries):
    digits = "".join(str(digit) for digit, _ in entries)
    policy = Policy(tuple(ACTIONS[digit] if member else digit for digit, member in entries))
    expected = Policy.from_id(digits)
    assert policy == expected and policy.policy_id == digits
    assert all(type(policy(state)) is AssistAction for state in range(16))
    policy.to_file(tmp_path / "policy.csv")
    expected.to_file(tmp_path / "expected.csv")
    assert (tmp_path / "policy.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


@given(st.integers(0, 15), st.one_of(st.booleans(), st.floats(), st.text(max_size=2),
                                     st.integers().filter(lambda i: not 0 <= i <= 3)))
def test_a_policy_rejects_any_other_entry_and_names_the_first(state, entry):
    actions = [A0] * state + [entry] + [-1] * (15 - state)
    with pytest.raises(ValueError, match=rf"state {state} must be .* got {re.escape(repr(entry))}$"):
        Policy(tuple(actions))


@pytest.mark.parametrize("row", [
    "snapshot,\u0663,,0.1,{id},", "final,,\u0663,,{id},", "snapshot,x,,0.1,{id},", "final,,,,{id},",
    "snapshot,3,,0.1,{id},\uff11", "snapshot,3,, 0.1,{id},",
    # a cell that the row's kind leaves empty holds something
    "snapshot,0,999,0.1,{id},321.5", "final,12,18,,{id},", "final,,18,0.5,{id},", "final,,18,,{id},7.0",
    "final,12,18,0.5,{id},7.0",
])
def test_training_log_reads_only_ascii_counts_and_numbers(tmp_path, row):
    path = tmp_path / "log.csv"
    header = ",".join(TrainingLog._header)
    path.write_text(f"{header}\n{row.format(id='0' * 16)}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed training log row|must be a finite number"):
        TrainingLog.from_file(path)


# --------------------------------------------------------------------------
# training loop


def small_config(model, scenario, weights, seed=0, **overrides):
    defaults = dict(
        model=model,
        scenario=scenario,
        weights=weights,
        schedule=ConstantEpsilon(0.1),
        seed=seed,
        epochs=5,
        episodes_per_epoch=6,
        snapshot_episode=2,
        snapshot_rollouts=0,
        final_policy_window=10,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def test_train_is_deterministic(model, scenario, weights):
    q1, log1 = train(small_config(model, scenario, weights, seed=3))
    q2, log2 = train(small_config(model, scenario, weights, seed=3))
    assert q1 == q2
    assert log1.epochs == log2.epochs
    assert log1.final_policies == log2.final_policies


def test_train_seed_changes_outcome(model, scenario, weights):
    q1, _ = train(small_config(model, scenario, weights, seed=3))
    q2, _ = train(small_config(model, scenario, weights, seed=4))
    assert q1 != q2


def test_trained_values_finite_and_bounded(model, scenario, weights):
    # per-step reward magnitude is bounded by the weight sums, so Q must stay
    # within max-reward / (1 - gamma) plus the worst per-episode accumulation
    config = small_config(model, scenario, weights, epochs=20)
    q, _ = train(config)
    per_step_bound = 70.0  # |r| <= statuses 8 + trial/timestep 2 + 50 + 10 + 20 with margin
    bound = per_step_bound / (1 - config.gamma) + per_step_bound * scenario.max_episode_steps
    for row in q.values:
        for value in row:
            assert math.isfinite(value)
            assert abs(value) <= bound


def test_train_log_shape(model, scenario, weights):
    config = small_config(model, scenario, weights, snapshot_rollouts=3)
    q, log = train(config)
    assert len(log.epochs) == config.epochs
    assert len(log.final_policies) == config.final_policy_window
    episodes = [episode for episode, _ in log.final_policies]
    total = config.epochs * config.episodes_per_epoch
    assert episodes == list(range(total - config.final_policy_window, total))
    for record in log.epochs:
        assert record.epsilon == 0.1
        assert record.mean_return is not None
        assert len(record.policy_id) == 16


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_each_epoch_logs_the_policy_after_its_snapshot_episode_scored_on_its_own_stream(model, scenario, weights,
                                                                                       data):
    epochs = data.draw(st.integers(1, 3), "epochs")
    episodes = data.draw(st.integers(1, 6), "episodes_per_epoch")
    config = small_config(
        model, scenario, weights,
        seed=data.draw(st.integers(0, 2**31), "seed"),
        schedule=data.draw(st.sampled_from([ConstantEpsilon(0.3), ExponentialDecayEpsilon(decay_rate=0.7)])),
        epochs=epochs,
        episodes_per_epoch=episodes,
        snapshot_episode=data.draw(st.integers(1, episodes), "snapshot_episode"),
        snapshot_rollouts=data.draw(st.integers(0, 3), "snapshot_rollouts"),
        final_policy_window=epochs * episodes,  # a greedy policy recorded after every episode
    )
    _, log = train(config)
    env = CaregivingEnv(model, scenario, weights)
    assert [episode for episode, _ in log.final_policies] == list(range(epochs * episodes))
    assert [record.epoch for record in log.epochs] == list(range(epochs))
    n = config.snapshot_rollouts
    for epoch, record in enumerate(log.epochs):
        assert record.policy_id == log.final_policies[epoch * episodes + config.snapshot_episode - 1][1]
        assert record.epsilon == epsilon_at(config.schedule, epoch)
        expected = evaluate_policy(Policy.from_id(record.policy_id), env, n,
                                   derive_seed(config.seed, "snapshot", epoch)).mean_return if n else None
        assert record.mean_return == expected


def test_training_log_file_round_trip(tmp_path, model, scenario, weights):
    _, log = train(small_config(model, scenario, weights, snapshot_rollouts=2))
    path = tmp_path / "log.csv"
    log.to_file(path)
    loaded = TrainingLog.from_file(path)
    assert loaded.epochs == log.epochs
    assert loaded.final_policies == log.final_policies


def test_train_with_perception_noise_differs_and_is_deterministic(model, scenario, weights):
    noisy = small_config(model, scenario, weights, perception_noise=0.2)
    clean = small_config(model, scenario, weights)
    qn1, _ = train(noisy)
    qn2, _ = train(small_config(model, scenario, weights, perception_noise=0.2))
    qc, _ = train(clean)
    assert qn1 == qn2
    assert qn1 != qc


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(alpha=0.0), "alpha must be in"),
        (dict(alpha=True), "alpha must be a finite number, got True"),
        (dict(gamma=1.0), "gamma must be in"),
        (dict(gamma="0.9"), "gamma must be a finite number"),
        (dict(snapshot_episode=50), "snapshot_episode must fall inside each epoch"),
        (dict(snapshot_episode=0), "snapshot_episode must be >= 1"),
        (dict(epochs=0), "epochs must be >= 1"),
        (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        (dict(episodes_per_epoch=True), "episodes_per_epoch must be an integer"),
        (dict(snapshot_rollouts=1.5), "snapshot_rollouts must be an integer, got 1.5"),
        (dict(final_policy_window=-1), "final_policy_window must be >= 0"),
        (dict(perception_noise=True), "perception_noise must be in .*got True"),
        (dict(perception_noise=1.5), "perception_noise must be in"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed="1"), "seed must be an integer, got '1'"),
    ],
)
def test_training_config_validation(model, scenario, weights, overrides, message):
    with pytest.raises(ConfigError, match=message):
        small_config(model, scenario, weights, **overrides)


def test_a_negative_seed_is_valid(model, scenario, weights):
    assert small_config(model, scenario, weights, seed=-1).seed == -1


# --------------------------------------------------------------------------
# the fused training episode against the reference definitions


def _reference_training_episode(env, q, epsilon, config, rng):
    """One learning episode as a loop over select_action, env.step, flip_index and q_update."""
    noise = config.perception_noise
    env.reset(rng)
    obs = flip_index(env.index, noise, rng) if noise else env.index
    episode_return = 0.0
    while True:
        action = select_action(q, obs, epsilon, rng)
        step = env.step(action)
        next_obs = flip_index(env.index, noise, rng) if noise else env.index
        q_update(q, obs, action, step.reward, next_obs, step.done, config.alpha, config.gamma)
        episode_return += step.reward
        if step.done:
            return episode_return
        obs = next_obs


# trained-looking values mixed with a few repeated ones, so that many rows of a drawn table
# hold ties short of an all-way tie
_q_values = st.sampled_from([0.0, -3.5, 1.25, 7.0]) | st.floats(-50.0, 150.0)
_partly_trained_tables = st.lists(st.lists(_q_values, min_size=4, max_size=4), min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    epsilon=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    noise=st.sampled_from([0.0, 0.2]),
    table=st.none() | _partly_trained_tables,
    episodes=st.integers(1, 4),
)
def test_training_episode_equals_the_reference_loop(model, scenario, weights, seed, epsilon, noise, table,
                                                    episodes):
    # from a zero table (every row an all-way tie) or a partly trained one, episode after episode,
    # so the later episodes start from partly trained tables
    config = small_config(model, scenario, weights, perception_noise=noise)
    rows = table or [[0.0] * 4 for _ in range(16)]
    q, reference = QTable([list(row) for row in rows]), QTable([list(row) for row in rows])
    rng, reference_rng = random.Random(seed), random.Random(seed)
    env, reference_env = (CaregivingEnv(model, scenario, weights) for _ in range(2))
    for _ in range(episodes):
        episode_return = _run_training_episode(env, q, epsilon, config, rng)
        assert episode_return == _reference_training_episode(reference_env, reference, epsilon, config,
                                                              reference_rng)
        assert q.values == reference.values
        assert rng.getstate() == reference_rng.getstate()


def test_training_episode_rejects_bad_epsilon(model, scenario, weights):
    env = CaregivingEnv(model, scenario, weights)
    with pytest.raises(ValueError, match="epsilon"):
        _run_training_episode(env, QTable(), 1.5, small_config(model, scenario, weights), random.Random(0))


@given(_partly_trained_tables)
def test_the_greedy_policy_id_is_the_id_of_the_extracted_policy(table):
    q = QTable(table)
    assert _greedy_policy_id(q) == extract_policy(q).policy_id
    assert extract_policy(q).actions == tuple(AssistAction(row.index(max(row))) for row in table)


def test_the_last_final_window_record_is_the_trained_greedy_policy(model, scenario, weights):
    q, log = train(small_config(model, scenario, weights))
    assert log.final_policies[-1][1] == extract_policy(q).policy_id
