"""Transition-model rule checks against hand-derived probabilities.

Expected values were computed by direct substitution into the layered
rule: override if the assistance covers the status, fixed persistence if
the status is present, otherwise base onset plus the increments from the
other present statuses, clamped to [0, 1].
"""

from __future__ import annotations

import json
import random

import pytest

from caresim import AssistAction, ConfigError, StatusVector, TransitionModel
from caresim.states import ALL_STATES, STATUS_NAMES, sample_index
from caresim.transition import onset_probability, transition

A0, A1, A2, A3 = AssistAction


@pytest.mark.parametrize(
    "state, assist, target, expected",
    [
        # base onsets from the all-clear state
        (StatusVector(0, 0, 0, 0), A0, "forgetful", 0.30),
        (StatusVector(0, 0, 0, 0), A0, "confused", 0.30),
        (StatusVector(0, 0, 0, 0), A0, "angry", 0.05),
        (StatusVector(0, 0, 0, 0), A0, "disengaged", 0.20),
        # additive cross-influence: 0.05 + 0.06 (forgetful raises anger onset)
        (StatusVector(1, 0, 0, 0), A0, "angry", 0.11),
        # 0.20 + 0.10 (anger raises disengagement onset)
        (StatusVector(0, 0, 1, 0), A0, "disengaged", 0.30),
        # 0.30 + 0.07 + 0.07 (confusion and anger both raise forgetfulness onset)
        (StatusVector(0, 1, 1, 0), A0, "forgetful", 0.44),
        # persistence
        (StatusVector(1, 0, 0, 0), A0, "forgetful", 0.99),
        (StatusVector(0, 0, 1, 0), A0, "angry", 1.00),
        # non-directive assistance: cognitive persistence 0.40 / 0.60, onset 0
        (StatusVector(1, 1, 0, 0), A2, "forgetful", 0.40),
        (StatusVector(1, 1, 0, 0), A2, "confused", 0.60),
        (StatusVector(0, 0, 0, 0), A2, "forgetful", 0.0),
        # directive assistance: cognitive persistence 0.05, onset 0
        (StatusVector(1, 1, 0, 0), A3, "forgetful", 0.05),
        (StatusVector(0, 0, 0, 0), A3, "confused", 0.0),
        # supportive assistance: emotional persistence 0.05, onset 0
        (StatusVector(0, 0, 1, 0), A1, "angry", 0.05),
        (StatusVector(0, 0, 0, 1), A1, "disengaged", 0.05),
        (StatusVector(0, 0, 0, 0), A1, "angry", 0.0),
        # supportive assistance leaves cognition on the no-assist rules,
        # cross-influences from present emotional statuses included
        (StatusVector(0, 0, 1, 1), A1, "forgetful", 0.30 + 0.07 + 0.07),
        (StatusVector(0, 0, 0, 0), A1, "forgetful", 0.30),
        # directive/non-directive assistance leaves emotions on the no-assist rules
        (StatusVector(0, 0, 1, 0), A3, "angry", 1.00),
        (StatusVector(1, 0, 0, 0), A2, "angry", 0.11),
    ],
)
def test_onset_probability_hand_values(model, state, assist, target, expected):
    assert onset_probability(model, state, assist, target) == pytest.approx(expected, abs=1e-12)


def test_onset_probability_rejects_unknown_target(model):
    with pytest.raises(ValueError, match="unknown status"):
        onset_probability(model, StatusVector.zero(), A0, "bored")


def test_all_probabilities_in_unit_interval(model):
    for state in ALL_STATES:
        for assist in AssistAction:
            for target in STATUS_NAMES:
                p = onset_probability(model, state, assist, target)
                assert 0.0 <= p <= 1.0


def test_anger_absorbing_without_supportive_assistance(model):
    for state in ALL_STATES:
        if not state.angry:
            continue
        assert onset_probability(model, state, A0, "angry") == 1.0
        assert onset_probability(model, state, A2, "angry") == 1.0
        assert onset_probability(model, state, A3, "angry") == 1.0


def test_assistance_monotonicity_on_forgetfulness(model):
    for state in ALL_STATES:
        if not state.forgetful:
            continue
        p3 = onset_probability(model, state, A3, "forgetful")
        p2 = onset_probability(model, state, A2, "forgetful")
        p0 = onset_probability(model, state, A0, "forgetful")
        assert p3 == 0.05 <= p2 == 0.40 <= p0 == 0.99


def test_transition_consumes_exactly_four_draws(model):
    rng = random.Random(42)
    transition(model, StatusVector(1, 1, 1, 1), A0, rng)
    reference = random.Random(42)
    for _ in range(4):
        reference.random()
    assert rng.random() == reference.random()


def test_transition_deterministic_under_fixed_seed(model):
    for state in ALL_STATES:
        a = transition(model, state, A2, random.Random(99))
        b = transition(model, state, A2, random.Random(99))
        assert a == b


def test_transition_certainties(model):
    rng = random.Random(5)
    for _ in range(200):
        nxt = transition(model, StatusVector.zero(), A2, rng)
        assert nxt.forgetful == 0 and nxt.confused == 0
        nxt = transition(model, StatusVector(0, 0, 1, 0), A0, rng)
        assert nxt.angry == 1


def test_transition_empirical_frequency_smoke(model):
    # full 100k sweep over every (state, action, status) lives in the acceptance suite
    rng = random.Random(17)
    n = 40000
    hits = 0
    for _ in range(n):
        hits += transition(model, StatusVector(0, 0, 1, 0), A0, rng).disengaged
    assert hits / n == pytest.approx(0.30, abs=0.01)


@pytest.mark.parametrize(
    "state, expected",
    [
        # (forgetful prob, confused prob, angry prob, disengaged prob)
        (StatusVector(0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0)),
        (StatusVector(1, 1, 0, 0), (0.5, 0.5, 0.0, 0.0)),
        (StatusVector(1, 0, 0, 1), (0.2, 0.0, 0.0, 0.5)),
        (StatusVector(0, 1, 1, 0), (0.0, 0.2, 0.5, 0.0)),
        (StatusVector(1, 1, 1, 1), (0.5, 0.5, 0.5, 0.5)),
    ],
)
def test_skip_table_probabilities(model, state, expected):
    assert model.skip[state.index] == expected


def test_skip_table_never_creates_new_impairment(model):
    rng = random.Random(23)
    for state in ALL_STATES:
        for _ in range(50):
            nxt = ALL_STATES[sample_index(model.skip[state.index], rng)]
            for j in range(4):
                assert nxt[j] <= state[j]


def test_skip_table_clears_all_clear_state(model):
    rng = random.Random(1)
    assert sample_index(model.skip[0], rng) == 0


def test_skip_table_consumes_exactly_four_draws(model):
    rng = random.Random(8)
    sample_index(model.skip[StatusVector(1, 1, 1, 1).index], rng)
    reference = random.Random(8)
    for _ in range(4):
        reference.random()
    assert rng.random() == reference.random()


def test_skip_table_empirical_frequencies(model):
    rng = random.Random(31)
    n = 40000
    forgetful_hits = 0
    disengaged_hits = 0
    for _ in range(n):
        nxt = ALL_STATES[sample_index(model.skip[StatusVector(1, 0, 0, 1).index], rng)]
        forgetful_hits += nxt.forgetful
        disengaged_hits += nxt.disengaged
    assert forgetful_hits / n == pytest.approx(0.2, abs=0.01)
    assert disengaged_hits / n == pytest.approx(0.5, abs=0.01)


def test_config_round_trip(model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
    loaded = TransitionModel.from_file(path)
    assert loaded.onset == model.onset
    assert loaded.skip == model.skip


def test_config_rejects_unknown_fields(tmp_path):
    doc = TransitionModel.default().to_dict()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown field"):
        TransitionModel.from_dict(doc)


def test_config_rejects_unknown_influence_row():
    doc = TransitionModel.default().to_dict()
    doc["influence"]["bored"] = {"angry": 0.1}
    with pytest.raises(ConfigError, match="influence"):
        TransitionModel.from_dict(doc)


def test_config_rejects_out_of_range_probability():
    doc = TransitionModel.default().to_dict()
    doc["base_onset"]["angry"] = 1.5
    with pytest.raises(ConfigError):
        TransitionModel.from_dict(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["base_onset"].update(angry=True), "base_onset.angry must be in .*got True"),
        (lambda doc: doc["base_onset"].update(angry=float("nan")), "base_onset.angry must be in"),
        (lambda doc: doc["persistence"].update(angry="1.0"), "persistence.angry must be in"),
        (lambda doc: doc["skip_persistence"].update(angry="0.5"), "skip_persistence.angry must be in"),
        (lambda doc: doc["influence"]["angry"].update(confused=-0.1), "influence.angry.confused must be in"),
        (lambda doc: doc["assist_overrides"]["a1"]["angry"].update(onset=None), "a1.angry.onset must be in"),
        (lambda doc: doc.update(influence=[]), "influence must be an object"),
        (lambda doc: doc["influence"].update(angry=[0.1]), "influence.angry must be an object"),
        (lambda doc: doc["base_onset"].update(bored=0.1), "unknown field.* in base_onset: bored"),
        (lambda doc: doc["influence"]["angry"].update(angry=0.1), "unknown field.* in influence.angry: angry"),
        (lambda doc: doc["assist_overrides"].update(A1=doc["assist_overrides"].pop("a1")), "unknown field.*: A1"),
        (lambda doc: doc["base_onset"].pop("angry"), "missing field 'angry' in base_onset"),
        (lambda doc: doc["skip_persistence"].pop("disengaged"), "missing field 'disengaged' in skip_persistence"),
        (lambda doc: doc.pop("skip_persistence"), "missing field 'skip_persistence' in transition model"),
        (lambda doc: doc["assist_overrides"]["a2"]["confused"].pop("onset"), "missing field 'onset'"),
    ],
)
def test_config_schema_violations(mutate, message):
    doc = TransitionModel.default().to_dict()
    mutate(doc)
    with pytest.raises(ConfigError, match=message):
        TransitionModel.from_dict(doc)


def test_config_sparse_maps_are_optional():
    doc = TransitionModel.default().to_dict()
    del doc["influence"], doc["assist_overrides"]
    model = TransitionModel.from_dict(doc)
    assert model.to_dict()["influence"] == {name: {} for name in STATUS_NAMES}
    assert model.to_dict()["assist_overrides"] == {}
    assert onset_probability(model, StatusVector(0, 0, 1, 0), A1, "angry") == 1.0


def test_editing_a_to_dict_result_leaves_the_model_unchanged():
    # that each default() is one shared instance is checked per class in test_config.py
    model = TransitionModel.default()
    onset, skip, before = model.onset, model.skip, model.to_dict()
    doc = model.to_dict()
    doc["assist_overrides"]["a1"]["angry"]["persist"] = 1.0
    doc["skip_persistence"]["angry"] = 1.0
    del doc["assist_overrides"]["a2"]
    assert model.to_dict() == before != doc
    assert onset_probability(model, StatusVector(0, 0, 1, 0), A1, "angry") == 0.05
    rebuilt = TransitionModel.from_dict(model.to_dict())
    assert rebuilt == model and rebuilt is not model
    assert (rebuilt.onset, rebuilt.skip) == (onset, skip)


def test_editing_the_dict_given_to_from_dict_leaves_the_model_unchanged():
    default = TransitionModel.default()
    given = default.to_dict()
    model = TransitionModel.from_dict(given)
    given["assist_overrides"]["a1"]["angry"]["persist"] = 1.0
    given["base_onset"]["forgetful"] = 1.0
    given["skip_persistence"]["cognitive_pair"] = 1.0
    assert model.to_dict() == default.to_dict()
    assert (model.onset, model.skip) == (default.onset, default.skip)
    assert onset_probability(model, StatusVector(0, 0, 1, 0), A1, "angry") == 0.05


def test_key_order_does_not_change_the_model():
    doc = TransitionModel.default().to_dict()
    reordered = {key: doc[key] for key in reversed(doc)}
    reordered["base_onset"] = dict(reversed(doc["base_onset"].items()))
    reordered["assist_overrides"] = {code: dict(reversed(per_status.items()))
                                     for code, per_status in reversed(doc["assist_overrides"].items())}
    model = TransitionModel.from_dict(reordered)
    assert model == TransitionModel.default() and hash(model) == hash(TransitionModel.default())
    assert json.dumps(model.to_dict()) == json.dumps(doc)


def test_config_rejects_non_object_document(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="transition model must be an object"):
        TransitionModel.from_file(path)


def test_onset_sum_clamped():
    doc = TransitionModel.default().to_dict()
    doc["influence"]["forgetful"]["angry"] = 0.9
    doc["influence"]["confused"]["angry"] = 0.9
    model = TransitionModel.from_dict(doc)
    p = onset_probability(model, StatusVector(1, 1, 0, 0), AssistAction.NO_ASSISTANCE, "angry")
    assert p == 1.0
