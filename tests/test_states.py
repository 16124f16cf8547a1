from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caresim import AssistAction, StatusVector
from caresim.states import ALL_STATES, NUM_STATES, STATUS_NAMES, flip_index


def test_index_packs_bit_order_forgetful_first():
    assert StatusVector(1, 0, 0, 0).index == 1
    assert StatusVector(0, 1, 0, 0).index == 2
    assert StatusVector(0, 0, 1, 0).index == 4
    assert StatusVector(0, 0, 0, 1).index == 8
    assert StatusVector(1, 1, 1, 1).index == 15


@given(st.integers(min_value=0, max_value=NUM_STATES - 1))
def test_index_round_trip(index):
    assert StatusVector.from_index(index).index == index


def test_from_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        StatusVector.from_index(16)
    with pytest.raises(ValueError):
        StatusVector.from_index(-1)


def test_validate_rejects_non_binary():
    with pytest.raises(ValueError):
        StatusVector(2, 0, 0, 0).validate()


# a list stands for an unhashable field
@given(st.tuples(*[st.sampled_from([0, 1, True, False, 0.0, 1.0, 2, -1, 0.5, "1", None, math.nan, []])] * 4))
def test_validate_accepts_exactly_the_vectors_whose_every_field_is_0_or_1(fields):
    bad = next(((name, value) for name, value in zip(STATUS_NAMES, fields) if value not in (0, 1)), None)
    if bad is None:
        StatusVector(*fields).validate()
    else:
        with pytest.raises(ValueError) as raised:
            StatusVector(*fields).validate()
        assert str(raised.value) == f"status '{bad[0]}' must be 0 or 1, got {bad[1]!r}"


@given(st.sampled_from(AssistAction))
def test_an_action_code_is_a_and_its_value(action):
    assert action.code == f"a{int(action)}"


def test_all_states_covers_the_space():
    assert len(ALL_STATES) == 16
    assert len({s.index for s in ALL_STATES}) == 16


def test_exactly_four_selectable_actions():
    assert len(list(AssistAction)) == 4
    assert [a.code for a in AssistAction] == ["a0", "a1", "a2", "a3"]
    assert AssistAction.from_code("a2") is AssistAction.VERBAL_NON_DIRECTIVE
    for code in ("a4", "A2", " a2", "a2\n"):  # a code is read exactly as written
        with pytest.raises(ValueError):
            AssistAction.from_code(code)


def test_flip_bits_consumes_exactly_four_draws():
    rng = random.Random(3)
    flip_index(0, 0.0, rng)
    reference = random.Random(3)
    for _ in range(4):
        reference.random()
    assert rng.random() == reference.random()


def test_flip_bits_extremes():
    rng = random.Random(0)
    s = StatusVector(1, 0, 1, 0).index
    assert flip_index(s, 0.0, rng) == s
    assert flip_index(s, 1.0, rng) == StatusVector(0, 1, 0, 1).index


def test_flip_bits_frequency_matches_probability():
    rng = random.Random(11)
    flips = [0, 0, 0, 0]
    n = 20000
    for _ in range(n):
        flipped = flip_index(0, 0.1, rng)
        for j in range(4):
            flips[j] += flipped >> j & 1
    for j in range(4):
        assert flips[j] / n == pytest.approx(0.1, abs=0.01)


def test_flip_bits_xors_a_four_draw_mask():
    rng, reference = random.Random(5), random.Random(5)
    for state in ALL_STATES * 4:
        flipped = flip_index(state.index, 0.5, rng)
        mask = sum((reference.random() < 0.5) << bit for bit in range(4))
        assert flipped == state.index ^ mask
    assert rng.getstate() == reference.getstate()
