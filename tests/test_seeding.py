"""The rollout streams of ``spawn_rngs`` against ``spawn_rng`` one index at a time, in full state."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from caresim.seeding import spawn_rng, spawn_rngs

label_parts = st.lists(
    st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=12)), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(label_parts, st.integers(min_value=0, max_value=30))
@example([-3, "rollout"], 5)
@example([2**63 + 1, "snapshot", -(2**40)], 3)
@example([], 12)
def test_spawn_rngs_yields_the_streams_of_spawn_rng(parts, count):
    states, drawn = [], []
    for rng in spawn_rngs(*parts, count=count):
        states.append(rng.getstate())
        drawn.append((rng.random(), rng.getrandbits(64)))
        rng.gauss(0, 1)  # caches a second normal on the generator, which the next reseed must drop
    expected = [spawn_rng(*parts, i) for i in range(count)]
    assert states == [r.getstate() for r in expected]
    assert drawn == [(r.random(), r.getrandbits(64)) for r in expected]
