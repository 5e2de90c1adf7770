"""The simulator's random source: SplitMix64 reference outputs, read through
``Stream.random``, and draw sequences pinned so that no speed-up can move them."""

import pytest
from hypothesis import given, strategies as st

from careflow.rng import Stream
from helpers import lognormal, pick_weighted


@pytest.mark.parametrize("seed, outputs", [
    (0, [0xE220A8397B1DCDAF]),
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
], ids=["seed-0", "seed-1234567"])
def test_random_is_the_top_53_bits_of_splitmix64(seed, outputs):
    # the outputs of the published SplitMix64 generator for these seeds
    stream = Stream(seed)
    for u64 in outputs:
        assert stream.random() * 2**53 == u64 >> 11


def test_substreams_are_pinned():
    stream = Stream(2022, 1)
    assert [stream.random() for _ in range(2)] == [0.9953483549158902, 0.8914031955238824]


@given(seed=st.integers(0, 2**64 - 1), parts=st.lists(st.integers(-2**70, 2**70), max_size=3),
       part=st.integers(-2**70, 2**70))
def test_a_substream_folds_one_more_part_into_its_stream(seed, parts, part):
    assert Stream(seed, *parts).substream(part).state == Stream(seed, *parts, part).state


def test_lognormal_draws_are_pinned():
    stream = Stream(99, 3, 1)
    assert [lognormal(stream, 24.0, 0.4) for _ in range(4)] == pytest.approx(
        [24.11099037436498, 21.080342026759443, 30.729721157363784, 19.741800005780654],
        rel=1e-12)


def test_randint_draws_are_pinned():
    stream = Stream(99, 3, 0)
    assert [stream.randint(7) for _ in range(12)] == [5, 6, 2, 6, 5, 6, 0, 0, 4, 0, 1, 4]


def test_pick_weighted_draws_are_pinned():
    stream = Stream(5)
    assert ([pick_weighted(stream, [0.2, 0.5, 0.3]) for _ in range(12)]
            == [1, 2, 1, 0, 0, 1, 2, 1, 1, 1, 1, 0])
