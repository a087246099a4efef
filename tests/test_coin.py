"""The coin-betting engine: exact worked updates, state monotonicity,
bit-level determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcoin.coin import AdaptiveCoin
from mirrorcoin.errors import ConfigError
from mirrorcoin.samplers import StepperConfig, make_stepper


class TestAdaptiveCoin:
    def test_first_step_is_half_sign(self):
        coin = AdaptiveCoin(np.zeros((1, 3)))
        y = coin.step(np.zeros((1, 3)), np.array([[0.8, -0.1, 2.0]]))
        np.testing.assert_array_equal(y, [[0.5, -0.5, 0.5]])

    def test_worked_two_step(self):
        # c1 = 0.8 at y0=0 -> y1 = 0.5; c2 = 0.4 at y1:
        # L = 0.8, G = 1.2, R = max(0 + 0.4*0.5, 0) = 0.2
        # y2 = (1.2)/(1.2 + 0.8) * (1 + 0.2/0.8) = 0.6 * 1.25 = 0.75
        coin = AdaptiveCoin(np.zeros((1, 1)))
        y1 = coin.step(np.zeros((1, 1)), np.array([[0.8]]))
        y = coin.step(y1, np.array([[0.4]]))
        assert abs(y[0, 0] - 0.75) < 1e-15

    def test_zero_signal_coordinates_stay_put(self):
        y0 = np.array([[3.0, -1.0]])
        coin = AdaptiveCoin(y0)
        y = y0
        for _ in range(4):
            y = coin.step(y, np.array([[0.0, 0.5]]))
        assert y[0, 0] == 3.0
        assert np.all(np.isfinite(y))

    def test_state_monotonicity(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(4, 3))
        coin = AdaptiveCoin(y)
        prev_L = coin.L.copy()
        prev_G = coin.G.copy()
        for _ in range(20):
            y = coin.step(y, rng.normal(size=(4, 3)))
            assert np.all(coin.L >= prev_L)
            assert np.all(coin.G >= prev_G)
            assert np.all(coin.R >= 0.0)
            prev_L = coin.L.copy()
            prev_G = coin.G.copy()


class TestDeterminismAndFactory:
    def test_bit_identical_replay(self):
        rng = np.random.default_rng(3)
        outcomes = rng.normal(size=(30, 1, 5, 2))
        a = make_stepper([StepperConfig("coin_adaptive")], np.zeros((1, 5, 2)))
        b = make_stepper([StepperConfig("coin_adaptive")], np.zeros((1, 5, 2)))
        ya = yb = np.zeros((1, 5, 2))
        for c in outcomes:
            ya = a.step(ya, c)
            yb = b.step(yb, c)
        assert ya.tobytes() == yb.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            StepperConfig("coin_fancy")

    def test_caller_mutating_y0_does_not_move_later_steps(self):
        c1, c2 = np.array([[0.3, -0.2]]), np.array([[0.1, 0.4]])
        y0 = np.array([[0.5, -1.0]])
        kept, mutated = AdaptiveCoin(y0.copy()), AdaptiveCoin(y0)
        k1, m1 = kept.step(y0.copy(), c1), mutated.step(y0.copy(), c1)
        y0 += 99.0
        assert kept.step(k1, c2).tobytes() == mutated.step(m1, c2).tobytes()


class TestPositionContract:
    """The engine bets from the position it is handed, not from its last
    output: a caller that moves the particles (a projection, say) is paid
    at the moved positions."""

    def test_adaptive_reward_uses_given_position(self):
        # c1 = 0.8 at y0 = 0 -> 0.5; c2 = 0.4 handed at 1.0 instead:
        # L = 0.8, G = 1.2, R = max(0 + 0.4*1.0, 0) = 0.4
        # y = 1.2/(1.2 + 0.8) * (1 + 0.4/0.8) = 0.6 * 1.5 = 0.9
        coin = AdaptiveCoin(np.zeros((1, 1)))
        assert coin.step(np.zeros((1, 1)), np.array([[0.8]]))[0, 0] == 0.5
        y = coin.step(np.array([[1.0]]), np.array([[0.4]]))
        assert abs(coin.R[0, 0] - 0.4) < 1e-15
        assert abs(y[0, 0] - 0.9) < 1e-15

    def test_adaptive_reward_clips_at_given_position(self):
        # handed at -0.25 the reward 0.4 * -0.25 < 0 clips to 0: y = 0.6
        coin = AdaptiveCoin(np.zeros((1, 1)))
        coin.step(np.zeros((1, 1)), np.array([[0.8]]))
        y = coin.step(np.array([[-0.25]]), np.array([[0.4]]))
        assert coin.R[0, 0] == 0.0
        assert abs(y[0, 0] - 0.6) < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=12),
)
def test_adaptive_invariants_random_streams(seed, steps):
    """L and G never decrease, R never goes negative, and positions stay
    finite for any outcome stream."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(3, 2))
    coin = AdaptiveCoin(y)
    for _ in range(steps):
        scale = 10.0 ** rng.integers(-6, 4)
        y = coin.step(y, scale * rng.normal(size=(3, 2)))
        assert np.all(np.isfinite(y))
        assert np.all(coin.R >= 0.0)
        assert np.all(coin.G >= coin.L - 1e-300)
