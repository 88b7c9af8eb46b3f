import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import (
    ClipSchedule,
    ConfigError,
    ContractError,
    EpsGreedy,
    RunningSums,
    Schedule,
    Thompson,
    Ucb,
    UniformRandom,
    action_probabilities,
    constant_clip,
    fit_batch_ols,
    make_rng,
    select_actions,
    update_state,
)
from banditstop.policies import probabilities_from_estimates
from policy_oracle import thompson_sampled_probability


def action_probability(kind, sums: RunningSums, x) -> float:
    """Pre-clip probability of arm 1 for the single context `x`."""
    return float(action_probabilities(kind, sums, np.atleast_2d(np.asarray(x, float)))[0])


def scalar_state(beta0: float, beta1: float, gram: float = 1.0) -> RunningSums:
    """d=1 sums whose cumulative OLS estimates are exactly (beta0, beta1)."""
    s = RunningSums.empty(1)
    s.xx = np.array([[[gram]], [[gram]]])
    s.xy = np.array([[gram * beta0], [gram * beta1]])
    s.count = np.array([5, 5])
    s.t = 1
    return s


def random_state(dim: int, rng: np.random.Generator, n_per_arm: int = 12) -> RunningSums:
    s = RunningSums.empty(dim)
    x = rng.uniform(-1, 1, size=(2 * n_per_arm, dim))
    a = np.repeat([0, 1], n_per_arm)
    y = rng.normal(size=2 * n_per_arm)
    update_state(s, fit_batch_ols(x, a, y))
    return s


def clipped_probabilities(kind, sums, contexts, sched: ClipSchedule) -> np.ndarray:
    """The probabilities `select_actions` draws the next batch with."""
    level = sched.value(len(sums) + 1)
    return np.clip(action_probabilities(kind, sums, contexts), level, 1.0 - level)


class TestActionProbability:
    @pytest.mark.parametrize(
        "kind",
        [UniformRandom(), EpsGreedy(Schedule(0.2)), Ucb(Schedule(1.0)), Thompson(1.0)],
    )
    def test_empty_state_gives_half(self, kind):
        state = RunningSums.empty(2)
        assert action_probability(kind, state, [0.3, -0.7]) == 0.5

    def test_eps_greedy_favors_better_arm(self):
        state = scalar_state(beta0=1.0, beta1=2.0)
        kind = EpsGreedy(Schedule(0.2))
        assert action_probability(kind, state, [1.0]) == 0.9
        assert action_probability(kind, state, [-1.0]) == pytest.approx(0.1)

    def test_eps_greedy_tie(self):
        state = scalar_state(beta0=1.5, beta1=1.5)
        assert action_probability(EpsGreedy(Schedule(0.2)), state, [1.0]) == 0.5
        assert action_probability(EpsGreedy(Schedule(0.2)), state, [0.0]) == 0.5

    def test_ucb_deterministic_sides(self):
        state = scalar_state(beta0=0.0, beta1=1.0)
        kind = Ucb(Schedule(0.5))
        assert action_probability(kind, state, [1.0]) == 1.0
        assert action_probability(kind, state, [-1.0]) == 0.0

    def test_ucb_tie(self):
        state = scalar_state(beta0=1.0, beta1=1.0)
        assert action_probability(Ucb(Schedule(0.5)), state, [1.0]) == 0.5

    def test_thompson_symmetry(self):
        state = scalar_state(beta0=0.7, beta1=0.7)
        assert action_probability(Thompson(1.0), state, [1.0]) == 0.5

    def test_thompson_closed_form_matches_sampling(self):
        rng = make_rng(123)
        for trial in range(5):
            state = random_state(2, rng)
            x = rng.uniform(-1, 1, size=2)
            closed = action_probability(Thompson(0.8), state, x)
            sampled = thompson_sampled_probability(state, x, 0.8, make_rng(trial), draws=100_000)
            assert abs(closed - sampled) < 0.01

    def test_measurability_replay(self):
        # The probability map is a pure function of (state, contexts).
        rng = make_rng(7)
        state = random_state(3, rng)
        x = rng.uniform(-1, 1, size=(50, 3))
        for kind in (EpsGreedy(Schedule(0.3)), Ucb(Schedule(0.7)), Thompson(1.2)):
            p1 = action_probabilities(kind, state, x)
            p2 = action_probabilities(kind, state, x)
            np.testing.assert_array_equal(p1, p2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        [EpsGreedy(Schedule(0.4, decay=0.5, floor=0.05)), Ucb(Schedule(1.0, decay=0.5)), Thompson(0.7)]
    ),
    dim=st.integers(1, 3),
    n=st.integers(1, 6),
    members=st.integers(1, 40),
    t_next=st.integers(1, 20),
    tie=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_probabilities_equal_per_member(kind, dim, n, members, t_next, tie, seed):
    # The lock-step pilots pass a leading member axis; each member must get
    # the bits a call with its arrays alone gives.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(members, n, dim))
    b0 = rng.normal(size=(members, dim))
    b1 = b0.copy() if tie else rng.normal(size=(members, dim))
    designs = rng.normal(size=(2, members, dim + 2, dim))
    inv0, inv1 = np.linalg.inv(np.matmul(designs.transpose(0, 1, 3, 2), designs))
    stacked = probabilities_from_estimates(kind, t_next, x, b0, b1, inv0, inv1)
    assert stacked.shape == (members, n)
    for r in range(members):
        alone = probabilities_from_estimates(kind, t_next, x[r], b0[r], b1[r], inv0[r], inv1[r])
        assert np.array_equal(stacked[r], alone)


class TestClip:
    def test_clip_schedule_validation(self):
        with pytest.raises(ConfigError):
            ClipSchedule(Schedule(0.7))
        sched = ClipSchedule(Schedule(0.4, decay=0.5, floor=0.05))
        assert sched.value(1) == 0.4
        assert sched.value(100) == pytest.approx(max(0.4 * 100**-0.5, 0.05))
        assert sched.floor == 0.05
        assert constant_clip(0.1).floor == 0.1


class TestSelectActions:
    def test_uniform_fraction(self):
        state = RunningSums.empty(1)
        x = np.ones((10_000, 1))
        actions = select_actions(UniformRandom(), state, x, constant_clip(0.1), make_rng(0))
        assert abs(actions.mean() - 0.5) < 0.015

    def test_clipped_floor_fraction(self):
        # Pre-clip 0.05 (eps/2) is floored to the clip level 0.1.
        state = scalar_state(beta0=2.0, beta1=1.0)
        x = np.ones((10_000, 1))
        kind, sched = EpsGreedy(Schedule(0.1)), constant_clip(0.1)
        actions = select_actions(kind, state, x, sched, make_rng(1))
        assert np.all(clipped_probabilities(kind, state, x, sched) == 0.1)
        assert abs(actions.mean() - 0.1) < 3 * np.sqrt(0.1 * 0.9 / 10_000)

    def test_deterministic_ucb_clipped(self):
        state = scalar_state(beta0=0.0, beta1=1.0)
        x = np.ones((10_000, 1))
        kind, sched = Ucb(Schedule(0.5)), constant_clip(0.1)
        actions = select_actions(kind, state, x, sched, make_rng(2))
        assert np.all(action_probabilities(kind, state, x) == 1.0)
        assert np.all(clipped_probabilities(kind, state, x, sched) == 0.9)
        assert abs(actions.mean() - 0.9) < 3 * np.sqrt(0.1 * 0.9 / 10_000)

    def test_clipping_invariant_along_trajectory(self):
        rng = make_rng(3)
        state = RunningSums.empty(2)
        kind = EpsGreedy(Schedule(0.4, decay=0.3, floor=0.05))
        sched = ClipSchedule(Schedule(0.2, decay=0.25, floor=0.05))
        beta1 = np.array([0.5, -0.2])
        for _ in range(6):
            x = rng.uniform(-1, 1, size=(40, 2))
            post = clipped_probabilities(kind, state, x, sched)
            actions = select_actions(kind, state, x, sched, rng)
            level = sched.value(len(state) + 1)
            assert np.all(post >= level - 1e-15)
            assert np.all(post <= 1 - level + 1e-15)
            y = x @ beta1 * actions + rng.normal(size=40)
            update_state(state, fit_batch_ols(x, actions, y))


class TestUpdateState:
    def test_empty_batch_for_one_arm(self):
        state = RunningSums.empty(2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        update_state(state, fit_batch_ols(x, np.array([1, 1]), np.array([1.0, 2.0])))
        np.testing.assert_array_equal(state.xx[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(state.xy[0], np.zeros(2))
        assert state.count[0] == 0 and state.count[1] == 2 and state.t == 1

    def test_rank_one_update(self):
        state = RunningSums.empty(2)
        x = np.array([[1.0, 2.0]])
        update_state(state, fit_batch_ols(x, np.array([1]), np.array([3.0])))
        np.testing.assert_allclose(state.xx[1], np.array([[1.0, 2.0], [2.0, 4.0]]))
        np.testing.assert_allclose(state.xy[1], np.array([3.0, 6.0]))

    def test_two_updates_equal_one_combined(self):
        rng = make_rng(4)
        x = rng.uniform(-1, 1, size=(30, 3))
        a = (rng.random(30) < 0.5).astype(int)
        y = rng.normal(size=30)
        combined = RunningSums.empty(3)
        update_state(combined, fit_batch_ols(x, a, y))
        seq = RunningSums.empty(3)
        update_state(seq, fit_batch_ols(x[:17], a[:17], y[:17]))
        update_state(seq, fit_batch_ols(x[17:], a[17:], y[17:]))
        for arm in (0, 1):
            np.testing.assert_allclose(seq.xx[arm], combined.xx[arm], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(seq.xy[arm], combined.xy[arm], rtol=1e-12, atol=1e-14)
            assert seq.count[arm] == combined.count[arm]
        assert seq.t == 2 and combined.t == 1

    def test_dimension_mismatch(self):
        state = RunningSums.empty(2)
        with pytest.raises(ContractError):
            update_state(state, fit_batch_ols(np.ones((3, 2)), np.zeros(2, dtype=int), np.ones(3)))
        with pytest.raises(ContractError):
            update_state(state, fit_batch_ols(np.ones((3, 2)), np.array([0, 1, 2]), np.ones(3)))
        with pytest.raises(ContractError):
            update_state(state, fit_batch_ols(np.ones((3, 3)), np.array([0, 1, 0]), np.ones(3)))
        assert state.t == 0


class TestSchedule:
    def test_non_increasing(self):
        s = Schedule(0.5, decay=0.4, floor=0.01)
        vals = [s.value(t) for t in range(1, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            Schedule(0.5, decay=-1.0)
        with pytest.raises(ConfigError):
            Schedule(0.5, floor=0.6)
        with pytest.raises(ContractError):
            Schedule(0.5).value(0)
