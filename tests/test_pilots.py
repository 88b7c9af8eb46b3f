"""The lock-step pilots of `calibrate_tail_constant` against the sequential
loop in `pilot_oracle`, bit for bit, over random set-ups: every policy kind
with decaying schedules, dimensions 1-3, batches smaller than the dimension
(singular arms, infinite deviations), box and truncated-Gaussian contexts,
both noise families, and pilot counts spanning several memory chunks."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pilot_oracle
from banditstop import (
    ClipSchedule,
    ConfigError,
    ContextSpec,
    EpsGreedy,
    Schedule,
    Thompson,
    TrueModel,
    TruncatedGaussian,
    Ucb,
    UniformBox,
    UniformRandom,
    bounds,
)


@st.composite
def schedules(draw, initial):
    start = draw(initial)
    decay = draw(st.sampled_from([0.0, 0.5, 1.0]))
    floor = draw(st.floats(0.01, 1.0)) * start
    return Schedule(start, decay=decay, floor=floor)


@st.composite
def set_ups(draw):
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        centre = rng.uniform(-0.5, 0.5, size=dim)
        half = rng.uniform(0.2, 1.0, size=dim)
        lower, upper = centre - half, centre + half
        dist = UniformBox(lower, upper)
        sup = float(max(np.abs(lower).max(), np.abs(upper).max()))
    else:
        a = rng.normal(size=(dim, dim))
        dist = TruncatedGaussian(
            mean=rng.uniform(-0.3, 0.3, size=dim), cov=0.3 * (a @ a.T) + 0.2 * np.eye(dim), bound=1.5
        )
        sup = 1.5
    spec = ContextSpec(dim=dim, dist=dist, sup_bound=sup)
    model = TrueModel(
        beta0=rng.uniform(-1, 1, size=dim),
        beta1=rng.uniform(-1, 1, size=dim),
        sigma0=draw(st.sampled_from([0.0, 0.5, 1.0])),
        sigma1=draw(st.sampled_from([0.5, 1.0, 2.0])),
        noise=draw(st.sampled_from(["gaussian", "bounded_uniform"])),
    )
    policy = draw(
        st.one_of(
            st.just(UniformRandom()),
            schedules(st.floats(0.05, 1.0)).map(EpsGreedy),
            schedules(st.floats(0.1, 2.0)).map(Ucb),
            st.floats(0.1, 3.0).map(Thompson),
        )
    )
    clip = ClipSchedule(draw(schedules(st.floats(0.05, 0.5))))
    batch_size = draw(st.sampled_from([1, 2, 3, 5, 8, 20]))
    return spec, model, policy, clip, batch_size


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    set_up=set_ups(),
    t_ref=st.integers(1, 4),
    replications=st.integers(10, 30),
    members=st.integers(1, 7),
    delta=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**63 - 1),
)
def test_lock_step_pilots_equal_sequential_pilots(set_up, t_ref, replications, members, delta, seed):
    spec, model, policy, clip, n = set_up
    want = pilot_oracle.sequential_deviations(spec, model, policy, clip, n, t_ref, replications, seed)

    # A budget of `members` pilots per chunk.
    budget = members * 8 * n * (spec.dim + 4)
    chunks = mock.patch.object(
        bounds, "_lock_step_deviations", wraps=bounds._lock_step_deviations
    )
    with mock.patch.object(bounds, "CHUNK_BYTES", budget), chunks as chunk_calls:
        got = bounds.pilot_deviations(spec, model, policy, clip, n, t_ref, replications, seed)
        try:
            k = bounds.calibrate_tail_constant(
                spec, model, policy, clip, n, t_ref, delta, replications, seed
            )
        except ConfigError as exc:
            k = exc
    assert chunk_calls.call_count == 2 * math.ceil(replications / members)
    assert np.array_equal(got, want)

    quantile = pilot_oracle.nearest_rank_quantile(want, delta)
    if math.isfinite(quantile):
        assert k == quantile**2 * n * t_ref * clip.floor**2
    else:
        assert isinstance(k, ConfigError) and "without a usable estimate" in str(k)
