"""`simulate.simulate_ensemble` against `simulate_trajectory`, member by
member and bit for bit, over random set-ups: every policy kind with decaying
schedules, known and residual sigma, all four stopping rules with cap hits
at t_max 1-12, dimensions 1-3, batches smaller than the dimension (singular
arms, batches with no estimator), box and truncated-Gaussian contexts, both
noise families, and 1-40 members in chunks of 1-8."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from banditstop import (
    BoundConstants,
    ClipSchedule,
    ContextSpec,
    EpsGreedy,
    KnownSigma,
    ResidualSigma,
    Schedule,
    SimulationSetup,
    StoppingRule,
    Thompson,
    TrueModel,
    TruncatedGaussian,
    Ucb,
    UniformBox,
    UniformRandom,
    bounds,
    make_rng,
    simulate,
)
from replay_oracle import batch_stats, recorded_evaluations


@st.composite
def schedules(draw, initial):
    start = draw(initial)
    decay = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return Schedule(start, decay=decay, floor=draw(st.floats(0.01, 1.0)) * start)


@st.composite
def set_ups(draw):
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        centre, half = rng.uniform(-0.5, 0.5, size=dim), rng.uniform(0.2, 1.0, size=dim)
        dist = UniformBox(centre - half, centre + half)
        sup = float(np.abs(np.concatenate([dist.lower, dist.upper])).max())
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
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 20]))
    kind = draw(st.sampled_from(["opportunity", "threshold", "online_threshold", "online_opportunity"]))
    if kind in ("opportunity", "threshold"):
        consts = BoundConstants(
            context_bound=spec.euclidean_bound(), dim=spec.dim, margin_exponent=1.0, margin_const=1.0, delta=0.1,
            tail_const=draw(st.sampled_from([0.01, 1.0, 100.0])), unit_cost=draw(st.sampled_from([1e-3, 0.1])),
            batch_size=n, clip_floor=clip.floor,
        )
        rule = (
            dict(kind="predetermined_opportunity", consts=consts)
            if kind == "opportunity"
            else dict(kind="predetermined_threshold", consts=consts, k=draw(st.sampled_from([0.1, 1.0, 10.0])))
        )
    elif kind == "online_threshold":
        rule = dict(kind=kind, k=draw(st.sampled_from([0.3, 1.0, 3.0, 10.0])))
    else:
        rule = dict(
            kind=kind, c_prime=draw(st.sampled_from([0.01, 0.1, 1.0])), scale_by_batch=draw(st.booleans()),
            batch_size=n,
        )
    sigma_mode = draw(st.sampled_from([KnownSigma(1.0), KnownSigma(0.5), ResidualSigma()]))
    setup = SimulationSetup(
        context=spec, policy=policy, clip=clip, batch_size=n, sigma_mode=sigma_mode,
        rule=StoppingRule(t_max=draw(st.integers(1, 12)), **rule),
    )
    return setup, model


def assert_same_arrays(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, b)


def assert_same_trajectory(got, want):
    assert (got.stop_time, got.cap_hit) == (want.stop_time, want.cap_hit)
    assert (got.stop.stop, got.stop.t, got.stop.cap_hit, got.stop.diagnostics) == (
        want.stop.stop, want.stop.t, want.stop.cap_hit, want.stop.diagnostics
    )
    for traj in (got, want):  # each ends on its only stopping decision
        assert traj.stop.stop and traj.stop_time == len(traj.stats)
    for f, g in zip(batch_stats(got), batch_stats(want)):
        assert len(f) == len(g) == 4
        for p, q in zip(f, g):
            assert_same_arrays(p, q)
    assert (got.ivw is None) == (want.ivw is None)
    if want.ivw is not None:
        for name in ("beta0", "beta1", "var0", "var1"):
            assert np.array_equal(getattr(got.ivw, name), getattr(want.ivw, name))
        assert got.ivw.batch_size == want.ivw.batch_size
        assert all(type(s) is float for s in got.ivw.noise_sd + want.ivw.noise_sd)
        assert np.array(got.ivw.noise_sd).tobytes() == np.array(want.ivw.noise_sd).tobytes()


def calls_by_member(calls, stop_times, sizes, online):
    """The engine's calls of the stopping rule, split among the members: it
    runs the chunks in turn, and in each batch calls the rule for each live
    member in order under an online rule, or once for them all under a
    pre-determined one."""
    calls, by_member, start = iter(calls), [[] for _ in stop_times], 0
    for size in sizes:
        chunk = range(start, start + size)
        for t in range(1, max(stop_times[i] for i in chunk) + 1):
            live = [i for i in chunk if stop_times[i] >= t]
            shared = None if online else next(calls)
            for i in live:
                by_member[i].append(next(calls) if online else shared)
        start += size
    assert next(calls, None) is None
    return by_member


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    set_up=set_ups(),
    members=st.integers(1, 40),
    per_chunk=st.integers(1, 8),
    seed=st.integers(0, 2**63 - 1),
)
def test_ensemble_members_equal_lone_trajectories(set_up, members, per_chunk, seed):
    setup, model = set_up
    seeds = [seed + i for i in range(members)]
    budget = per_chunk * 8 * setup.batch_size * (model.dim + 4)
    lock_step = mock.patch.object(simulate, "_lock_step", wraps=simulate._lock_step)
    with mock.patch.object(bounds, "CHUNK_BYTES", budget), lock_step as chunks, recorded_evaluations() as calls:
        got = list(simulate.simulate_ensemble(setup, model, [make_rng(s) for s in seeds]))
    sizes = [min(per_chunk, members - start) for start in range(0, members, per_chunk)]
    assert chunks.call_count == len(sizes)  # every chunk runs lock-step, one of one member too
    assert len(got) == members
    online = not setup.rule.predetermined
    engine = calls_by_member(calls, [traj.stop_time for traj in got], sizes, online)
    for traj, s, evaluations in zip(got, seeds, engine):
        with recorded_evaluations() as lone:
            want = simulate.simulate_trajectory(setup, model, make_rng(s))
        assert_same_trajectory(traj, want)
        # Each batch's call of the rule reads the same norms, bit for bit; the
        # engine gives a pre-determined rule, which reads none, no norms.
        same = (lambda call: call.bits()) if online else (lambda call: (call.t, call.decision.stop, call.decision.cap_hit))
        assert list(map(same, evaluations)) == list(map(same, lone))
        assert [call.decision.stop for call in lone] == [False] * (want.stop_time - 1) + [True]
