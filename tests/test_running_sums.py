"""The running sums (combined estimator and policy inputs) against the
from-scratch oracle, over random batch sequences: dimensions 1-3, arms with
fewer units than the dimension, and collinear batches, so that per-arm Grams
are often singular."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivw_oracle
from banditstop import (
    ContractError,
    EpsGreedy,
    EstimatorUnavailable,
    KnownSigma,
    ResidualSigma,
    RunningSums,
    Schedule,
    SimulationSetup,
    StoppingRule,
    Thompson,
    TrueModel,
    Ucb,
    UniformRandom,
    constant_clip,
    estimators,
    evaluate,
    fit_batch_ols,
    ivw_combine,
    ivw_estimate,
    linalg,
    make_rng,
    realize_rewards,
    residual_noise_factors,
    sample_batch_contexts,
    select_actions,
    simulate,
    simulate_ensemble,
    simulate_trajectory,
    spectral_norm,
    uniform_cube_spec,
    update_state,
)
from banditstop.bounds import lock_step_batch
from banditstop.estimators import ArmFit, arm_masks, fit_arms
from banditstop.linalg import gram_check, inverse_spd, is_invertible_gram, solve_spd
from replay_oracle import Evaluation, batch_stats, bits, recorded_evaluations

RTOL = 1e-10


@st.composite
def batch_sequences(draw):
    dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    signal = draw(st.sampled_from([0.0, 1.0, 100.0]))  # large signal: residual sums must not cancel
    noise = draw(st.floats(0.5, 2.0))
    layouts = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    rng = np.random.default_rng(seed)
    betas = signal * rng.normal(size=(2, dim))
    batches = []
    for n0, n1, collinear in layouts:
        actions = rng.permutation(np.repeat([0, 1], [n0, n1]))
        x = rng.uniform(-1.0, 1.0, size=(n0 + n1, dim))
        if collinear and dim > 1:
            x[:, -1] = x[:, 0]
        y = np.einsum("ij,ij->i", x, betas[actions]) + noise * rng.normal(size=n0 + n1)
        batches.append(ivw_oracle.BatchData(x, actions, y))
    probe = rng.normal(size=(2, dim))
    return dim, batches, probe


def outcome(fn, *args):
    try:
        return fn(*args)
    except EstimatorUnavailable as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, EstimatorUnavailable):
        assert isinstance(got, EstimatorUnavailable) and str(got) == str(want)
        return
    assert not isinstance(got, EstimatorUnavailable), got
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_sequences(), st.sampled_from([KnownSigma(1.3), ResidualSigma()]))
def test_running_sums_match_oracle(case, sigma_mode):
    dim, batches, probe = case
    sums = RunningSums.empty(dim)
    fits = []
    for t, batch in enumerate(batches, start=1):
        fit = fit_batch_ols(batch.contexts, batch.actions, batch.rewards)
        fits.append(fit)
        update_state(sums, fit)
        assert len(sums) == t
        got = outcome(ivw_estimate, sums, sigma_mode, 7)
        want = outcome(ivw_oracle.ivw_combine, fits, sigma_mode, 7, batches[:t])
        norms = outcome(ivw_combine, sums, sigma_mode, 7)
        if isinstance(want, EstimatorUnavailable):
            assert_same(norms, want)
        else:
            assert_same(norms, [spectral_norm(want.var0), spectral_norm(want.var1)])
            want = (want.beta0, want.beta1, want.var0, want.var1, want.noise_sd)
            got = (got.beta0, got.beta1, got.var0, got.var1, got.noise_sd)
        assert_same(got, want)
        for beta0, beta1 in ((probe[0], probe[1]), (-probe[1], 3.0 * probe[0])):
            assert_same(
                outcome(residual_noise_factors, sums, beta0, beta1),
                outcome(ivw_oracle.residual_noise_factors, batches[:t], beta0, beta1),
            )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_sequences())
def test_policy_inputs_match_oracle_bitwise(case):
    # The policy reads X'X, X'y and the counts from the running sums; they
    # equal the raw per-unit sums, from zero in batch order, bit for bit, and
    # so do its singularity checks and the estimates it solves over the arm
    # axis (each arm alone where the other's X'X is singular).
    dim, batches, _ = case
    sums = RunningSums.empty(dim)
    for t, batch in enumerate(batches, start=1):
        update_state(sums, fit_batch_ols(batch.contexts, batch.actions, batch.rewards))
        invertible = is_invertible_gram(sums.xx)
        both = solve_spd(sums.xx, sums.xy) if invertible.all() else None
        for arm, want in enumerate(ivw_oracle.policy_sums(batches[:t], dim)):
            assert np.array_equal(sums.xx[arm], want.xx)
            assert np.array_equal(sums.xy[arm], want.xy)
            assert sums.count[arm] == want.count
            want_est = ivw_oracle.ols_estimate(want)
            assert bool(invertible[arm]) == (want_est is not None)
            if want_est is not None:
                got_est = solve_spd(sums.xx[arm], sums.xy[arm]) if both is None else both[arm]
                assert np.array_equal(got_est, want_est)


def test_single_usable_batch_is_a_bitwise_fixed_point():
    # Singular batches before and after the only usable one leave its
    # estimate untouched, bit for bit.
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(6, 2))
    a = np.array([1, 0, 1, 0, 1, 0])
    y = rng.normal(size=6)
    usable = fit_batch_ols(x, a, y)
    sums = RunningSums.empty(2)
    for fit in (fit_batch_ols(x[:1], a[:1], y[:1]), usable, fit_batch_ols(x[1:3], a[1:3], y[1:3])):
        update_state(sums, fit)
    est = ivw_estimate(sums, ResidualSigma(), 6)
    assert np.array_equal(est.beta0, usable.arm0.beta)
    assert np.array_equal(est.beta1, usable.arm1.beta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_sequences(), st.sampled_from([KnownSigma(1.3), ResidualSigma()]))
def test_combined_variances_equal_the_oracle_bitwise(case, sigma_mode):
    # The terminal estimate's variance matrices are the oracle's
    # n * inverse_spd(G) * f bit for bit, with the residual factors the
    # package computes (the oracle's own, from raw units, agree to RTOL
    # above), and its estimates are the oracle's bit for bit.  The norms the
    # stopping rule reads are n f / lambda_min(G) with the same factors, bit
    # for bit, and agree with the matrices' spectral norms to rounding.
    dim, batches, _ = case
    sums, fits = RunningSums.empty(dim), []
    for batch in batches:
        fits.append(fit_batch_ols(batch.contexts, batch.actions, batch.rewards))
        update_state(sums, fits[-1])
        est = outcome(ivw_estimate, sums, sigma_mode, 7)
        norms = outcome(ivw_combine, sums, sigma_mode, 7)
        if isinstance(est, EstimatorUnavailable):
            assert isinstance(norms, EstimatorUnavailable) and str(norms) == str(est)
            continue
        factors = (
            (1.3**2, 1.3**2)
            if isinstance(sigma_mode, KnownSigma)
            else residual_noise_factors(sums, est.beta0, est.beta1)
        )
        sd = (1.3, 1.3) if isinstance(sigma_mode, KnownSigma) else tuple(map(math.sqrt, factors))
        assert est.noise_sd == sd
        assert len(norms) == 2 and all(type(norm) is float for norm in norms)
        for arm, (beta, var, norm) in enumerate(zip((est.beta0, est.beta1), (est.var0, est.var1), norms)):
            gram = ivw_oracle.combined_gram(fits, arm)
            assert np.array_equal(beta, ivw_oracle.combine_arm(fits, arm))
            assert np.array_equal(var, 7 * inverse_spd(gram) * factors[arm])
            assert norm == 7 * factors[arm] / float(gram_check(gram)[1])
            # The tolerance of test_estimators.py's identity test.
            assert abs(norm - spectral_norm(var)) <= 32.0 * np.finfo(float).eps * np.linalg.cond(gram) * norm
        if isinstance(sigma_mode, KnownSigma):
            oracle = ivw_oracle.ivw_combine(fits, sigma_mode, 7)
            assert np.array_equal(est.var0, oracle.var0) and np.array_equal(est.var1, oracle.var1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batch_sequences())
def test_known_sigma_sums_keep_no_residual_state(case):
    # Sums made without residual terms, from fits made without residual sums
    # of squares, hold None for both terms and otherwise equal the full sums
    # bit for bit, so the known-sigma estimate is unchanged.
    dim, batches, _ = case
    full, lean = RunningSums.empty(dim), RunningSums.empty(dim, residual=False)
    for batch in batches:
        update_state(full, fit_batch_ols(batch.contexts, batch.actions, batch.rewards))
        fit = fit_batch_ols(batch.contexts, batch.actions, batch.rewards, residual=False)
        assert fit.arm0.rss is None and fit.arm1.rss is None
        update_state(lean, fit)
        kept, bare = dataclasses.asdict(full), dataclasses.asdict(lean)
        assert bare.pop("xe") is None and bare.pop("ee") is None
        for name, value in bare.items():
            assert np.array_equal(value, kept[name]), name
        got, want = (outcome(ivw_combine, s, KnownSigma(1.3), 7) for s in (lean, full))
        if isinstance(want, EstimatorUnavailable):
            assert str(got) == str(want)
        else:
            assert got == want
            got, want = (ivw_estimate(s, KnownSigma(1.3), 7) for s in (lean, full))
            for name in ("beta0", "beta1", "noise_sd", "var0", "var1"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
    with pytest.raises(ContractError):
        residual_noise_factors(lean, np.zeros(dim), np.zeros(dim))


def test_fits_without_residual_terms_carry_no_squares():
    # A fit made without residual terms has None for y'y as for the RSS, in
    # both fit types, and residual-sigma sums refuse it rather than fold a
    # y'y that was never computed.
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1.0, 1.0, size=(12, 2)), rng.normal(size=12)
    actions = np.tile([0, 1], 6)
    lean = fit_batch_ols(x, actions, y, residual=False)
    assert [lean.arm0.sum_sq, lean.arm1.sum_sq, lean.arm0.rss, lean.arm1.rss] == [None] * 4
    full = fit_batch_ols(x, actions, y)
    assert all(isinstance(v, float) for v in (full.arm0.sum_sq, full.arm1.sum_sq))
    update_state(RunningSums.empty(2, residual=False), lean)
    with pytest.raises(ContractError, match="without residual terms"):
        update_state(RunningSums.empty(2), lean)

    masks = arm_masks(np.stack([actions == 1] * 3))
    stacked = fit_arms(np.stack([x] * 3), np.stack([y] * 3), masks, residual=False)
    assert stacked.sum_sq is None and stacked.rss is None
    assert fit_arms(np.stack([x] * 3), np.stack([y] * 3), masks).sum_sq.shape == (3, 2)
    RunningSums.empty(2, residual=False, members=3).add(stacked)
    with pytest.raises(ContractError, match="without residual terms"):
        RunningSums.empty(2, members=3).add(stacked)


def test_known_sigma_solves_the_combined_estimate_only_at_the_stop():
    # Under a known noise scale neither loop solves the combined estimate
    # per batch: with a uniform policy, which reads no estimate, the only
    # solves in `banditstop.estimators` are the batch fits' (one per batch
    # over the arm axis, or over the stack) and, at the stop, the terminal
    # estimate's: one call over the arm axis, unless each arm has one usable
    # batch, its estimate.  That estimate is the oracle's, bit for bit.
    setup = SimulationSetup(
        context=uniform_cube_spec(2), policy=UniformRandom(), clip=constant_clip(0.5), batch_size=4,
        sigma_mode=KnownSigma(1.0), rule=StoppingRule("online_threshold", t_max=40, k=0.5),
    )
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3])

    def fits_of(traj):
        def arm(beta, gram):
            return ArmFit(beta, gram, 0, None, np.zeros(2), None)

        return [ivw_oracle.of_arms(arm(b0, g0), arm(b1, g1)) for b1, g1, b0, g0 in batch_stats(traj)]

    def terminal_solves(traj):
        usable = [sum(f.arm(a).beta is not None for f in fits_of(traj)) for a in (0, 1)]
        return int(max(usable) > 1)

    def check_terminal(traj):
        oracle = ivw_oracle.ivw_combine(fits_of(traj), KnownSigma(1.0), 4)
        for name in ("beta0", "beta1", "var0", "var1"):
            assert getattr(traj.ivw, name).tobytes() == getattr(oracle, name).tobytes(), name

    seeds = range(6)
    with mock.patch.object(estimators, "solve_spd", wraps=solve_spd) as solves:
        lone = [simulate_trajectory(setup, model, make_rng(s)) for s in seeds]
    assert all(traj.ivw is not None for traj in lone)
    assert solves.call_count == sum(traj.stop_time + terminal_solves(traj) for traj in lone)
    assert sum(traj.stop_time for traj in lone) > 6 * 3  # several batches each

    with mock.patch.object(estimators, "solve_spd", wraps=solve_spd) as solves:
        ensemble = list(simulate_ensemble(setup, model, [make_rng(s) for s in seeds]))
    # One stacked fit per batch of the stack, and at each member's stop the
    # solve of its lone trajectory (`ivw_estimate`).
    assert solves.call_count == max(traj.stop_time for traj in ensemble) + sum(map(terminal_solves, ensemble))
    for got, want in zip(ensemble, lone):
        assert got.stop_time == want.stop_time
        check_terminal(got)
        check_terminal(want)


@pytest.mark.parametrize("sigma_mode", [KnownSigma(1.3), ResidualSigma()])
@pytest.mark.parametrize("batch_size", [3, 4, 6])
def test_the_stacked_combine_equals_each_members_lone_combine(sigma_mode, batch_size):
    # The engine's per-batch step on stacked sums: at every batch, each
    # member's availability and norms are, bit for bit, those of the lone
    # combine of its own sums, and unavailable exactly where that raises.
    spec, policy, clip = uniform_cube_spec(2), Thompson(1.0), constant_clip(0.2)
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3])
    members, residual = 8, isinstance(sigma_mode, ResidualSigma)
    rngs = [make_rng(seed) for seed in range(members)]
    sums = RunningSums.empty(2, residual, members=members)
    seen = {True: 0, False: 0}
    for t in range(1, 16):
        x, arm1, y = lock_step_batch(spec, model, policy, clip, batch_size, t, rngs, sums.xx, sums.xy)
        sums.add(fit_arms(x, y, arm_masks(arm1), residual))
        stacked = ivw_combine(sums, sigma_mode, batch_size)
        assert stacked.ok.shape == (members,) and stacked.norms.shape == (members, 2)
        for k in range(members):
            lone = outcome(ivw_combine, sums.member(k), sigma_mode, batch_size)
            ok = not isinstance(lone, EstimatorUnavailable)
            assert bool(stacked.ok[k]) == ok
            if ok:
                assert stacked.norms[k].tobytes() == np.array(lone).tobytes()
            seen[ok] += 1
    assert seen[True] > 20 and seen[False] > 0, seen


def fresh_check_trajectory(setup, model, rng):
    """The lone loop of `simulate_trajectory`, with X'X replaced by a copy
    after every batch: it is never the combined Grams' array, so it is
    summed on its own and the policy checks it afresh
    (`policies.action_probabilities`).  Returns the stop time, the per-batch
    stats, each batch's call of the stopping rule and the terminal estimate
    (or None)."""
    residual = not isinstance(setup.sigma_mode, KnownSigma)
    sums = RunningSums.empty(model.dim, residual)
    stats, calls, norms = [], [], None
    for t in range(1, setup.rule.t_max + 1):
        sums.xx = sums.xx.copy()
        x = sample_batch_contexts(setup.context, setup.batch_size, rng)
        actions = select_actions(setup.policy, sums, x, setup.clip, rng)
        y = realize_rewards(model, x, actions, rng)
        fit = fit_batch_ols(x, actions, y, residual=residual)
        stats.append((fit.arm1.beta, fit.arm1.gram, fit.arm0.beta, fit.arm0.gram))
        update_state(sums, fit)
        previous = norms
        try:
            norms = ivw_combine(sums, setup.sigma_mode, setup.batch_size)
        except EstimatorUnavailable:
            norms = None
        calls.append(Evaluation(t, norms, previous, evaluate(setup.rule, t, current=norms, previous=previous)))
        if calls[-1].decision.stop:
            break
    return t, stats, calls, None if norms is None else ivw_estimate(sums, setup.sigma_mode, setup.batch_size)


@pytest.mark.parametrize(
    "policy", [EpsGreedy(Schedule(0.2)), Ucb(Schedule(1.0, decay=0.5, floor=0.1)), Thompson(1.0)]
)
@pytest.mark.parametrize("sigma_mode", [KnownSigma(1.0), ResidualSigma()])
@pytest.mark.parametrize("batch_size", [4, 6])
def test_the_shared_gram_changes_no_bit_of_a_lone_trajectory(policy, sigma_mode, batch_size):
    # Batches of 4 or 6 units at d = 2 leave arms singular often, so X'X
    # stops being the combined Grams' array at different batches, and in
    # some runs is that array for a while first.  (At 3 units one arm is
    # singular in every batch, so it never is.)
    setup = SimulationSetup(
        context=uniform_cube_spec(2), policy=policy, clip=constant_clip(0.2), batch_size=batch_size,
        sigma_mode=sigma_mode, rule=StoppingRule("online_threshold", t_max=40, k=0.5),
    )
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3])
    singular = reused = 0
    for seed in range(8):
        with mock.patch.object(linalg, "eigvalsh", wraps=linalg.eigvalsh) as shared, recorded_evaluations() as calls:
            got = simulate_trajectory(setup, model, make_rng(seed))
        with mock.patch.object(linalg, "eigvalsh", wraps=linalg.eigvalsh) as fresh:
            t, stats, want_calls, want = fresh_check_trajectory(setup, model, make_rng(seed))
        reused += fresh.call_count - shared.call_count
        assert got.stop_time == t and got.stop == want_calls[-1].decision
        assert [tuple(map(bits, s)) for s in batch_stats(got)] == [tuple(map(bits, s)) for s in stats]
        assert [call.bits() for call in calls] == [call.bits() for call in want_calls]
        assert (got.ivw is None) == (want is None)
        if want is not None:
            for name in ("beta0", "beta1", "var0", "var1"):
                assert bits(getattr(got.ivw, name)) == bits(getattr(want, name)), name
            assert got.ivw.noise_sd == want.noise_sd
        singular += sum(b is None for b1, _, b0, _ in stats for b in (b1, b0))
    assert singular > 10 and reused > 0, (singular, reused)


@pytest.mark.parametrize(
    "policy, sigma_mode, solves, inverses",
    [(EpsGreedy(Schedule(0.2)), KnownSigma(1.0), 2, 0), (Thompson(1.0), ResidualSigma(), 3, 1)],
    ids=["eps_greedy-known", "thompson-residual"],
)
def test_a_lone_batch_makes_two_eigendecompositions_and_at_most_four_solves(policy, sigma_mode, solves, inverses):
    # The demo set-up, and Thompson under residual sigma: both arms are
    # usable from the first batch.  Each LAPACK gufunc call covers both arms.
    # At the first batch the policy checks X'X afresh and solves nothing
    # (nothing is summed yet), and a lone usable batch per arm needs no
    # combined solve.  From then on a batch makes the batch fit's check and
    # solve, the combined Grams' check (whose verdict the policy reads, X'X
    # being that array) and the policy's solve; Thompson adds the policy's
    # inverse and, under residual sigma, the combined estimates' solve.
    setup = SimulationSetup(
        context=uniform_cube_spec(2), policy=policy, clip=constant_clip(0.1), batch_size=100,
        sigma_mode=sigma_mode, rule=StoppingRule("online_threshold", t_max=200, k=0.05),
    )
    model = TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3])
    gufuncs = ("eigvalsh_lo", "solve1", "inv")
    for seed in range(3):
        calls = dict.fromkeys(gufuncs, 0)
        seen = []

        def counting(name):
            original = getattr(linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return mock.patch.object(linalg, name, counted)

        def evaluated(*args, **kwargs):
            seen.append([calls[name] for name in gufuncs])
            return evaluate(*args, **kwargs)

        with counting("eigvalsh_lo"), counting("solve1"), counting("inv"), mock.patch.object(
            simulate, "evaluate", evaluated
        ):
            traj = simulate_trajectory(setup, model, make_rng(seed))
        per_batch = np.diff([[0, 0, 0]] + seen, axis=0).tolist()
        assert all(b is not None for s in batch_stats(traj) for b in (s[0], s[2]))
        assert traj.stop_time > 20
        assert per_batch == [[3, 1, 0]] + [[2, solves, inverses]] * (traj.stop_time - 1)
