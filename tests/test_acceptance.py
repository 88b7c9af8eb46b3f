"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Oracles are implemented inline (Gaussian elimination, direct Monte Carlo,
inequality scans) so every asserted value is computed independently of the
code path it checks.
"""

import math

import numpy as np
import pytest

import banditstop as bs
from replay_oracle import batch_stats


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} {tag}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Per-batch OLS against an explicit elimination oracle
# ---------------------------------------------------------------------------


def gauss_solve(matrix, rhs):
    """Gauss-Jordan elimination with partial pivoting (independent oracle)."""
    a = [list(map(float, row)) + [float(r)] for row, r in zip(matrix, rhs)]
    n = len(a)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            raise ZeroDivisionError("singular")
        a[col], a[pivot] = a[pivot], a[col]
        div = a[col][col]
        a[col] = [v / div for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return np.array([a[r][n] for r in range(n)])


def test_acceptance_01_ols_oracle():
    rng = bs.make_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2 * d + 2, 51))
        x = rng.normal(size=(n, d))
        a = np.zeros(n, dtype=int)
        a[n // 2 :] = 1
        y = rng.normal(size=n)
        fit = bs.fit_batch_ols(x, a, y)
        for arm in (0, 1):
            mask = a == arm
            gram = x[mask].T @ x[mask]
            moment = x[mask].T @ y[mask]
            oracle = gauss_solve(gram, moment)
            err = np.max(np.abs(fit.arm(arm).beta - oracle)) / max(
                1.0, np.max(np.abs(oracle))
            )
            worst = max(worst, err)
    report(1, "per-batch OLS matches elimination oracle to 1e-9", worst <= 1e-9,
           f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Combined-estimator identities
# ---------------------------------------------------------------------------


def test_acceptance_02_ivw_identities():
    from banditstop.estimators import ArmFit
    from ivw_oracle import of_arms, sums_of

    def mk(gram, beta):
        g = np.atleast_2d(np.asarray(gram, dtype=float))
        b = np.atleast_1d(np.asarray(beta, dtype=float))

        def arm():
            return ArmFit(b.copy(), g.copy(), 4, 0.0, moment=g @ b, sum_sq=float(b @ g @ b))

        return of_arms(arm(), arm())

    ok = True
    # single batch: bitwise fixed point
    rng = bs.make_rng(202)
    single = mk([[2.0, 0.4], [0.4, 1.0]], rng.normal(size=2))
    est = bs.ivw_combine(sums_of([single]), bs.KnownSigma(1.0), batch_size=4)
    ok &= np.array_equal(est.beta1, single.arm1.beta)

    # equal Grams: exact mean to 1e-12
    gram = np.array([[2.0, 0.3], [0.3, 1.5]])
    b1, b2 = rng.normal(size=2), rng.normal(size=2)
    est = bs.ivw_combine(sums_of([mk(gram, b1), mk(gram, b2)]), bs.KnownSigma(1.0), 4)
    ok &= bool(np.max(np.abs(est.beta1 - (b1 + b2) / 2.0)) <= 1e-12)

    # scalar weighted average: exactly 3.5
    est = bs.ivw_combine(sums_of([mk(1.0, 2.0), mk(3.0, 4.0)]), bs.KnownSigma(1.0), 1)
    ok &= est.beta1[0] == 3.5
    report(2, "combined-estimator identities (fixed point, equal-Gram mean, 3.5)", ok)


# ---------------------------------------------------------------------------
# 3+4. Normality/coverage and the martingale covariance, one shared run
# ---------------------------------------------------------------------------

COV_R, COV_T, COV_N = 2000, 50, 500


@pytest.fixture(scope="module")
def coverage_run():
    spec = bs.ContextSpec(
        dim=2,
        dist=bs.UniformBox(lower=[-0.4, -1.0], upper=[1.0, 0.6]),
        sup_bound=1.0,
    )
    model = bs.TrueModel(beta0=[0.2, -0.1], beta1=[0.45, 0.25], sigma0=1.0, sigma1=1.0)
    config = bs.ExperimentConfig(
        context=spec,
        model=model,
        policy=bs.EpsGreedy(bs.Schedule(0.2)),
        clip=bs.constant_clip(0.1),
        batch_size=COV_N,
        stopping=bs.StoppingRule(kind="online_threshold", t_max=COV_T, k=1e-12),
        sigma_mode=bs.KnownSigma(1.0),
        replications=COV_R,
        master_seed=20260810,
        regret_mc_samples=1000,
        trajectory_json=True,
    )
    records, _ = bs.run_replications(config)
    z = np.empty((COV_R, 4))
    mart = np.empty((COV_R, 2))
    for r, rec in enumerate(records):
        ivw = rec.ivw
        z[r, :2] = (ivw.beta0 - model.beta0) / np.sqrt(np.diag(ivw.beta_cov(0)))
        z[r, 2:] = (ivw.beta1 - model.beta1) / np.sqrt(np.diag(ivw.beta_cov(1)))
        s = np.zeros(2)
        for beta1, gram1, _b0, _g0 in batch_stats(rec.trajectory):
            s += gram1 @ (beta1 - model.beta1)
        mart[r] = s / np.sqrt(COV_N * COV_T)
    return spec, model, z, mart


def test_acceptance_03_standardized_coverage(coverage_run):
    _spec, _model, z, _mart = coverage_run
    crit = 1.959963984540054
    coverage = np.mean(np.abs(z) <= crit, axis=0)
    ok = bool(np.all((coverage >= 0.93) & (coverage <= 0.97)))
    report(3, "95% standardized coverage per coordinate in [0.93, 0.97]", ok,
           "coverage " + np.array2string(coverage, precision=4))


def test_acceptance_04_martingale_covariance(coverage_run):
    spec, model, _z, mart = coverage_run
    empirical = mart.T @ mart / mart.shape[0]
    oracle = bs.limit_arm_second_moment(spec, model, 0.1, 1, 2_000_000, bs.make_rng(4040))
    rel = np.linalg.norm(empirical - oracle, 2) / np.linalg.norm(oracle, 2)
    report(4, "root-information statistic covariance within 15% of its limit", rel <= 0.15,
           f"relative spectral error {rel:.4f}")


# ---------------------------------------------------------------------------
# 5. Calibrated bound validity on held-out seeds
# ---------------------------------------------------------------------------


def test_acceptance_05_bound_validity():
    spec = bs.uniform_cube_spec(2)
    model = bs.TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0)
    policy = bs.EpsGreedy(bs.Schedule(0.2))
    clip = bs.constant_clip(0.1)
    n, t_ref, delta = 100, 10, 0.1

    tail = bs.calibrate_tail_constant(spec, model, policy, clip, n, t_ref, delta, 200, seed=555)
    consts = bs.BoundConstants(
        context_bound=spec.euclidean_bound(),
        margin_exponent=1.0,
        margin_const=2.5,  # analytic envelope of the margin law for this model
        dim=spec.dim,
        delta=delta,
        tail_const=tail,
        unit_cost=0.01,
        batch_size=n,
        clip_floor=0.1,
    )
    bound = bs.regret_bound_time(t_ref, consts)

    config = bs.ExperimentConfig(
        context=spec,
        model=model,
        policy=policy,
        clip=clip,
        batch_size=n,
        stopping=bs.StoppingRule(kind="online_threshold", t_max=t_ref, k=1e-12),
        sigma_mode=bs.KnownSigma(1.0),
        replications=500,
        master_seed=777_000,  # disjoint from the calibration pilots
        regret_mc_samples=100_000,
    )
    records, _ = bs.run_replications(config)
    violations = 0
    for rec in records:
        assert rec.stop_time == t_ref
        if rec.regret_hat > bound:
            violations += 1
    rate = violations / 500
    limit = delta + 2 * math.sqrt(delta * (1 - delta) / 500)
    report(5, f"calibrated bound violation rate <= {limit:.4f}", rate <= limit,
           f"rate {rate:.4f}, bound {bound:.4f}")


# ---------------------------------------------------------------------------
# 6. Chebyshev radius coverage
# ---------------------------------------------------------------------------


def test_acceptance_06_chebyshev_coverage():
    radius = bs.chebyshev_radius(2, 1.0, 0.05)
    draws = bs.make_rng(606).standard_normal((10_000, 2))
    coverage = float(np.mean(np.linalg.norm(draws, axis=1) <= radius))
    report(6, "Chebyshev radius covers the mean in >= 95% of draws", coverage >= 0.95,
           f"radius {radius:.4f}, coverage {coverage:.4f}")


# ---------------------------------------------------------------------------
# 7. Closed-form stop times vs exact scans
# ---------------------------------------------------------------------------


def test_acceptance_07_closed_form_stop_times():
    rng = bs.make_rng(707)
    ok = True
    details = []
    for _ in range(50):
        K = rng.uniform(1.0, 50.0)
        n = int(rng.integers(5, 200))
        p = rng.uniform(0.1, 0.5)
        target = rng.uniform(3.0, 80.0)
        rate = 4.0 * K / (n * p * p)  # margin exponent 1, unit context bound
        c_unit = rate / (n * target**2)
        consts = bs.BoundConstants(
            context_bound=1.0,
            margin_exponent=1.0,
            margin_const=1.0,
            dim=2,
            delta=0.1,
            tail_const=K,
            unit_cost=c_unit,
            batch_size=n,
            clip_floor=p,
        )
        spec = bs.StoppingRule("predetermined_opportunity", t_max=10_000, consts=consts)
        t_scan = bs.scan_stop_time(spec).t
        # independent oracle: first t with t(t+1) >= rate/(c n)
        ratio = consts.rate_const / (c_unit * n)
        t_oracle = 1
        while t_oracle * (t_oracle + 1) < ratio:
            t_oracle += 1
        t_star = bs.closed_form_stop_time(spec).t_star
        if t_scan != t_oracle or abs(t_scan - t_star) > 1.0:
            ok = False
            details.append((t_scan, t_oracle, t_star))

    # reference example: rate constant 100, batch cost 1 -> exactly t = 10
    consts = bs.BoundConstants(
        context_bound=1.0,
        margin_exponent=1.0,
        margin_const=1.0,
        dim=2,
        delta=0.1,
        tail_const=625.0,
        unit_cost=0.01,
        batch_size=100,
        clip_floor=0.5,
    )
    spec = bs.StoppingRule("predetermined_opportunity", t_max=1000, consts=consts)
    ok &= bs.scan_stop_time(spec).t == 10
    ok &= bs.closed_form_stop_time(spec).t_star == pytest.approx(10.0)
    report(7, "scan stop times within +-1 of closed form; reference case t=10", ok,
           f"mismatches {details}" if details else "50 draws + reference")


# ---------------------------------------------------------------------------
# 8. Cost-adjusted objective at the stop time vs its approximation
# ---------------------------------------------------------------------------


def test_acceptance_08_creg_consistency():
    spec = bs.uniform_cube_spec(1)
    model = bs.TrueModel(beta0=[0.1], beta1=[0.4], sigma0=1.0, sigma1=1.0)
    n, p = 20, 0.5
    tail = 112.5  # regret_const 450, rate constant 90
    worst = 0.0
    for kind, extra in (("predetermined_opportunity", {}), ("predetermined_threshold", {"k": 3.0})):
        config = bs.ExperimentConfig(
            context=spec,
            model=model,
            policy=bs.UniformRandom(),
            clip=bs.constant_clip(p),
            batch_size=n,
            stopping=bs.StoppingRule(kind=kind, t_max=10_000, **extra),
            sigma_mode=bs.KnownSigma(1.0),
            replications=50,
            master_seed=808 if kind.endswith("opportunity") else 809,
            bounds=bs.BoundsConfig(
                margin_exponent=1.0,
                margin_const=1.0,
                delta=0.1,
                unit_cost=0.005,
                tail_const=tail,
                context_bound=1.0,
            ),
            regret_mc_samples=1000,
        )
        prepared = bs.prepare(config)
        predicted = bs.closed_form_stop_time(prepared.setup.rule).creg_star
        for rec in bs.run_replications(config)[0]:
            simulated = bs.cumulative_cost_adjusted_regret(
                prepared.consts, rec.stop_time, extra.get("k")
            )
            rel = abs(simulated - predicted) / predicted
            worst = max(worst, rel)
    report(8, "cumulative cost-adjusted objective within 25% of prediction", worst <= 0.25,
           f"worst rel err {worst:.4f} over 100 replications")


# ---------------------------------------------------------------------------
# 9. Conditional samplers agree in the independence case
# ---------------------------------------------------------------------------


def test_acceptance_09_sampler_agreement():
    spec = bs.ContextSpec(
        dim=1, dist=bs.UniformBox(lower=[0.9], upper=[1.1]), sup_bound=1.1
    )
    config = bs.ExperimentConfig(
        context=spec,
        model=bs.TrueModel(beta0=[0.3], beta1=[0.5], sigma0=1.0, sigma1=1.0),
        policy=bs.UniformRandom(),
        clip=bs.constant_clip(0.1),
        batch_size=80,
        stopping=bs.StoppingRule(kind="online_threshold", t_max=40, k=0.3),
        sigma_mode=bs.KnownSigma(1.0),
        replications=1,
        master_seed=909,
        regret_mc_samples=1000,
    )
    record = bs.run_experiment(config, 0)

    n_samp = 10_000
    shortcut = bs.sample_conditional(
        record,
        None,
        bs.ConditionalSamplerConfig(mode="independence_shortcut", n_samples=n_samp),
        seed=1,
    )
    rejection = bs.sample_conditional(
        record,
        None,
        bs.ConditionalSamplerConfig(
            mode="resimulation_rejection", n_samples=n_samp, max_attempts=100_000
        ),
        seed=2,
    )
    ok = True
    details = []
    for arm, s_draws, r_draws in (
        (0, shortcut.arm0[:, 0], rejection.arm0[:, 0]),
        (1, shortcut.arm1[:, 0], rejection.arm1[:, 0]),
    ):
        ns, nr = s_draws.size, r_draws.size
        vs, vr = s_draws.var(ddof=1), r_draws.var(ddof=1)
        mean_gap = abs(s_draws.mean() - r_draws.mean())
        mean_tol = 3 * math.sqrt(vs / ns + vr / nr)
        var_gap = abs(vs - vr)
        var_tol = 3 * math.sqrt(2 * vs**2 / (ns - 1) + 2 * vr**2 / (nr - 1))
        ok &= mean_gap <= mean_tol and var_gap <= var_tol
        details.append(
            f"arm{arm}: mean gap {mean_gap:.2e}/{mean_tol:.2e}, var gap {var_gap:.2e}/{var_tol:.2e}"
        )
    report(9, "shortcut and rejection samplers agree within 3 combined SE", ok,
           "; ".join(details) + f"; acc rate {rejection.acceptance_rate:.3f}")


# ---------------------------------------------------------------------------
# 10. Type-I error of the post-stopping test at the null
# ---------------------------------------------------------------------------


def test_acceptance_10_type_i_error():
    model = bs.TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0)
    config = bs.ExperimentConfig(
        context=bs.uniform_cube_spec(2),
        model=model,
        policy=bs.UniformRandom(),
        clip=bs.constant_clip(0.1),
        batch_size=200,
        stopping=bs.StoppingRule(kind="online_threshold", t_max=60, k=0.8),
        sigma_mode=bs.KnownSigma(1.0),
        replications=1000,
        master_seed=1010,
        inference=bs.ConditionalSamplerConfig(
            mode="independence_shortcut", n_samples=2000, level=0.95
        ),
        hypothesis=(np.array([0.2, -0.1]), np.array([0.5, 0.3])),
        regret_mc_samples=1000,
    )
    records, _ = bs.run_replications(config)
    rejections = 0
    for rec in records:
        if rec.inference.reject:
            rejections += 1
    rate = rejections / 1000
    report(10, "Type-I error at the null <= 0.07 (level 0.95, Bonferroni)", rate <= 0.07,
           f"rate {rate:.4f}")


# ---------------------------------------------------------------------------
# 11. End-to-end determinism and order independence
# ---------------------------------------------------------------------------


def test_acceptance_11_determinism(tmp_path):
    config = bs.ExperimentConfig(
        context=bs.uniform_cube_spec(2),
        model=bs.TrueModel(beta0=[0.2, -0.1], beta1=[0.5, 0.3], sigma0=1.0, sigma1=1.0),
        policy=bs.EpsGreedy(bs.Schedule(0.2)),
        clip=bs.constant_clip(0.1),
        batch_size=40,
        stopping=bs.StoppingRule(kind="online_threshold", t_max=10, k=0.7),
        sigma_mode=bs.KnownSigma(1.0),
        replications=6,
        master_seed=1111,
        inference=bs.ConditionalSamplerConfig(n_samples=400),
        regret_mc_samples=2000,
    )
    recs_a, agg_a = bs.run_replications(config)
    recs_b, agg_b = bs.run_replications(config)
    recs_c, agg_c = bs.run_replications(
        config, execution_order=[4, 1, 5, 0, 3, 2]
    )
    for sub, recs, agg in (("a", recs_a, agg_a), ("b", recs_b, agg_b), ("c", recs_c, agg_c)):
        bs.emit_reports(
            recs, str(tmp_path / sub), ["csv", "json"], config, aggregates=agg,
            timestamp="1970-01-01T00:00:00",
        )
    csv_a = (tmp_path / "a" / "replications.csv").read_bytes()
    ok = csv_a == (tmp_path / "b" / "replications.csv").read_bytes()
    ok &= csv_a == (tmp_path / "c" / "replications.csv").read_bytes()
    sum_a = (tmp_path / "a" / "summary.json").read_bytes()
    ok &= sum_a == (tmp_path / "b" / "summary.json").read_bytes()
    ok &= sum_a == (tmp_path / "c" / "summary.json").read_bytes()
    report(11, "byte-identical reports across reruns and permuted runs", bool(ok))
