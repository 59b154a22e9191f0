"""End-to-end acceptance criteria for the estimator and its diagnostics.

Every test uses master seed 0 and fixed scales, so outcomes are exactly
reproducible.  Two clauses are marked strict-xfail: they pin a finite
resolution to an asymptotic constant whose exact finite-resolution value
(computable in closed form for these models) falls outside the stated
band, so no draw can satisfy them; the assertions still state the
original bands verbatim.
"""

import csv
import io
import math

import numpy as np
import pytest

import mlmc_euler as me
from mlmc_euler import cli

THREADS = 4
E_HALF = math.e / 2.0

# 99th percentile of the fitted one-sample KS null at 500 replications,
# from scripts/pilot_ks_thresholds.py (seed 20260822)
KS_ONE_SAMPLE_1PCT_500 = 0.0464


def scaled_two_level_variance(samples, level, seed=0):
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    out = me.two_level_error_samples(
        model, me.identity_payoff(), level, 2, samples, seed, threads=THREADS
    )
    return float(out.var(ddof=1))


def test_criterion_1_allocation_tables():
    bak = me.plan_bak(16, 2, 1.0)
    assert bak.sample_sizes[1:] == (512, 256, 128, 64)
    giles = me.plan_giles(16, 2, 1.0, c2=1.0)
    assert giles.sample_sizes == (2560, 1280, 640, 320, 160)


def test_criterion_2_optimal_refinement_factor():
    table, best = me.optimal_m_scan(m_values=tuple(range(2, 13)))
    assert best == 7
    values = dict(table)
    assert all(values[7] <= values[m] for m in range(2, 13))


def test_criterion_3_bracket_identity():
    for n, m in ((4, 2), (3, 3), (8, 4)):
        est, target = me.bracket_expectation_check(n, m, 1.0, 1.0)
        assert est == target == (m - 1) / (2.0 * m * n)
    est, target = me.bracket_expectation_check(
        256, 2, 1.0, 1.0, samples=100_000, master_seed=0, mode="brownian"
    )
    # n times the bracket integral: 256 * 1/1024 = 1/4
    assert 256.0 * est == pytest.approx(0.25, rel=0.02)


def test_criterion_4_limit_variance_closed_form():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    cfg = me.LimitSimConfig(
        samples=100_000, master_seed=0, n_steps=1024, threads=THREADS
    )
    sigma2, reported_se = me.estimate_limit_variance(model, me.identity_payoff(), cfg)
    # The sampling sd of the variance estimator is known exactly here:
    # y = X_T B_T / sqrt 2 has E y^4 = 3 e^6 / 4 and Var y = e / 2, so
    # sd(s^2) = sqrt((E y^4 - (R-3)/(R-1) Var^2 y) / R) ~ 0.05484.  The
    # run's own moment-based se estimate is biased low at this sample
    # size (estimating E y^4 well needs E y^8 ~ 6e12 worth of tail), so
    # the band uses the closed-form sd.
    r = cfg.samples
    exact_se = math.sqrt(
        (3.0 * math.e**6 / 4.0 - E_HALF**2 * (r - 3) / (r - 1)) / r
    )
    assert abs(sigma2 - E_HALF) < 3.0 * exact_se
    assert 0.0 < reported_se < exact_se
    # cross-check against the exact two-level variance at level 8, m=2
    two_level_exact = 1.344666768745924
    assert sigma2 == pytest.approx(two_level_exact, rel=0.10)


@pytest.mark.xfail(
    strict=True,
    reason="the exact scaled variances at levels 4..6 are 1.15430, 1.24997, "
    "1.30271, i.e. 15.1%, 8.0%, 4.2% below the e/2 asymptote, so the "
    "level-4 clause cannot hold at any sample size",
)
def test_criterion_5_level_variance_decay():
    for level in (4, 5, 6):
        sampled = scaled_two_level_variance(100_000, level)
        assert sampled == pytest.approx(E_HALF, rel=0.10)


def test_criterion_6_distributional_convergence():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    pay = me.identity_payoff()
    errors = me.two_level_error_samples(model, pay, 8, 2, 100_000, 0, threads=THREADS)
    x, u = me.limit_draws(model, 1024, 100_000, 0, threads=THREADS)
    proj = me.projected_samples(pay, x, u)
    # two-sample KS null at 10^5 vs 10^5 has 1% point 0.0072 (pilot in
    # scripts/pilot_ks_thresholds.py); 0.02 leaves room for the finite
    # level-8 gap
    assert me.ks_statistic_two_sample(errors, proj) < 0.02


def test_criterion_7_clt_replication_ks():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    plan = me.plan_bak(16, 2, 1.0)
    exp = me.run_clt_experiment(
        model, me.identity_payoff(), plan, 500, 1.0, 0, threads=THREADS
    )
    assert not exp.degenerate
    assert exp.ks_statistic < KS_ONE_SAMPLE_1PCT_500


@pytest.mark.xfail(
    strict=True,
    reason="the standardized error's exact variance under this schedule is "
    "0.9977 (level variances 0.5, 0.7656, 0.9950, 1.1543 are still far "
    "from their limit at n=16), 26.6% below e/2, outside the 15% band",
)
def test_criterion_7_clt_replication_variance():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    plan = me.plan_bak(16, 2, 1.0)
    exp = me.run_clt_experiment(
        model, me.identity_payoff(), plan, 500, 1.0, 0, threads=THREADS
    )
    assert exp.sample_variance == pytest.approx(E_HALF, rel=0.15)


def test_criterion_8_interval_coverage():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(64, 2, 1.0)
    truth = me.gbm_identity_reference(1.0, 0.05, 0.2, 1.0).exact_expectation
    rep = me.coverage_experiment(
        model, me.identity_payoff(), plan, 200, truth, 0.90, 0, threads=THREADS
    )
    assert 0.84 <= rep.coverage["clt"] <= 0.96
    assert rep.coverage["chebyshev"] >= 0.98
    ratio = rep.mean_radius["chebyshev"] / rep.mean_radius["clt"]
    assert round(ratio, 4) == round(3.1623 / 1.6449, 4)


def test_criterion_9_gaussian_approximation_decay():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    pay = me.identity_payoff()
    reps = 16
    n_values = [16, 32, 64, 128, 256]
    mean_log_bounds = []
    for n in n_values:
        plan = me.plan_bak(n, 2, 1.0)
        logs = []
        for rep in range(reps):
            report = me.estimate(
                model, pay, plan, 0, replication=rep, threads=THREADS, bias_pilot=0
            )
            logs.append(math.log(me.berry_esseen(report.level_stats, plan).bound))
        mean_log_bounds.append(float(np.mean(logs)))
    x = np.log(np.log(n_values))
    slope = float(np.polyfit(x, mean_log_bounds, 1)[0])
    assert slope == pytest.approx(-0.5, abs=0.2)


def test_criterion_10_complexity_slopes(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    truth = me.gbm_identity_reference(1.0, 0.05, 0.2, 1.0).exact_expectation
    code = cli.main(
        (
            "benchmark --n-list 16,32,64,128,256,512 --replications 40 "
            "--vol 0.2 --mu 0.05 --seed 0 --threads %d --truth %.17g --out %s"
            % (THREADS, truth, out_file)
        ).split()
    )
    capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    slopes = {}
    for method in ("mlmc", "crude-mc"):
        pts = [r for r in rows if r["method"] == method]
        rmse = np.log([float(r["achieved_rmse"]) for r in pts])
        cost = np.log([float(r["cost_units"]) for r in pts])
        slopes[method] = float(np.polyfit(rmse, cost, 1)[0])
    assert slopes["mlmc"] == pytest.approx(-2.0, abs=0.35)
    assert slopes["crude-mc"] == pytest.approx(-3.0, abs=0.35)


def test_criterion_11_byte_identical_across_workers(capsys):
    commands = [
        "estimate --vol 0.2 --mu 0.05 --n 64 --seed 0",
        "limit-var --vol 0.2 --mu 0.05 --samples 20000 --grid-steps 256 --seed 0",
    ]
    for command in commands:
        outputs = []
        for threads in (1, 2, 8):
            code = cli.main(command.split() + ["--threads", str(threads)])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] == outputs[2]
        # and a rerun of the same configuration is byte-identical too
        code = cli.main(command.split() + ["--threads", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == outputs[0]
