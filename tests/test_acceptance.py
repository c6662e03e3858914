"""Acceptance suite: one test per criterion, in order, each printing a
PASS line with the measured numbers once its assertions hold.

The 10^7-sample quadrature check (criterion 3, about 5 s on two CPUs) is
the slow one; everything else runs in about a second or less.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mimocap.capacity import best_reuse, capacity_for_reuse, effective_interference, tier1_moments
from mimocap.cli import _validation_checks
from mimocap.config import ScenarioConfig
from mimocap.geometry import NetworkGeometry, circle_approximation, tier_specs
from mimocap.interference import (
    GaussianInterference,
    QosTarget,
    compute_tier_moments,
    interference_ratio,
    q_inverse,
    sir_outage_gaussian,
    total_interference,
)
from mimocap.pilots import PilotScheme
from mimocap.simulate import (
    FiniteMConfig,
    empirical_capacity_search,
    sample_sir_finite_m,
    sample_sir_limit,
    sample_sir_limit_shadowed,
)

GEO = NetworkGeometry()
K = 42
SEED = 20260808
GAMMA = GEO.path_loss_exponent


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}", flush=True)


@pytest.fixture(scope="module")
def moments_by_reuse():
    out = {}
    for scheme in PilotScheme:
        for w in (1, 3, 7):
            out[(scheme, w)] = tier1_moments(GEO, scheme, K, w)
    return out


def test_01_tier_ratio(capsys):
    # tier-1 over tier-2 interference moments at reuse 1, gamma 4
    specs = tier_specs(GEO, 2)
    tms = [
        compute_tier_moments(circle_approximation(GEO, spec), GAMMA, K, PilotScheme.REUSED_SETS)
        for spec in specs
    ]
    mu_ratio = tms[0].mu_x / tms[1].mu_x
    var_ratio = tms[0].var_x / tms[1].var_x
    assert 250.0 <= mu_ratio <= 1000.0
    assert 5e5 <= var_ratio <= 2e6
    announce(capsys, f"ACCEPTANCE 1 PASS tier ratios: mean {mu_ratio:.0f}, variance {var_ratio:.3g}")


def test_02_closed_form_equivalence(capsys):
    # closed-form effective interference vs numeric root of the Gaussian
    # feasibility equality, on a 100-point grid
    worst = 0.0
    points = 0
    for mu in (1e-6, 1e-4, 1e-2, 0.2):
        for ratio in (0.01, 0.5, 5.0, 100.0, 5000.0):
            for sir_db, alpha in ((0.0, 0.05), (10.0, 0.01), (25.0, 0.05), (30.0, 0.005), (5.0, 0.2)):
                qos = QosTarget.from_db(sir_db, alpha)
                gi = GaussianInterference(mu, ratio * mu * mu)
                y_e = effective_interference(gi, qos)
                q = q_inverse(alpha)
                sig = math.sqrt(gi.variance)
                budget = 1.0 / qos.min_sir_linear

                def equality(u):
                    return budget - mu * u * u - q * sig * u

                u = brentq(
                    equality, 0.0, math.sqrt(budget / mu), xtol=1e-300, rtol=1e-14, maxiter=200
                )
                ref = 1.0 / (u * u * qos.min_sir_linear)
                worst = max(worst, abs(y_e - ref) / ref)
                points += 1
    assert points == 100
    assert worst <= 1e-9
    announce(capsys, f"ACCEPTANCE 2 PASS closed form vs root on {points} points: max rel err {worst:.2e}")


def _streamed_moments(patch, n_total, seed):
    """Sample moments of the interference ratio over the disc, streamed."""
    rng = np.random.default_rng(seed)
    sums = np.zeros(4)
    chunk = 2_000_000
    left = n_total
    while left > 0:
        m = min(chunk, left)
        r = patch.circle_radius_m * np.sqrt(rng.random(m))
        th = rng.uniform(0.0, 2.0 * math.pi, m)
        x = interference_ratio(r, th, patch.separation_m, GAMMA)
        for p in range(4):
            sums[p] += np.sum(x ** (p + 1))
        left -= m
    m1 = sums[0] / n_total
    m2 = sums[1] / n_total
    m3 = sums[2] / n_total
    m4 = sums[3] / n_total
    var = m2 - m1 * m1
    cm4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4
    se_mu = math.sqrt(var / n_total)
    se_var = math.sqrt(max(cm4 - var * var, 0.0) / n_total)
    return m1, var, se_mu, se_var


def test_03_quadrature_vs_ten_million_samples(capsys):
    n = 10_000_000
    details = []
    for w in (1, 3, 7):
        geo = GEO.with_reuse(w)
        for spec in tier_specs(geo, 2):
            patch = circle_approximation(geo, spec)
            tm = compute_tier_moments(patch, GAMMA, K, PilotScheme.REUSED_SETS)
            mu_hat, var_hat, se_mu, se_var = _streamed_moments(patch, n, SEED + w * 10 + spec.tier_index)
            assert abs(tm.mu_x - mu_hat) <= 3.0 * se_mu, (w, spec.tier_index, "mean")
            assert abs(tm.var_x - var_hat) <= 3.0 * se_var, (w, spec.tier_index, "variance")
            details.append(
                f"w{w}t{spec.tier_index}:{abs(tm.mu_x - mu_hat) / se_mu:.1f}/"
                f"{abs(tm.var_x - var_hat) / se_var:.1f}se"
            )
    announce(capsys, "ACCEPTANCE 3 PASS quadrature vs 1e7-sample MC (|dev| in se): " + " ".join(details))


def test_04_switching_points(capsys, moments_by_reuse):
    alpha = 0.05
    grid = np.round(np.arange(-5.0, 45.0 + 1e-9, 0.1), 10)
    best = {}
    for scheme in PilotScheme:
        chosen = []
        kmax = []
        for sdb in grid:
            qos = QosTarget.from_db(float(sdb), alpha)
            rep = best_reuse(
                capacity_for_reuse(scheme, qos, K, w, moments_by_reuse[(scheme, w)])
                for w in (1, 3, 7)
            )
            chosen.append(rep.chosen_reuse)
            kmax.append(rep.k_max)
        best[scheme] = (np.array(chosen), np.array(kmax))

    def switch_at(chosen, w_from, w_to):
        for i in range(1, len(chosen)):
            if chosen[i - 1] == w_from and chosen[i] == w_to:
                return float(grid[i])
        raise AssertionError(f"no {w_from}->{w_to} switch found")

    re_ch, re_k = best[PilotScheme.REUSED_SETS]
    df_ch, df_k = best[PilotScheme.DIFFERENT_SETS]

    s13_re = switch_at(re_ch, 1, 3)
    s37_re = switch_at(re_ch, 3, 7)
    assert 0.0 <= s13_re <= 2.0
    assert 28.0 <= s37_re <= 32.0

    last42 = float(grid[np.max(np.nonzero(df_k >= 42))])
    s13_df = switch_at(df_ch, 1, 3)
    s37_df = switch_at(df_ch, 3, 7)
    assert 4.0 <= last42 <= 6.0
    assert 8.0 <= s13_df <= 10.0
    assert 33.0 <= s37_df <= 37.0

    assert np.all(df_k >= re_k), "different-sets capacity must dominate at every grid point"
    announce(
        capsys,
        "ACCEPTANCE 4 PASS switching points (dB): reused 1->3 @ "
        f"{s13_re:.1f}, 3->7 @ {s37_re:.1f}; different 42-until {last42:.1f}, "
        f"1->3 @ {s13_df:.1f}, 3->7 @ {s37_df:.1f}; dominance holds",
    )


def test_05_worst_case_gaussian_cdf(capsys, moments_by_reuse):
    # reuse 7, full budget of 6 users per cell, 1e5 limiting-SIR trials:
    # in the CDF<=0.1 tail the reused-sets approximation must be optimistic
    # and the different-sets approximation must deviate less
    geo = GEO.with_reuse(7)
    k = K // 7
    qs = np.arange(0.005, 0.1001, 0.005)
    max_gap = {}
    for scheme in PilotScheme:
        samples = sample_sir_limit(
            geo, scheme, k, trials=100_000, seed=SEED, pilot_dim=k, max_tier=1
        )
        count, tm = moments_by_reuse[(scheme, 7)][0]
        n_terms = count * (k if scheme is PilotScheme.DIFFERENT_SETS else 1)
        gi = total_interference([(n_terms, tm)])
        svals = np.quantile(samples.sorted_samples, qs)
        gaps = qs - sir_outage_gaussian(svals, gi)  # >0: approximation optimistic
        if scheme is PilotScheme.REUSED_SETS:
            assert np.all(gaps > 0.0), "reused-sets approximation must be optimistic in the tail"
        max_gap[scheme] = float(np.max(np.abs(gaps)))
    assert max_gap[PilotScheme.DIFFERENT_SETS] < max_gap[PilotScheme.REUSED_SETS]
    announce(
        capsys,
        "ACCEPTANCE 5 PASS worst-case CDF tail gaps: reused "
        f"{max_gap[PilotScheme.REUSED_SETS]:.4f} > different {max_gap[PilotScheme.DIFFERENT_SETS]:.4f}",
    )


def test_06_finite_m_table_pattern(capsys):
    presets = (("low", 0.0, 0.01), ("medium", 10.0, 0.05), ("high", 25.0, 0.05), ("very_high", 30.0, 0.005))
    reference = {"reused": (14, 14, 6, 6), "different": (42, 14, 14, 6)}
    cfg = FiniteMConfig()  # M=500, 42 pilots, 10 dB cell-edge SNRs
    table = {}
    for scheme in PilotScheme:
        row = []
        for _label, sdb, alpha in presets:
            res = empirical_capacity_search(
                GEO,
                scheme,
                QosTarget.from_db(sdb, alpha),
                trials=10_000,
                seed=SEED,
                finite_m=cfg,
                max_tier=1,
            )
            row.append(res.best_k)
        table[scheme.value] = tuple(row)
    reused, different = table["reused"], table["different"]
    # hard target: column-wise dominance of the different-sets scheme
    for col in range(4):
        assert different[col] >= reused[col], (col, table)
    # the low/medium columns are robust under the shipped defaults
    assert different[0] == 42
    assert reused[1] == 14 and different[1] == 14
    soft = sum(
        int(table[s][c] == reference[s][c]) for s in ("reused", "different") for c in range(4)
    )
    announce(
        capsys,
        f"ACCEPTANCE 6 PASS finite-M table: reused {reused}, different {different}; "
        f"ordering holds; {soft}/8 cells equal the reference {reference['reused']}/{reference['different']} "
        "(soft target; the reference omits SNR and the M=500 intra-cell cross terms cap the high-SIR cells)",
    )


def test_07_finite_m_convergence_to_limit(capsys):
    # noise-free M = 1e7 on the tier-1 cells, paired with the limiting
    # sampler through the shared position/pilot streams.  At M = 1e5 the
    # finite-M mean sits about 17% below the limit mean (the non-coherent
    # term caps the limit's heavy right tail), which exceeds the bound; at
    # 1e7 that bias is about 0.3%.
    trials = 400
    lim = sample_sir_limit(
        GEO, PilotScheme.DIFFERENT_SETS, 2, trials=trials, seed=SEED, pilot_dim=42, max_tier=1
    )
    cfg = FiniteMConfig(antennas=10_000_000, pilot_length=42, ul_snr_db=None, pilot_snr_db=None)
    fin = sample_sir_finite_m(
        GEO, PilotScheme.DIFFERENT_SETS, 2, cfg, trials=trials, seed=SEED, max_tier=1
    )
    rel = abs(fin.samples.mean() / lim.samples.mean() - 1.0)
    assert rel <= 0.15
    announce(
        capsys,
        f"ACCEPTANCE 7 PASS finite-M convergence: mean SIR {fin.samples.mean():.4g} vs "
        f"limit {lim.samples.mean():.4g} (rel dev {rel:.1%} <= 15%)",
    )


def test_08_property_suites(capsys):
    # pilot completeness to 1e-10 on K = 42 pilots and the pilot-weighting
    # identities to 1e-13, as the validate command checks them
    verdicts = {name: passed for name, passed, _ in _validation_checks(ScenarioConfig())}
    assert verdicts["pilot-completeness"]
    assert verdicts["pilot-weighting-identities"]

    # interference-ratio constraint on every shadowed trial
    worst = 0.0
    for scheme, dim in ((PilotScheme.REUSED_SETS, None), (PilotScheme.DIFFERENT_SETS, K)):
        _s, diag = sample_sir_limit_shadowed(
            GEO, scheme, 4, 8.0, trials=2500, seed=SEED, pilot_dim=dim, diagnostics=True
        )
        worst = max(worst, diag.max_interference_ratio)
        assert diag.max_interference_ratio <= 1.0
    # and under shadowing the outer tiers stop being negligible
    _s, diag = sample_sir_limit_shadowed(
        GEO, PilotScheme.DIFFERENT_SETS, 4, 8.0, trials=2500, seed=SEED, pilot_dim=K, diagnostics=True
    )
    assert diag.tier_shares[2] > 0.01

    # determinism under varying worker counts, all three samplers; the
    # different-sets shadowed build outgrows the run budget in one block, so
    # at workers None and 0 it runs on threads
    for build in (
        lambda w: sample_sir_limit(GEO, PilotScheme.DIFFERENT_SETS, 3, 200, SEED, pilot_dim=K, workers=w),
        lambda w: sample_sir_limit_shadowed(GEO, PilotScheme.REUSED_SETS, 2, 8.0, 200, SEED, workers=w),
        lambda w: sample_sir_limit_shadowed(
            GEO, PilotScheme.DIFFERENT_SETS, 4, 8.0, 200, SEED, pilot_dim=K, workers=w
        ),
        lambda w: sample_sir_finite_m(
            GEO, PilotScheme.REUSED_SETS, 2, FiniteMConfig(antennas=16), 200, SEED, workers=w
        ),
    ):
        a, b, c = build(None), build(2), build(0)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.samples, c.samples)

    announce(
        capsys,
        f"ACCEPTANCE 8 PASS properties: completeness, weighting identities, "
        f"shadowed ratio max {worst:.6f} <= 1, tier-2 share {diag.tier_shares[2]:.1%}, "
        "worker-count determinism",
    )
