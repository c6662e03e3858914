import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, hyp2f1

from mimocap import interference as intf
from mimocap.geometry import CirclePatch, circle_approximation, tier_specs
from mimocap.interference import (
    GaussianInterference,
    QosTarget,
    TierMoments,
    compute_tier_moments,
    interference_ratio,
    q_function,
    q_inverse,
    qos_feasible,
    sir_outage_gaussian,
    total_interference,
)
from mimocap.pilots import PilotScheme
from pilot_oracles import beta_law_var_y, sample_contamination_profile

GAMMA = 4.0


def bisect_q_inverse(alpha, tol=1e-11):
    """Independent oracle: plain bisection on 0.5 * erfc(z / sqrt(2))."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_x(patch, n, rng, gamma=GAMMA):
    r = patch.circle_radius_m * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return interference_ratio(r, theta, patch.separation_m, gamma)


class TestIntegrand:
    def test_direct_arithmetic(self):
        assert interference_ratio(1.0, math.pi / 2.0, 2.0, 1.0) == pytest.approx(0.2)

    def test_zero_radius(self):
        assert interference_ratio(0.0, 1.2, 2771.0, GAMMA) == 0.0

    def test_theta_pi_collapses_denominator(self):
        b, d = 1455.0, 2771.0
        expect = (b * b / (b + d) ** 2) ** GAMMA
        assert interference_ratio(b, math.pi, d, GAMMA) == pytest.approx(expect, rel=1e-12)

    def test_singularity_region_rejected(self):
        with pytest.raises(ValueError):
            interference_ratio(2.0, 0.1, 2.0, 1.0)
        with pytest.raises(ValueError):
            interference_ratio(-1.0, 0.1, 2.0, 1.0)


class TestQInverse:
    def test_known_quantiles(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-9)
        assert q_inverse(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert q_inverse(0.005) == pytest.approx(2.5758293035489004, abs=1e-9)

    def test_against_bisection_oracle(self):
        for alpha in (0.2, 0.05, 0.005, 1e-4):
            assert q_inverse(alpha) == pytest.approx(bisect_q_inverse(alpha), abs=1e-9)

    def test_round_trip(self):
        for z in np.linspace(0.0, 6.0, 25):
            assert abs(q_inverse(float(q_function(z))) - z) <= 1e-8

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                q_inverse(bad)

    def test_equals_statistics_bit_for_bit(self):
        # oracle: CPython's AS241, which q_inverse evaluates in place
        from statistics import NormalDist

        rng = np.random.default_rng(20261020)
        tiny = 10.0 ** rng.uniform(-300.0, -0.3, 3000)  # log-uniform, both tails
        near_one = 1.0 - 10.0 ** rng.uniform(-16.0, -0.3, 1000)
        cut = math.exp(-25.0)  # r = sqrt(-log(alpha)) = 5, the tail-branch cut
        edges = [0.5, 0.075, 0.925, cut, 1.0 - cut, 1e-300, 5e-324]
        edges += [math.nextafter(e, d) for e in edges[1:5] for d in (0.0, 1.0)]
        alphas = [*rng.random(3000).tolist(), *tiny.tolist(), *near_one.tolist(), *edges]
        q = np.array(alphas) - 0.5
        r = np.sqrt(-np.log(np.minimum(alphas, 1.0 - np.array(alphas))))
        central = np.abs(q) <= 0.425
        assert central.sum() and (~central & (r <= 5.0)).sum() and (~central & (r > 5.0)).sum()
        assert (q > 0.0).sum() and min(alphas) <= 1e-300
        nd = NormalDist()
        bad = [a for a in alphas if q_inverse(a).hex() != (-nd.inv_cdf(a)).hex()]
        assert not bad
        assert q_inverse(0.5).hex() == "-0x0.0p+0"


class TestQFunction:
    def test_scalar_gives_float(self):
        # validate round-trips scalars through float(q_function(z))
        for z in (1.5, np.float64(1.5), np.array(1.5), 2):
            q = q_function(z)
            assert type(q) is float
            assert q == pytest.approx(0.5 * float(erfc(float(z) / math.sqrt(2.0))), rel=1e-14)

    def test_array_keeps_shape(self):
        for z in (np.linspace(-8.0, 8.0, 1000), np.ones((3, 4)), np.empty(0), [0.0, 1.0]):
            q = q_function(z)
            assert isinstance(q, np.ndarray) and q.shape == np.shape(z)
            np.testing.assert_allclose(q, 0.5 * erfc(np.asarray(z) / math.sqrt(2.0)), rtol=1e-13)

    def test_tails(self):
        assert q_function(0.0) == 0.5
        assert q_function(-np.inf) == 1.0 and q_function(np.inf) == 0.0
        assert math.isnan(q_function(np.nan))


@pytest.fixture(scope="module")
def tier1_patch(request):
    from mimocap import NetworkGeometry

    geo = NetworkGeometry()
    return circle_approximation(geo, tier_specs(geo, 1)[0])


class TestMoments:
    def test_k1_substitution(self, tier1_patch):
        # Eq. substitution at K=1: mu_y = mu_x but var_y = 2 var_x + mu_x^2,
        # which exceeds var_x -- the 1/K^2 variance convention is an
        # approximation there (the exact Beta variance is zero at K=1)
        tm = compute_tier_moments(tier1_patch, GAMMA, 1, PilotScheme.DIFFERENT_SETS)
        assert tm.mu_y == pytest.approx(tm.mu_x)
        assert tm.var_y == pytest.approx(2.0 * tm.var_x + tm.mu_x**2)
        assert tm.var_y > tm.var_x
        # with the exact Beta law, Var[phi] = 0 at K=1 so phi x == x
        assert beta_law_var_y(tm.mu_x, tm.var_x, 1) == pytest.approx(tm.var_x, rel=1e-12)

    def test_pilot_weighting_identities(self, tier1_patch):
        k = 42
        tm = compute_tier_moments(tier1_patch, GAMMA, k, PilotScheme.DIFFERENT_SETS)
        assert tm.mu_y * k == pytest.approx(tm.mu_x, rel=1e-14)
        assert tm.var_y * k * k == pytest.approx(2.0 * tm.var_x + tm.mu_x**2, rel=1e-14)

    def test_reused_passthrough(self, tier1_patch):
        tm = compute_tier_moments(tier1_patch, GAMMA, 42, PilotScheme.REUSED_SETS)
        assert tm.mu_y == tm.mu_x
        assert tm.var_y == tm.var_x

    def test_quadrature_vs_sampling(self, tier1_patch, rng):
        n = 1_000_000
        x = sample_x(tier1_patch, n, rng)
        tm = compute_tier_moments(tier1_patch, GAMMA, 42, PilotScheme.DIFFERENT_SETS)
        se_mu = x.std(ddof=1) / math.sqrt(n)
        assert abs(tm.mu_x - x.mean()) <= 4.0 * se_mu
        dev = (x - x.mean()) ** 2
        se_var = dev.std(ddof=1) / math.sqrt(n)
        assert abs(tm.var_x - x.var(ddof=1)) <= 4.0 * se_var

    def test_mu_x_below_one_in_shipped_scenarios(self):
        from mimocap import NetworkGeometry

        geo = NetworkGeometry()
        for w in (1, 3, 7):
            g = geo.with_reuse(w)
            patch = circle_approximation(g, tier_specs(g, 1)[0])
            tm = compute_tier_moments(patch, GAMMA, 42, PilotScheme.REUSED_SETS)
            assert 0.0 < tm.mu_x < 1.0

    def test_monotone_in_separation(self, tier1_patch):
        mus, variances = [], []
        for scale in (1.0, 1.4, 1.9):
            p = CirclePatch(tier1_patch.circle_radius_m, tier1_patch.separation_m * scale)
            tm = compute_tier_moments(p, GAMMA, 42, PilotScheme.REUSED_SETS)
            mus.append(tm.mu_x)
            variances.append(tm.var_x)
        assert mus[0] > mus[1] > mus[2]
        assert variances[0] > variances[1] > variances[2]

    def test_phi_x_product_variance(self, tier1_patch, rng):
        # empirical Var[phi x] within 5% of (2 var_x + mu_x^2)/K^2 at K=42
        k = 42
        n = 4_000_000
        phi = sample_contamination_profile(k, 1, rng, trials=n)[:, 0]
        x = sample_x(tier1_patch, n, rng)
        tm = compute_tier_moments(tier1_patch, GAMMA, k, PilotScheme.DIFFERENT_SETS)
        assert np.var(phi * x, ddof=1) == pytest.approx(tm.var_y, rel=0.05)

    def test_default_variance_exceeds_beta_law(self, tier1_patch):
        # the 1/K^2 convention overstates the exact Beta-law Var[phi x]
        k = 42
        tm = compute_tier_moments(tier1_patch, GAMMA, k, PilotScheme.DIFFERENT_SETS)
        assert beta_law_var_y(tm.mu_x, tm.var_x, k) < tm.var_y


def oracle_disc_moments(rho, gamma):
    """Independent oracle: (mu_x, var_x) from scipy's quad over scipy's
    2F1, E[x^g'] = (2 / rho^2) int_0^rho t^(2 g' + 1) 2F1(g', g'; 1; t^2) dt
    at g' = gamma and 2 gamma."""

    def raw_moment(g):
        val, _ = quad(lambda t: t ** (2.0 * g + 1.0) * hyp2f1(g, g, 1.0, t * t), 0.0, rho,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        return 2.0 * val / (rho * rho)

    mu = raw_moment(gamma)
    return mu, raw_moment(2.0 * gamma) - mu * mu


class TestDiscSeries:
    GAMMAS = [2.0001, 2.5, 3.0, 3.7, 4.0, 6.0, 10.0]

    @pytest.mark.parametrize(
        "rho, gamma", [(0.05, 2.0001), (0.3, 3.7), (1.0 / math.sqrt(3.0), 4.0),
                       (1.0 / math.sqrt(3.0), 20.0), (0.6, 10.0)]
    )
    def test_angular_mean_is_hyp2f1(self, rho, gamma):
        # Gradshteyn & Ryzhik 3.665, which the series rests on, checked by
        # integrating the law-of-cosines integrand over the angle
        val, _ = quad(lambda th: (1.0 - 2.0 * rho * math.cos(th) + rho * rho) ** -gamma,
                      0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        assert val / math.pi == pytest.approx(hyp2f1(gamma, gamma, 1.0, rho * rho), rel=1e-13)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_quad_oracle(self, gamma):
        from mimocap import NetworkGeometry

        for w in (1, 3, 7):
            geo = NetworkGeometry(path_loss_exponent=gamma).with_reuse(w)
            for mode in ("equal_area", "match_radius"):
                for spec in tier_specs(geo, 4):
                    patch = circle_approximation(geo, spec, mode)
                    got = intf._disc_moments.__wrapped__(
                        patch.circle_radius_m, patch.separation_m, gamma
                    )
                    want = oracle_disc_moments(patch.circle_radius_m / patch.separation_m, gamma)
                    assert got == pytest.approx(want, rel=1e-13), (w, mode, spec.tier_index)

    def test_worst_shipped_disc_converges_well_under_the_cap(self, monkeypatch):
        # gamma = 10 at b / D = 1/sqrt(3) (match_radius, reuse 1, tier 1): the
        # E[x^2] sum at 2 gamma = 20 is the longest series any config sums
        from mimocap import NetworkGeometry

        geo = NetworkGeometry(path_loss_exponent=10.0)
        patch = circle_approximation(geo, tier_specs(geo, 1)[0], "match_radius")
        assert patch.circle_radius_m / patch.separation_m == pytest.approx(1.0 / math.sqrt(3.0))
        args = (patch.circle_radius_m, patch.separation_m, 10.0)
        mu, var = intf._disc_moments.__wrapped__(*args)
        assert math.isfinite(mu) and math.isfinite(var) and mu > 0.0 and var > 0.0
        monkeypatch.setattr(intf, "_SERIES_TERMS", 100)
        assert intf._disc_moments.__wrapped__(*args) == (mu, var)

    @pytest.mark.parametrize("mode", ["equal_area", "match_radius"])
    @pytest.mark.parametrize("w", [1, 3, 7])
    def test_fifty_tiers_give_positive_moments(self, w, mode):
        from mimocap import NetworkGeometry
        from mimocap.capacity import tier1_moments

        # model.tier_count's largest value
        moments = tier1_moments(NetworkGeometry(), PilotScheme.REUSED_SETS, 42, w, mode, 50)
        assert len(moments) == 50
        for _count, tm in moments:
            assert math.isfinite(tm.mu_x) and math.isfinite(tm.var_x)
            assert tm.mu_x > 0.0 and tm.var_x > 0.0

    # rho from 1e-6 (every disc the geometry builds has rho > 0.016; far
    # below 1e-6 x^2's mean leaves the normal doubles) to 0.6.  mu_x falls
    # with gamma only while rho stays below about 0.52: beyond, the disc
    # reaches where r_l > r_j and x > 1, and at rho = 0.6 mu_x climbs from
    # 0.15 at gamma = 2 to 6.6 at gamma = 10.
    @given(
        rho=st.floats(1e-6, 0.6),
        rho_hi=st.floats(1e-6, 0.6),
        gamma=st.floats(2.0, 10.0, exclude_min=True),
        gamma_hi=st.floats(2.0, 10.0, exclude_min=True),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_monotone_in_rho_and_gamma(self, rho, rho_hi, gamma, gamma_hi):
        rho, rho_hi = sorted((rho, rho_hi))
        gamma, gamma_hi = sorted((gamma, gamma_hi))
        assume(rho_hi > rho * (1.0 + 1e-9) and gamma_hi > gamma + 1e-6)

        def moments(r, g):
            return intf._disc_moments.__wrapped__(r, 1.0, g)

        mu, var = moments(rho, gamma)
        assert var > 0.0
        assert moments(rho_hi, gamma)[0] > mu
        if rho_hi <= 0.5:
            assert moments(rho_hi, gamma_hi)[0] < moments(rho_hi, gamma)[0]


class TestMomentMemo:
    def test_schemes_share_one_quadrature(self, tier1_patch):
        intf._disc_moments.cache_clear()
        reused = compute_tier_moments(tier1_patch, GAMMA, 42, PilotScheme.REUSED_SETS)
        different = compute_tier_moments(tier1_patch, GAMMA, 42, PilotScheme.DIFFERENT_SETS)
        info = intf._disc_moments.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        fresh = intf._disc_moments.__wrapped__(
            tier1_patch.circle_radius_m, tier1_patch.separation_m, GAMMA
        )
        assert (reused.mu_x, reused.var_x) == (different.mu_x, different.var_x) == fresh

    def test_quadrature_error_is_not_cached(self):
        # a disc that all but touches the target station: its series would
        # need some 10^8 terms
        intf._disc_moments.cache_clear()
        patch = CirclePatch(1.0, 1.0000001)
        for _ in range(2):
            with pytest.raises(ValueError, match="too close to the target station"):
                compute_tier_moments(patch, GAMMA, 4, PilotScheme.REUSED_SETS)
        info = intf._disc_moments.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)

    def test_capacity_table_runs_one_quadrature_per_tier_and_reuse(self):
        import os
        import pathlib

        from mimocap.cli import main

        smoke = pathlib.Path(__file__).resolve().parent.parent / "configs" / "smoke.ini"
        intf._disc_moments.cache_clear()
        argv = ["capacity-table", str(smoke), "--set", "model.tier_count=2", "--out", os.devnull]
        assert main(argv) == 0
        # two tiers at reuse 1, 3 and 7 are six discs, but reuse 1's second
        # tier and reuse 3's first share their separation (3 a = 4800 m), so
        # five quadratures serve all twelve (scheme, reuse, tier) moments
        info = intf._disc_moments.cache_info()
        assert (info.misses, info.hits) == (5, 7)


class TestQosCondition:
    def tier(self, mu, var):
        return TierMoments(mu, var, mu, var)

    def test_no_interferers_always_feasible(self):
        qos = QosTarget.from_db(30.0, 0.01)
        ok, slack = qos_feasible([(0, self.tier(0.5, 0.1))], qos)
        assert ok and slack == math.inf

    def test_zero_variance_mean_comparison(self):
        qos = QosTarget(min_sir_linear=2.0, outage=0.05)
        ok, _ = qos_feasible([(4, self.tier(0.1, 0.0))], qos)
        assert ok  # 1/S = 0.5 >= 0.4
        ok, _ = qos_feasible([(6, self.tier(0.1, 0.0))], qos)
        assert not ok  # 0.5 < 0.6

    def test_scaling_moments_decreases_slack(self):
        qos = QosTarget.from_db(5.0, 0.05)
        _, s1 = qos_feasible([(10, self.tier(1e-3, 1e-5))], qos)
        _, s2 = qos_feasible([(10, self.tier(2e-3, 2e-5))], qos)
        assert s2 < s1

    def test_total_interference_accumulates(self):
        load = [(6, self.tier(0.01, 1e-4)), (6, self.tier(1e-5, 1e-9))]
        gi = total_interference(load)
        assert gi.mean == pytest.approx(6 * 0.01 + 6 * 1e-5)
        assert gi.variance == pytest.approx(6e-4 + 6e-9)
        with pytest.raises(ValueError):
            total_interference([(-1, self.tier(0.1, 0.0))])

    def test_gaussian_interference_validation(self):
        with pytest.raises(ValueError):
            GaussianInterference(mean=0.1, variance=-1e-9)

    def test_qos_target_validation(self):
        with pytest.raises(ValueError):
            QosTarget(min_sir_linear=0.0, outage=0.05)
        with pytest.raises(ValueError):
            QosTarget(min_sir_linear=1.0, outage=0.5)
        qos = QosTarget.from_db(10.0, 0.05)
        assert qos.min_sir_linear == pytest.approx(10.0)

    @pytest.mark.parametrize("sir_db", [np.int64(10), np.float32(10.0), np.array(10.0)])
    def test_from_db_takes_numpy_scalars(self, sir_db):
        lone = QosTarget.from_db(10.0, 0.05).min_sir_linear
        got = QosTarget.from_db(sir_db, 0.05).min_sir_linear
        assert type(got) is float and got.hex() == lone.hex()

    @given(
        mu=st.floats(1e-6, 0.2),
        var=st.floats(1e-12, 1e-2),
        sdb=st.floats(-5.0, 30.0),
        alpha=st.floats(0.001, 0.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_outage_cdf_monotone_in_sir(self, mu, var, sdb, alpha):
        gi = GaussianInterference(mean=mu, variance=var)
        s = 10.0 ** (sdb / 10.0)
        lo, hi = sir_outage_gaussian(s, gi), sir_outage_gaussian(2.0 * s, gi)
        assert 0.0 <= lo <= hi <= 1.0
