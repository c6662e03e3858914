import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimocap.capacity import (
    best_reuse,
    capacity_for_reuse,
    effective_interference,
    max_interferers,
    root_interferer_count,
    tier1_moments,
)
from mimocap.config import _MAX_PILOTS, _MAX_TRIAL_VALUES, ScenarioConfig
from mimocap.geometry import (
    CELL_RADIUS_RANGE_M,
    MAX_ABS_DB,
    PATH_LOSS_EXPONENT_MAX,
    NetworkGeometry,
    cochannel_cells,
)
from mimocap.interference import GaussianInterference, QosTarget, q_inverse, qos_feasible
from mimocap.pilots import PilotScheme

K = 42


def tm(mu, var):
    return GaussianInterference(mu, var)


def report(geometry, scheme, qos, reuse, tier_count=1):
    moments = tier1_moments(geometry, scheme, K, reuse, tier_count=tier_count)
    return capacity_for_reuse(scheme, qos, K, reuse, moments)


@pytest.fixture(scope="module")
def moments_by_reuse():
    """tier1_moments of the shipped scenario per (scheme, reuse factor)."""
    from mimocap import NetworkGeometry

    geometry = NetworkGeometry()
    return {(s, w): tier1_moments(geometry, s, K, w) for s in PilotScheme for w in (1, 3, 7)}


@st.composite
def _scenarios(draw):
    """(config, two ascending SIR points in dB, two ascending alphas): a
    whole scenario within the load-time bounds, built as a config is."""
    radius = draw(st.floats(*CELL_RADIUS_RANGE_M))
    geometry = NetworkGeometry(
        cell_radius_m=radius,
        hole_radius_m=draw(st.floats(0.0, 1.0)) * math.sqrt(3.0) / 2.0 * radius,
        path_loss_exponent=draw(st.floats(2.0, PATH_LOSS_EXPONENT_MAX, exclude_min=True)),
    )
    tier_count = draw(st.integers(1, 3))
    # the sampler block bound caps the budget; w = 1 has the most cells
    cells = len(cochannel_cells(geometry, tier_count)) + 1
    budget = draw(st.integers(1, min(_MAX_PILOTS, _MAX_TRIAL_VALUES // cells)))
    config = ScenarioConfig(
        geometry=geometry,
        pilot_budget=budget,
        circle_mode=draw(st.sampled_from(["equal_area", "match_radius"])),
        tier_count=tier_count,
    )
    # the whole load-time range, and as often the range where capacity moves
    sir = st.one_of(st.floats(-MAX_ABS_DB, MAX_ABS_DB), st.floats(-20.0, 60.0))
    alpha = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
    sir_db = draw(st.lists(sir, min_size=2, max_size=2))
    alphas = draw(st.lists(alpha, min_size=2, max_size=2))
    return config, sorted(sir_db), sorted(alphas)


def best(moments_by_reuse, scheme, qos):
    return best_reuse(
        capacity_for_reuse(scheme, qos, K, w, moments_by_reuse[(scheme, w)]) for w in (1, 3, 7)
    )


class TestEffectiveInterference:
    def test_zero_variance_gives_mean(self):
        qos = QosTarget.from_db(10.0, 0.05)
        assert effective_interference(tm(0.01, 0.0), qos) == 0.01

    def test_alpha_near_half_gives_mean(self):
        qos = QosTarget(min_sir_linear=10.0, outage=0.4999999)
        assert effective_interference(tm(0.01, 1e-4), qos) == pytest.approx(0.01, rel=1e-3)

    def test_above_mean(self):
        qos = QosTarget.from_db(10.0, 0.05)
        moments = tm(0.01, 1e-4)
        assert effective_interference(moments, qos) > moments.mean

    @given(
        mu=st.floats(1e-8, 0.5),
        ratio=st.floats(1e-4, 1e4),
        sdb=st.floats(-10.0, 40.0),
        alpha=st.floats(1e-4, 0.49),
    )
    @settings(max_examples=80, deadline=None)
    def test_closed_form_equals_numeric_root(self, mu, ratio, sdb, alpha):
        # y_E is the closed form of the feasibility equality's root n,
        # via y_E = 1 / (n S); the oracle root-solves the equality itself
        from scipy.optimize import brentq

        moments = tm(mu, ratio * mu * mu)
        qos = QosTarget.from_db(sdb, alpha)
        y_e = effective_interference(moments, qos)
        q = q_inverse(qos.outage)
        budget = 1.0 / qos.min_sir_linear
        sig = math.sqrt(moments.variance)

        def equality(u):  # u = sqrt(n)
            return budget - mu * u * u - q * sig * u

        u_root = brentq(
            equality, 0.0, math.sqrt(budget / mu), xtol=1e-300, rtol=1e-14, maxiter=200
        )
        assert y_e == pytest.approx(1.0 / (u_root * u_root * qos.min_sir_linear), rel=1e-9)
        assert root_interferer_count(moments, qos) == pytest.approx(u_root * u_root, rel=1e-9)

    def test_invalid_moments(self):
        qos = QosTarget.from_db(0.0, 0.05)
        with pytest.raises(ValueError):
            effective_interference(tm(0.0, 1e-4), qos)


class TestMaxInterferers:
    def test_budget_exactly_one(self):
        assert max_interferers(0.5, 2.0) == 1

    def test_floor_arithmetic(self):
        assert max_interferers(0.249, 1.0) == 4
        assert max_interferers(0.1, 1.0) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            max_interferers(0.0, 1.0)

    def test_feasibility_round_trip(self, geometry):
        # n_max interferers meet the QoS, n_max + 1 do not
        for sdb, alpha in ((0.0, 0.05), (10.0, 0.05), (10.0, 0.005), (20.0, 0.1)):
            qos = QosTarget.from_db(sdb, alpha)
            _count, moments = tier1_moments(geometry, PilotScheme.DIFFERENT_SETS, K, 1)[0]
            y_e = effective_interference(GaussianInterference(moments.mu_y, moments.var_y), qos)
            n_max = max_interferers(y_e, qos.min_sir_linear)
            assert qos_feasible([(n_max, moments)], qos)[0]
            assert not qos_feasible([(n_max + 1, moments)], qos)[0]

    def test_slack_near_zero_at_unfloored_root(self, geometry):
        qos = QosTarget.from_db(10.0, 0.05)
        _count, moments = tier1_moments(geometry, PilotScheme.DIFFERENT_SETS, K, 1)[0]
        n_root = root_interferer_count(GaussianInterference(moments.mu_y, moments.var_y), qos)
        _ok, slack = qos_feasible([(n_root, moments)], qos)
        assert abs(slack) <= 1e-6


class TestCapacityForReuse:
    def test_low_sir_pilot_limited_both_schemes(self, geometry):
        qos = QosTarget.from_db(0.0, 0.05)
        for scheme in PilotScheme:
            rep = report(geometry, scheme, qos, 1)
            assert rep.k_max == 42
            assert rep.pilot_budget == 42

    def test_reused_forced_to_w3_above_switch(self, geometry, moments_by_reuse):
        # just above the reused switching point even one user per cell
        # fails the QoS at w=1, while w=3 carries the full budget of 14
        qos = QosTarget.from_db(2.0, 0.05)
        rep1 = report(geometry, PilotScheme.REUSED_SETS, qos, 1)
        assert not rep1.feasible and rep1.k_max == 0
        assert rep1.k_u < 1.0
        rep3 = report(geometry, PilotScheme.REUSED_SETS, qos, 3)
        assert rep3.k_max == 14
        assert best(moments_by_reuse, PilotScheme.REUSED_SETS, qos).chosen_reuse == 3

    def test_different_decline_profile(self, geometry):
        # k_max stays 42 until ~5 dB, then declines; k_u below 14 near 9 dB
        k_at = {}
        for sdb in (4.0, 6.0, 8.0, 10.0):
            k_at[sdb] = report(geometry, PilotScheme.DIFFERENT_SETS, QosTarget.from_db(sdb, 0.05), 1)
        assert k_at[4.0].k_max == 42
        assert k_at[6.0].k_max < 42
        assert k_at[8.0].k_u >= 14.0
        assert k_at[10.0].k_u < 14.0

    def test_k_u_is_nmax_over_six(self, geometry):
        qos = QosTarget.from_db(12.0, 0.05)
        rep = report(geometry, PilotScheme.DIFFERENT_SETS, qos, 1)
        assert rep.k_u == pytest.approx(rep.n_max / 6.0)
        assert rep.k_max == min(int(rep.k_u), rep.pilot_budget)

    def test_multi_tier_option_tightens_capacity(self, geometry):
        qos = QosTarget.from_db(7.0, 0.05)
        one = report(geometry, PilotScheme.DIFFERENT_SETS, qos, 1, tier_count=1)
        two = report(geometry, PilotScheme.DIFFERENT_SETS, qos, 1, tier_count=2)
        assert two.k_max <= one.k_max
        # outer tiers are negligible under pure path loss: same here
        assert two.k_max >= one.k_max - 1


class TestBestReuse:
    def test_dominance_different_ge_reused(self, moments_by_reuse):
        for sdb in np.arange(-2.0, 40.1, 2.0):
            for alpha in (0.01, 0.05, 0.2):
                qos = QosTarget.from_db(float(sdb), alpha)
                kd = best(moments_by_reuse, PilotScheme.DIFFERENT_SETS, qos).k_max
                kr = best(moments_by_reuse, PilotScheme.REUSED_SETS, qos).k_max
                assert kd >= kr

    def test_monotone_in_sir(self, moments_by_reuse):
        for scheme in PilotScheme:
            prev = math.inf
            for sdb in np.arange(-2.0, 42.1, 1.0):
                k = best(moments_by_reuse, scheme, QosTarget.from_db(float(sdb), 0.05)).k_max
                assert k <= prev
                prev = k

    def test_monotone_in_outage(self, moments_by_reuse):
        for scheme in PilotScheme:
            k_tight = best(moments_by_reuse, scheme, QosTarget.from_db(12.0, 0.01)).k_max
            k_loose = best(moments_by_reuse, scheme, QosTarget.from_db(12.0, 0.1)).k_max
            assert k_tight <= k_loose

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=_scenarios())
    def test_monotone_over_drawn_scenarios(self, case):
        # per scheme and reuse factor, at any scenario a config can load,
        # k_max never rises with the SIR threshold and never falls with alpha
        config, sir_db, alphas = case
        for scheme in PilotScheme:
            for w in (1, 3, 7):
                moments = tier1_moments(
                    config.geometry, scheme, config.pilot_budget, w, config.circle_mode,
                    tier_count=config.tier_count,
                )
                k = [
                    capacity_for_reuse(
                        scheme, QosTarget.from_db(sir_db, a), config.pilot_budget, w, moments
                    ).k_max
                    for a in alphas
                ]
                for k_at_alpha in k:
                    assert k_at_alpha[1] <= k_at_alpha[0]
                assert np.all(k[0] <= k[1])

    def test_tie_breaks_toward_smaller_reuse(self, moments_by_reuse):
        # at very high SIR everything is infeasible: all k_max = 0, pick w=1
        qos = QosTarget.from_db(80.0, 0.005)
        rep = best(moments_by_reuse, PilotScheme.REUSED_SETS, qos)
        assert rep.k_max == 0
        assert rep.chosen_reuse == 1


def _oracle_point(scheme, moments, pilot_budget, reuse, qos):
    """(y_E, n_max, k_u, k_max, feasible) at one reuse factor and one SIR
    point, in scalar floats straight from the paper's formulas: y_E from
    the feasibility equality, n_max = floor(1 / (y_E S)), reused sets all
    or nothing, different sets capped by the aggregate-moment root."""
    s = qos.min_sir_linear
    q = q_inverse(qos.outage)

    def y_eff(mu, var):
        z = 4.0 * mu / (q * q * var * s)
        root = math.sqrt(1.0 + z)
        return mu * ((root + 1.0) * (root + 1.0)) / z

    count1, tm1 = moments[0]
    mean = sum(c * tm.mu_y for c, tm in moments)
    var = sum(c * tm.var_y for c, tm in moments)
    y_e = y_eff(tm1.mu_y, tm1.var_y)
    n_max = math.floor(1.0 / (y_e * s) + 1e-9)
    k_u = n_max / count1
    budget = pilot_budget // reuse
    if scheme is PilotScheme.REUSED_SETS:
        feasible = (1.0 / s - mean) / math.sqrt(var) >= q
        k_max = budget if feasible else 0
    else:
        k_root = k_u if len(moments) == 1 else 1.0 / (y_eff(mean, var) * s)
        k_max = min(math.floor(k_root + 1e-9), budget)
        feasible = k_max >= 1
    return y_e, n_max, k_u, k_max, feasible


@pytest.mark.parametrize("tier_count", [1, 2])
@pytest.mark.parametrize("scheme", list(PilotScheme))
def test_array_sweep_matches_per_point_oracle(geometry, scheme, tier_count):
    # budgets 9 and 1000 beside K = 42, whose K // w cap hides the
    # different-sets solve below about 5 dB
    from mimocap.config import QosGrid

    sir_db = QosGrid().sir_db_values()
    fields = ("effective_interference", "n_max", "k_u", "k_max", "feasible")
    for budget in (9, K, 1000):
        moments = {
            w: tier1_moments(geometry, scheme, budget, w, tier_count=tier_count) for w in (1, 3, 7)
        }
        for alpha in (0.005, 0.05, 0.2):
            qos = QosTarget.from_db(sir_db, alpha)
            per_w = {w: capacity_for_reuse(scheme, qos, budget, w, moments[w]) for w in (1, 3, 7)}
            best_rep = best_reuse(per_w.values())
            expect_best = []
            for w, rep in per_w.items():
                assert rep.chosen_reuse == w and rep.pilot_budget == budget // w
                expect = [
                    _oracle_point(scheme, moments[w], budget, w, QosTarget.from_db(s, alpha))
                    for s in sir_db
                ]
                for name, column in zip(fields, zip(*expect)):
                    assert getattr(rep, name).tolist() == list(column), (budget, w, alpha, name)
                expect_best.append([(w, *point) for point in expect])
            # per SIR point, the largest k_max, ties toward the smaller w
            chosen = [max(points, key=lambda p: (p[4], -p[0])) for points in zip(*expect_best)]
            assert best_rep.chosen_reuse.tolist() == [p[0] for p in chosen], (budget, alpha)
            assert best_rep.pilot_budget.tolist() == [budget // p[0] for p in chosen]
            for i, name in enumerate(fields, start=1):
                assert getattr(best_rep, name).tolist() == [p[i] for p in chosen], (
                    budget,
                    alpha,
                    name,
                )
