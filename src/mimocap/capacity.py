"""Per-cell user capacity from interference moments and a QoS target.

The admission budget comes from the Gaussian feasibility condition: each
admitted interferer is charged an effective interference y_E between the
mean and the worst case, chosen so that n interferers with n * y_E * S <= 1
exactly meet the SIR/outage target.  Under the different-pilot-sets scheme
every co-channel user is an interferer, so the per-cell capacity scales
with the budget; under reused sets each co-channel cell contributes exactly
one full-strength interferer no matter how loaded it is, so a reuse factor
either supports its whole pilot budget or nothing at all.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .geometry import NetworkGeometry, circle_approximation, tier_specs
from .interference import QosTarget, TierMoments, compute_tier_moments, q_inverse, qos_feasible
from .interference import GaussianInterference, total_interference
from .pilots import PilotScheme

# Tolerance absorbed before flooring so that closed-form values that are
# integers up to rounding error do not lose a whole interferer.
_FLOOR_GUARD = 1e-9


class CapacityReport(NamedTuple):
    """Capacity figures for one (scheme, reuse factor) over the SIR points
    of one QoS target.

    Every field has the shape of the target's min_sir_linear, except that
    a single reuse factor's report holds chosen_reuse and pilot_budget as
    ints.  n_max is integer-valued but kept as float, since it is unbounded
    as the SIR threshold goes to zero.
    """

    effective_interference: np.ndarray
    n_max: np.ndarray
    k_u: np.ndarray
    k_max: np.ndarray
    chosen_reuse: int | np.ndarray
    pilot_budget: int | np.ndarray
    feasible: np.ndarray


def effective_interference(interference: GaussianInterference, qos: QosTarget) -> np.ndarray:
    """Per-interferer effective interference y_E at each SIR point.

    Closed form of the feasibility equality: with z = 4 mu / (Qinv(alpha)^2
    sigma^2 S), y_E = mu / (1 + (2/z)(1 - sqrt(1+z))), evaluated as
    mu (sqrt(1+z) + 1)^2 / z which is the same expression without the
    small-z cancellation (sqrt(1+z) - 1 loses every digit of z below the
    float spacing at 1).  Zero variance (or alpha -> 0.5) degenerates to
    the mean.
    """
    mu = interference.mean
    var = interference.variance
    if mu <= 0.0:
        raise ValueError("mean interference must be positive")
    s = qos.min_sir_linear
    q = q_inverse(qos.outage)
    if var == 0.0 or q == 0.0:
        return np.full(np.shape(s), mu)
    z = 4.0 * mu / (q * q * var * s)
    root = np.sqrt(1.0 + z)
    return mu * (root + 1.0) ** 2 / z


def max_interferers(effective, sir_linear) -> np.ndarray:
    """n_max = floor(1 / (y_E S)), elementwise, under the floor guard."""
    if np.any(np.asarray(effective) <= 0.0) or np.any(np.asarray(sir_linear) <= 0.0):
        raise ValueError("effective interference and SIR must be positive")
    return np.floor(1.0 / (effective * sir_linear) + _FLOOR_GUARD)


def tier1_moments(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    pilot_budget: int,
    reuse: int,
    circle_mode: str = "equal_area",
    tier_count: int = 1,
) -> list[tuple[int, TierMoments]]:
    """(cell count, moments) per co-channel tier at the given reuse factor.

    The pilot dimension available per cell shrinks with the reuse factor
    (the training resource is split w ways), so the different-sets pilot
    weighting uses floor(K / w).
    """
    geo = geometry.with_reuse(reuse)
    pilot_dim = max(1, pilot_budget // reuse)
    out = []
    for tier in tier_specs(geo, tier_count):
        patch = circle_approximation(geo, tier, circle_mode)
        tm = compute_tier_moments(patch, geo.path_loss_exponent, pilot_dim, scheme)
        out.append((tier.cell_count, tm))
    return out


def capacity_for_reuse(
    scheme: PilotScheme,
    qos: QosTarget,
    pilot_budget: int,
    reuse: int,
    moments: list[tuple[int, TierMoments]],
) -> CapacityReport:
    """Capacity report for one reuse factor from its tier moments, at
    every SIR point of qos.

    moments is the tier1_moments output for the same scheme, pilot budget
    and reuse factor; it does not depend on the QoS point, so a sweep
    computes it once per reuse factor.  Under different sets k_max solves
    the feasibility equality in the per-cell load through the aggregate
    moments.  At one tier that is floor(n_max / 6) unless 1 / (y_E S) lies
    within 5e-9 below a multiple of 6: the floor guard applies once, to k.
    """
    if pilot_budget < 1:
        raise ValueError("pilot budget must be >= 1")
    budget = pilot_budget // reuse
    tier1_count, tm1 = moments[0]
    s = qos.min_sir_linear

    y_e = effective_interference(GaussianInterference(tm1.mu_y, tm1.var_y), qos)
    n_max = max_interferers(y_e, s)
    k_u = n_max / tier1_count

    if scheme is PilotScheme.REUSED_SETS:
        # One interferer per co-channel cell regardless of load: a reuse
        # factor is either feasible at full pilot budget or not at all.
        feasible, _ = qos_feasible(moments, qos)
        k_max = np.where(feasible, budget, 0)
    else:
        total = total_interference(moments)
        k_cap = np.floor(1.0 / (effective_interference(total, qos) * s) + _FLOOR_GUARD)
        k_max = np.minimum(k_cap, budget).astype(np.int64)
        feasible = k_max >= 1

    return CapacityReport(
        effective_interference=y_e,
        n_max=n_max,
        k_u=k_u,
        k_max=k_max,
        chosen_reuse=reuse,
        pilot_budget=budget,
        feasible=feasible,
    )


def best_reuse(reports: Iterable[CapacityReport]) -> CapacityReport:
    """Per SIR point, the report with the largest k_max among
    per-reuse-factor reports, ties toward the smaller reuse factor
    (np.argmax takes the first maximum)."""
    reports = sorted(reports, key=lambda rep: rep.chosen_reuse)
    pick = np.argmax([rep.k_max for rep in reports], axis=0)
    return CapacityReport(*(np.choose(pick, field) for field in zip(*reports)))


def root_interferer_count(interference: GaussianInterference, qos: QosTarget) -> float:
    """Numeric root n of the feasibility equality (1/S - n mu) / sqrt(n var)
    = Qinv(alpha), solved through the quadratic in sqrt(n).

    This is the quantity whose closed form is effective_interference; kept
    separate so the two can be cross-checked.
    """
    mu = interference.mean
    var = interference.variance
    q = q_inverse(qos.outage)
    budget = 1.0 / qos.min_sir_linear
    if var == 0.0 or q == 0.0:
        return budget / mu
    sig = math.sqrt(var)
    # conjugate form of (-q sig + sqrt(q^2 var + 4 mu budget)) / (2 mu),
    # which cancels badly when q sig dominates
    root = 2.0 * budget / (q * sig + math.sqrt(q * q * var + 4.0 * mu * budget))
    return root * root
