"""Per-interferer interference moments and the Gaussian QoS condition.

With uplink power control, an interferer in a co-channel cell contributes
x = (r_l / r_j)^(2 gamma) to the normalized interference at the base
station of interest (r_l: distance to its own base station; r_j: distance
to ours, by the law of cosines through the cell separation D).  At
t = r_l / D the angular mean of (1 - 2 t cos(theta) + t^2)^(-gamma) is
2F1(gamma, gamma; 1; t^2) (Gradshteyn & Ryzhik 3.665), so over a circular
cell of radius b = rho D, E[x] = sum_n ((gamma)_n / n!)^2 rho^(2 gamma + 2 n)
/ (gamma + n + 1) with (gamma)_n the rising factorial, and E[x^2] is the
same sum at 2 gamma.  Pilot weighting turns (mu_x, var_x) into per-user
moments (mu_y, var_y); summing tiers gives a Gaussian interference total
whose tail against the SIR target S and outage alpha is the admission
feasibility condition.

Q^-1 is Wichura's AS241 (Appl. Stat. 37, 1988), bit for bit as CPython's
statistics.NormalDist evaluates it, so no command loads statistics.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._record import Record
from .geometry import CirclePatch
from .pilots import PilotScheme

# Terms allowed in one disc series: a disc the geometry builds (b/D <= 1/sqrt(3))
# needs under 100, one that all but touches the target station over 10^8
_SERIES_TERMS = 10_000

_SQRT2 = math.sqrt(2.0)


class TierMoments(NamedTuple):
    """Interference moments for one co-channel tier.

    mu_x / var_x describe a single full-collision interferer; mu_y / var_y
    fold in the pilot cross-correlation and describe a single interfering
    user under the configured scheme.
    """

    mu_x: float
    var_x: float
    mu_y: float
    var_y: float


class GaussianInterference(Record):
    """Mean and variance of a Gaussian interference total."""

    __slots__ = _fields = ("mean", "variance")

    def __init__(self, mean: float, variance: float):
        if variance < 0.0:
            raise ValueError("variance must be non-negative")
        self._set(mean, variance)


class QosTarget(Record):
    """Minimum SIR (linear) and allowed outage probability.

    min_sir_linear is one threshold, or an array of thresholds that share
    the outage; the capacity functions then answer for every SIR point at
    once, in the array's shape.
    """

    __slots__ = _fields = ("min_sir_linear", "outage")

    def __init__(self, min_sir_linear: float | np.ndarray, outage: float):
        if not np.all(np.asarray(min_sir_linear) > 0.0):
            raise ValueError("SIR threshold must be positive")
        if not 0.0 < outage < 0.5:
            raise ValueError("outage must lie in (0, 0.5)")
        self._set(min_sir_linear, outage)

    @classmethod
    def from_db(cls, min_sir_db, outage: float) -> "QosTarget":
        """From a threshold in dB (a number, numpy scalar or 0-d array), or
        a 1-D sequence of them.

        Each point goes through Python's float power, so a grid point equals
        its lone target bit for bit; numpy's vectorised power can differ in
        the last bit.
        """
        if np.ndim(min_sir_db) == 0:
            return cls(min_sir_linear=10.0 ** (float(min_sir_db) / 10.0), outage=outage)
        points = np.asarray(min_sir_db, dtype=float).tolist()
        return cls(min_sir_linear=np.array([10.0 ** (s / 10.0) for s in points]), outage=outage)


def interference_ratio(r_l, theta, separation: float, gamma: float):
    """x = (r_l / r_j)^(2 gamma) with r_j from the law of cosines.

    Vectorized over r_l and theta.  r_l must stay below the separation so
    the interferer cannot sit on top of the target base station.
    """
    r_l = np.asarray(r_l, dtype=float)
    if np.any(r_l < 0.0):
        raise ValueError("r_l must be non-negative")
    if np.any(r_l >= separation):
        raise ValueError("r_l must be smaller than the separation")
    r2 = r_l * r_l
    rj2 = r2 + separation * separation - 2.0 * separation * r_l * np.cos(theta)
    return (r2 / rj2) ** gamma


def _disc_series(rho2: float, g: float) -> float:
    """Disc mean of (r_l / r_j)^(2 g), sum_n ((g)_n / n!)^2 rho2^(g+n) / (g+n+1) at
    rho2 = (b / D)^2 < 1, until a geometric bound on the rest is below half an ulp."""
    a = rho2**g
    total = a / (g + 1.0)
    for n in range(_SERIES_TERMS):
        ratio = ((g + n) / (n + 1)) ** 2 * rho2  # falls towards rho2 as n grows
        a *= ratio
        term = a / (g + n + 2.0)
        total += term
        if ratio < 1.0 and term * ratio <= (1.0 - ratio) * total * 2.0**-53:
            return total
    raise ValueError(f"the disc lies too close to the target station (b/D = {math.sqrt(rho2):.9g}):"
                     f" its moment series needs over {_SERIES_TERMS} terms")


@functools.cache
def _disc_moments(radius: float, separation: float, gamma: float) -> tuple[float, float]:
    """(mu_x, var_x) of x over the disc by the series; shared by both pilot
    schemes and every pilot dimension (a ValueError is not cached)."""
    rho2 = (radius / separation) ** 2
    mu_x = _disc_series(rho2, gamma)
    return mu_x, _disc_series(rho2, 2.0 * gamma) - mu_x * mu_x


def compute_tier_moments(
    patch: CirclePatch,
    gamma: float,
    pilot_dim: int,
    scheme: PilotScheme,
) -> TierMoments:
    """Moments of x over the circular cell, then pilot weighting.

    Reused sets keep (mu_x, var_x) unchanged (phi is the constant 1).
    Different sets give mu_y = mu_x / K and, with the large-K convention
    Var[phi] = 1/K^2, var_y = (2 var_x + mu_x^2) / K^2.
    """
    if pilot_dim < 1:
        raise ValueError("pilot dimension must be >= 1")
    mu_x, var_x = _disc_moments(patch.circle_radius_m, patch.separation_m, gamma)

    if scheme is PilotScheme.REUSED_SETS:
        mu_y, var_y = mu_x, var_x
    else:
        k = pilot_dim
        mu_y = mu_x / k
        var_y = (2.0 * var_x + mu_x * mu_x) / (k * k)
    return TierMoments(mu_x=mu_x, var_x=var_x, mu_y=mu_y, var_y=var_y)


def q_function(x) -> float | np.ndarray:
    """Standard normal tail probability Q(x) = 1 - Phi(x): a float for a
    scalar, an array of the same shape for an array."""
    z = np.asarray(x, dtype=float) / _SQRT2
    q = np.array([0.5 * math.erfc(v) for v in z.ravel().tolist()]).reshape(z.shape)
    return float(q) if q.ndim == 0 else q


# AS241 (PPND16) numerator and denominator coefficients, highest power
# first, for |alpha - 1/2| <= 0.425, then r = sqrt(-log(tail)) <= 5, then
# r > 5; each is the shortest repr of the double its published value rounds to
_AS241 = (
    (
        (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
         13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665),
        (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
         5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0),
    ),
    (
        (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
         3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835),
        (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
         0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0),
    ),
    (
        (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
         0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
         6.657904643501103),
        (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
         0.0007868691311456133, 0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0),
    ),
)


def _horner(coeffs, r: float) -> float:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * r + c
    return acc


def q_inverse(alpha: float) -> float:
    """Inverse of the normal tail, Q^-1(alpha) = -Phi^-1(alpha), equal to
    -statistics.NormalDist().inv_cdf(alpha) bit for bit."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    q = alpha - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241[0]
        return -(_horner(num, r) * q / _horner(den, r))
    r = math.sqrt(-math.log(alpha if q <= 0.0 else 1.0 - alpha))
    if r <= 5.0:
        (num, den), r = _AS241[1], r - 1.6
    else:
        (num, den), r = _AS241[2], r - 5.0
    x = _horner(num, r) / _horner(den, r)
    return x if q < 0.0 else -x


def total_interference(load) -> GaussianInterference:
    """Gaussian total for a load of (count, TierMoments) pairs."""
    mean = 0.0
    var = 0.0
    for count, tm in load:
        if count < 0:
            raise ValueError("interferer counts must be non-negative")
        mean += count * tm.mu_y
        var += count * tm.var_y
    return GaussianInterference(mean=mean, variance=var)


def qos_feasible(load, qos: QosTarget) -> tuple:
    """Gaussian admission condition for a multi-tier load.

    Returns (feasible, slack) where slack is the left side of

        (1/S - sum n_t mu_y_t) / sqrt(sum n_t var_y_t) >= Qinv(alpha)

    minus the right side, both in the shape of the target's SIR points.  A
    zero-variance load degenerates to the direct mean comparison, reported
    with infinite slack magnitude.
    """
    gi = total_interference(load)
    budget = 1.0 / qos.min_sir_linear
    if gi.variance == 0.0:
        ok = budget >= gi.mean
        return ok, np.where(ok, math.inf, -math.inf)
    slack = (budget - gi.mean) / math.sqrt(gi.variance) - q_inverse(qos.outage)
    return slack >= 0.0, slack


def sir_outage_gaussian(sir_linear, interference: GaussianInterference):
    """P(SIR <= s) under the Gaussian interference approximation.

    SIR = 1 / Y with Y ~ N(mean, variance), so the CDF at s is
    P(Y >= 1/s) = Q((1/s - mean) / sigma).  Vectorized over s.
    """
    s = np.asarray(sir_linear, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("SIR values must be positive")
    if interference.variance == 0.0:
        return np.where(1.0 / s <= interference.mean, 1.0, 0.0)
    sigma = math.sqrt(interference.variance)
    return q_function((1.0 / s - interference.mean) / sigma)
