"""Monte Carlo validation of the analytic capacity pipeline.

Three samplers share one trial framework:

* sample_sir_limit        - limiting (large antenna count) SIR where only
                            pilot contamination survives,
* sample_sir_limit_shadowed - the same with log-normal shadowing and
                            best-base-station selection (both run one
                            trial function, unshadowed at sigma = 0),
* sample_sir_finite_m     - a finite-antenna MRC link simulator with all
                            intra- and inter-cell cross terms and noise.

The finite-M simulator never draws the M x N channel matrix: i.i.d.
Rayleigh fading is invariant in law under rotations of the user space, and
rotating along the channel-estimator weights leaves one Gamma(M, 1) draw
and one Gaussian vector over the N users per trial (see _finite_trial).  A
trial costs O(N) whatever M is, has the law of the M x N simulation, and
yields the SINR at every per-cell load.  empirical_capacity_search reads the
largest load with outage P(SINR < S) <= alpha off one such pass per reuse
factor, every load on the same draws (common random numbers).

Randomness is drawn from counter-based Philox streams keyed by
(seed, trial index, role), so trials are independent, reproducible
bit-for-bit, and insensitive to chunking or worker count.  The samplers
consume the position and pilot roles identically, which makes paired
comparisons across samplers (same user drops, same pilot collisions)
possible by reusing a seed.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    NetworkGeometry,
    cochannel_cells,
    equal_area_radius,
    sample_circle_position,
    sample_hexagon_position,
)
from .interference import QosTarget
from .pilots import PilotBook, PilotScheme

_ROLE_POSITIONS = 1
_ROLE_PILOTS = 2
_ROLE_SHADOW = 3
_ROLE_FADING = 4

_WILSON_Z = 1.959963984540054  # 95% normal quantile


def trial_rng(seed: int, trial: int, role: int) -> np.random.Generator:
    """Philox stream for one (seed, trial, role) triple."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    counter = np.array([0, 0, trial, role], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


@dataclass(frozen=True, eq=False)
class SirSampleSet:
    """SIR realizations (linear scale) for one scenario, in trial order."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.size and not np.all(arr > 0.0):
            raise ValueError("SIR samples must be positive")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "_sorted", np.sort(arr))

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def sorted_samples(self) -> np.ndarray:
        return self._sorted


@dataclass(frozen=True)
class FiniteMConfig:
    """Finite-antenna MRC scenario; SNRs are cell-edge values with uplink
    power control, None disables the corresponding noise term."""

    antennas: int = 500
    pilot_length: int = 42
    ul_snr_db: float | None = 10.0
    pilot_snr_db: float | None = 10.0

    def __post_init__(self):
        if self.antennas < 1:
            raise ValueError("antenna count must be >= 1")
        if self.pilot_length < 1:
            raise ValueError("pilot length must be >= 1")


@dataclass(frozen=True)
class ShadowDiagnostics:
    tier_shares: dict[int, float]
    max_interference_ratio: float


@dataclass(frozen=True)
class _Scenario:
    """Everything a trial needs; immutable and picklable for workers."""

    geometry: NetworkGeometry
    centers: np.ndarray  # (n_cells, 2) co-channel cell centers
    tiers: np.ndarray  # (n_cells,) tier index per cell
    users_per_cell: int
    scheme: PilotScheme
    pilot_dim: int
    region: str
    shadow_sigma_db: float = 0.0
    collect_shadow_stats: bool = False
    # finite-M extras
    antennas: int = 0
    ul_snr: float = math.inf
    pilot_snr: float = math.inf
    # optional fixed pilot book (different-sets validation path)
    book_grams: np.ndarray | None = None  # (n_cells, K, K) |<psi_c, psi_l>|^2
    book_dim: int = 0

    @property
    def n_cells(self) -> int:
        return int(self.centers.shape[0])

    @property
    def gamma(self) -> float:
        return self.geometry.path_loss_exponent


def _draw_distances(scn: _Scenario, rng: np.random.Generator):
    """Distances (to own base station, to the center one) per interferer.

    Shapes (n_cells, users_per_cell).  The circle region reproduces the
    analytic disc density; the hexagon region is the physical cell with the
    hole excluded.
    """
    n, k = scn.n_cells, scn.users_per_cell
    if scn.region == "circle":
        b = equal_area_radius(scn.geometry.cell_radius_m)
        r_own, ang = sample_circle_position(b, rng, n * k)
        r_own = r_own.reshape(n, k)
        d = np.hypot(scn.centers[:, 0], scn.centers[:, 1])[:, None]
        r_ctr = np.sqrt(r_own**2 + d**2 - 2.0 * d * r_own * np.cos(ang.reshape(n, k)))
        return r_own, r_ctr, None
    xs, ys = sample_hexagon_position(scn.geometry, rng, n * k)
    xs = xs.reshape(n, k)
    ys = ys.reshape(n, k)
    r_own = np.hypot(xs, ys)
    r_ctr = np.hypot(xs + scn.centers[:, 0][:, None], ys + scn.centers[:, 1][:, None])
    return r_own, r_ctr, (xs, ys)


def _draw_pilot_vector(scn: _Scenario, rng: np.random.Generator):
    """Complex cross-correlation coefficients of every interfering user's
    pilot against the tagged user's pilot, drawn fresh per trial.

    For independent Haar books the coefficient vector of one cell is the
    first users_per_cell coordinates of a Haar unit vector, sampled as a
    normalized complex Gaussian row.  Reused sets need no draw: exactly
    the same-index user of each cell collides, with coefficient 1.
    """
    n, k, dim = scn.n_cells, scn.users_per_cell, scn.pilot_dim
    if scn.scheme is PilotScheme.REUSED_SETS:
        return None
    if scn.book_grams is not None:
        K = scn.book_dim
        tagged_col = int(rng.integers(K))
        phi = np.empty((n, k))
        for l in range(n):
            cols = rng.permutation(K)[:k]
            phi[l] = scn.book_grams[l][tagged_col, cols]
        return np.sqrt(phi).astype(complex)  # phases irrelevant downstream
    z = rng.standard_normal((n, 2 * dim)).view(np.complex128)
    norm = np.sqrt((z.real**2 + z.imag**2).sum(axis=1, keepdims=True))
    return z[:, :k] / norm


def _contamination(scn: _Scenario, gains: np.ndarray, coeff) -> np.ndarray:
    """Contaminating terms at the center station: the same-index user of
    each cell under reused sets, every user weighted by its pilot overlap
    |coeff|^2 under different sets."""
    if scn.scheme is PilotScheme.REUSED_SETS:
        return gains[:, 0]
    return (coeff.real**2 + coeff.imag**2) * gains


def _shadow_trial(scn: _Scenario, seed: int, trial: int):
    """Limiting-SIR trial, shadowed when scn.shadow_sigma_db > 0: returns
    (sir, per-tier interference, max ratio), the last two None unless
    shadowing or diagnostics need them."""
    r_own, r_ctr, offsets = _draw_distances(scn, trial_rng(seed, trial, _ROLE_POSITIONS))
    coeff = _draw_pilot_vector(scn, trial_rng(seed, trial, _ROLE_PILOTS))
    n, k = scn.n_cells, scn.users_per_cell

    if scn.shadow_sigma_db > 0.0:
        xs, ys = offsets
        # distances from every user to every candidate base station:
        # column 0 is the center station, column 1+l the co-channel ones.
        bs_x = np.concatenate(([0.0], scn.centers[:, 0]))
        bs_y = np.concatenate(([0.0], scn.centers[:, 1]))
        dx = xs[:, :, None] + scn.centers[:, 0][:, None, None] - bs_x[None, None, :]
        dy = ys[:, :, None] + scn.centers[:, 1][:, None, None] - bs_y[None, None, :]
        dist = np.hypot(dx, dy)
        rng_sh = trial_rng(seed, trial, _ROLE_SHADOW)
        z_db = scn.shadow_sigma_db * rng_sh.standard_normal((n, k, n + 1))
        beta = 10.0 ** (z_db / 10.0) * dist ** (-scn.gamma)
        serving = np.argmax(beta, axis=2)
        idx = np.ogrid[:n, :k]
        beta_serv = beta[idx[0], idx[1], serving]
        ratio = (beta[:, :, 0] / beta_serv) ** 2
        ratio[serving == 0] = 0.0  # handed over to the center station
    else:
        # No shadowing: nearest-station service keeps every user on its own
        # cell, and the terms are the unshadowed power-control ratios.
        ratio = (r_own / r_ctr) ** (2.0 * scn.gamma)
    terms = _contamination(scn, ratio, coeff)
    total = float(terms.sum())
    sir = 1.0 / total if total > 0.0 else math.inf
    per_tier = peak = None
    if scn.collect_shadow_stats:
        per_tier = {int(t): float(terms[scn.tiers == t].sum()) for t in np.unique(scn.tiers)}
    if scn.collect_shadow_stats or scn.shadow_sigma_db > 0.0:
        counted = ratio[:, 0] if scn.scheme is PilotScheme.REUSED_SETS else ratio
        peak = float(counted.max()) if counted.size else 0.0
    return sir, per_tier, peak


def _finite_trial(scn: _Scenario, seed: int, trial: int) -> np.ndarray:
    """Tagged-user SINR at every load 1..users_per_cell, where load k keeps
    the first k users of each cell; entry k - 1 is load k."""
    r_own, r_ctr, _ = _draw_distances(scn, trial_rng(seed, trial, _ROLE_POSITIONS))
    coeff = _draw_pilot_vector(scn, trial_rng(seed, trial, _ROLE_PILOTS))
    n, k = scn.n_cells, scn.users_per_cell
    n_users = (n + 1) * k

    # ULPC effective channel amplitude at the center station is
    # sqrt(beta_center / beta_own); beta = r^-gamma is a power gain, so the
    # coherent interference scales as amp^4 = (r_own / r_center)^(2 gamma),
    # matching the limiting SIR terms.  Center-cell users come first.
    amp = np.ones(n_users)
    amp[k:] = ((r_own / r_ctr) ** (scn.gamma / 2.0)).ravel()

    # pilot-matched-filter weights: own-cell pilots are orthogonal, so only
    # the tagged user survives from the center cell.
    c = np.zeros(n_users, dtype=complex)
    c[0] = 1.0
    if scn.scheme is PilotScheme.REUSED_SETS:
        c[k + np.arange(n) * k] = 1.0
    else:
        c[k:] = coeff.ravel()

    # The estimate is ghat = H a over the M x (N+1) channel H with i.i.d.
    # CN(0, 1) entries, where a = c * amp plus one pilot-noise column of
    # weight 1/sqrt(tau * SNR_p).  The law of H does not change under a
    # unitary rotation of the user space; rotating along u = a/|a| gives
    # ghat = |a| z with z ~ CN(0, I_M) and h_i^H ghat = |a| |z| (a_i g + w_i),
    # g = (|z| - u^H w) / |a|, w ~ CN(0, I_{N+1}) independent of
    # |z|^2 ~ Gamma(M, 1).  |a|^2 |z|^2 = |ghat|^2 cancels from the SINR, so
    # a trial costs O(N) whatever M is (Marzetta, IEEE TWC 2010).  Load k
    # keeps a and w of its users only: the sums over users are prefix sums
    # over the in-cell index, and the denominator, summed over interferers,
    # is sum amp^2 |a g + w|^2 = |g|^2 A + 2 Re(g B) + C.
    a = c * amp
    noisy = math.isfinite(scn.pilot_snr)
    rng_fad = trial_rng(seed, trial, _ROLE_FADING)
    z_norm = math.sqrt(rng_fad.standard_gamma(scn.antennas))
    w = rng_fad.standard_normal(2 * (n_users + noisy)).view(complex) * math.sqrt(0.5)
    terms = np.empty((5, n_users), dtype=complex)  # |a|^2, conj(a) w; A, conj(B), C
    terms[0] = a.real**2 + a.imag**2
    np.multiply(a.conj(), w[:n_users], out=terms[1])
    terms[2:4] = terms[:2]
    terms[4] = w.real[:n_users] ** 2 + w.imag[:n_users] ** 2
    weight = amp**2
    weight[0] = 0.0  # the tagged user is no interferer
    terms[2:] *= weight
    sums = np.add.reduce(terms.reshape(5, n + 1, k), axis=1)
    # what every load shares goes into load 1 before the prefix sums
    if noisy:
        a_noise = 1.0 / math.sqrt(scn.pilot_dim * scn.pilot_snr)
        sums[0, 0] += a_noise**2
        sums[1, 0] += a_noise * w[n_users]
    if math.isfinite(scn.ul_snr):
        sums[4, 0] += 1.0 / scn.ul_snr
    np.add.accumulate(sums, axis=1, out=sums)
    norm2, proj, big_a, conj_b, big_c = sums  # proj = |a| u^H w
    norm2 = norm2.real
    g = (z_norm * np.sqrt(norm2) - proj) / norm2
    num = np.abs(g + w[0]) ** 2  # a = amp = 1 for the tagged user
    den = (g.real**2 + g.imag**2) * big_a.real + 2.0 * (g * conj_b.conj()).real + big_c.real
    return np.divide(num, den, out=np.full(k, math.inf), where=den > 0.0)


def _chunk_worker(args):
    trial_fn, scn, seed, start, stop = args
    return [trial_fn(scn, seed, t) for t in range(start, stop)]


def _run_trials(trial_fn, scn: _Scenario, seed: int, trials: int, workers) -> list:
    """trial_fn(scn, seed, t) for every t in [0, trials), in trial order."""
    if workers is None or workers <= 1 or trials < 64:
        return _chunk_worker((trial_fn, scn, seed, 0, trials))
    chunk = max(64, (trials + 4 * workers - 1) // (4 * workers))
    ranges = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_chunk_worker, [(trial_fn, scn, seed, s, e) for s, e in ranges]))
    return [r for part in parts for r in part]


def _cochannel_scenario(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    pilot_dim: int | None,
    region: str,
    max_tier: int | None,
) -> _Scenario:
    if users_per_cell < 1:
        raise ValueError("users_per_cell must be >= 1")
    if region not in ("hexagon", "circle"):
        raise ValueError(f"unknown sampling region {region!r}")
    cells = cochannel_cells(geometry, max_tier)
    centers = np.array([c.center for c in cells]).reshape(-1, 2)
    tiers = np.array([c.tier for c in cells], dtype=int)
    if scheme is PilotScheme.DIFFERENT_SETS:
        if pilot_dim is None:
            raise ValueError("different-sets sampling needs the pilot dimension")
        if users_per_cell > pilot_dim:
            raise ValueError(
                f"cannot admit {users_per_cell} users on {pilot_dim} pilot sequences"
            )
        dim = pilot_dim
    else:
        dim = pilot_dim if pilot_dim is not None else users_per_cell
        if users_per_cell > dim:
            raise ValueError(
                f"cannot admit {users_per_cell} users on {dim} pilot sequences"
            )
    return _Scenario(
        geometry=geometry,
        centers=centers,
        tiers=tiers,
        users_per_cell=users_per_cell,
        scheme=scheme,
        pilot_dim=dim,
        region=region,
    )


def _finite_scenario(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    config: FiniteMConfig,
    max_tier: int | None,
) -> _Scenario:
    """Scenario of the finite-M sampler: hexagon drops, a per-cell pilot
    space of pilot_length // reuse_factor, and linear-scale SNRs."""
    w = geometry.reuse_factor
    if users_per_cell * w > config.pilot_length:
        raise ValueError(
            f"pilot budget infeasible: {users_per_cell} users need "
            f"{users_per_cell * w} of {config.pilot_length} training dimensions"
        )
    scn = _cochannel_scenario(
        geometry, scheme, users_per_cell, config.pilot_length // w, "hexagon", max_tier
    )

    def linear(snr_db):
        return math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)

    scn = replace(
        scn,
        antennas=config.antennas,
        ul_snr=linear(config.ul_snr_db),
        pilot_snr=linear(config.pilot_snr_db),
    )
    _require_defined_sinr(scn, users_per_cell)
    return scn


def _require_defined_sinr(scn: _Scenario, load: int) -> None:
    # Pilot noise only perturbs the estimate; the SINR denominator holds
    # interference and data noise alone.
    if scn.n_cells == 0 and load == 1 and scn.ul_snr == math.inf:
        raise ValueError("SINR is undefined with no interferers and no data noise")


def _attach_book(scn: _Scenario, book: PilotBook | None) -> _Scenario:
    if book is None or scn.scheme is PilotScheme.REUSED_SETS:
        return scn
    if book.sequence_length < scn.users_per_cell:
        raise ValueError("pilot book is too short for the per-cell load")
    if book.cell_count < scn.n_cells + 1:
        raise ValueError("pilot book does not cover every co-channel cell")
    center = book.matrices[0]
    grams = np.empty((scn.n_cells, book.sequence_length, book.sequence_length))
    for l in range(scn.n_cells):
        grams[l] = np.abs(center.conj().T @ book.matrices[l + 1]) ** 2
    return replace(scn, book_grams=grams, book_dim=book.sequence_length)


def sample_sir_limit(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    trials: int,
    seed: int,
    pilot_dim: int | None = None,
    pilot_book: PilotBook | None = None,
    region: str = "hexagon",
    max_tier: int | None = None,
    workers: int | None = None,
) -> SirSampleSet:
    """Limiting-SIR samples: per trial, drop users in every cell of
    cochannel_cells(geometry, max_tier), draw pilot collisions per scheme,
    and evaluate the contamination-only SIR under uplink power control.

    pilot_book fixes the different-sets pilot matrices across trials (only
    the column assignment is redrawn); by default pilots are redrawn every
    trial, matching the analytic averaging over the Haar measure.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scn = _cochannel_scenario(geometry, scheme, users_per_cell, pilot_dim, region, max_tier)
    scn = _attach_book(scn, pilot_book)
    results = _run_trials(_shadow_trial, scn, seed, trials, workers)
    return SirSampleSet(np.array([sir for sir, _, _ in results]))


def sample_sir_limit_shadowed(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    shadow_sigma_db: float,
    trials: int,
    seed: int,
    pilot_dim: int | None = None,
    region: str = "hexagon",
    max_tier: int | None = None,
    workers: int | None = None,
    diagnostics: bool = False,
):
    """Shadowed limiting-SIR samples with best-station selection.

    Every user draws independent log-normal shadow gains to all co-channel
    stations and is served by the strongest one, so every interference term
    satisfies (z_j/z_l)^2 (r_l/r_j)^(2 gamma) < 1 by construction; users
    captured by the center station stop interfering (they would be trained
    on the center cell's own orthogonal pilots).

    With shadow_sigma_db = 0 this reproduces sample_sir_limit bit-for-bit
    for equal seeds and regions; shadow_sigma_db > 0 needs the hexagon
    region.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if shadow_sigma_db < 0.0:
        raise ValueError("shadow standard deviation must be >= 0 dB")
    if shadow_sigma_db > 0.0 and region == "circle":
        # best-station selection needs every user's distance to every
        # station; circle users are drawn relative to their own station only
        raise ValueError("shadow_sigma_db > 0 needs region 'hexagon', not 'circle'")
    scn = _cochannel_scenario(geometry, scheme, users_per_cell, pilot_dim, region, max_tier)
    scn = replace(scn, shadow_sigma_db=shadow_sigma_db, collect_shadow_stats=diagnostics)
    results = _run_trials(_shadow_trial, scn, seed, trials, workers)
    samples = np.array([sir for sir, _, _ in results])
    max_term = max((peak for _, _, peak in results if peak is not None), default=0.0)
    if shadow_sigma_db > 0.0 and max_term > 1.0 + 1e-9:
        raise RuntimeError(
            f"interference ratio {max_term} exceeds 1; best-station selection is broken"
        )
    sample_set = SirSampleSet(samples)
    if not diagnostics:
        return sample_set
    tier_sums: dict[int, float] = {}
    for _, per_tier, _ in results:
        for tier, val in per_tier.items():
            tier_sums[tier] = tier_sums.get(tier, 0.0) + val
    total = sum(tier_sums.values())
    shares = {t: v / total for t, v in sorted(tier_sums.items())} if total > 0 else {}
    return sample_set, ShadowDiagnostics(tier_shares=shares, max_interference_ratio=max_term)


def sample_sir_finite_m(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    config: FiniteMConfig,
    trials: int,
    seed: int,
    max_tier: int | None = 1,
    workers: int | None = None,
) -> SirSampleSet:
    """Finite-antenna uplink SINR of the tagged user under pilot-matched
    channel estimation and MRC detection.

    The training resource shrinks with the reuse factor, so the per-cell
    pilot space has dimension pilot_length // reuse_factor and the load
    must satisfy users_per_cell * reuse_factor <= pilot_length.  All cross
    terms are present: contaminating pilots add coherently, every user in
    the co-channel network (own cell included) adds non-coherent
    interference, and the SNRs set the pilot and data noise levels.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scn = _finite_scenario(geometry, scheme, users_per_cell, config, max_tier)
    sinr = _run_trials(_finite_trial, scn, seed, trials, workers)
    return SirSampleSet(np.array([by_load[-1] for by_load in sinr]))


def wilson_interval(failures: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one sample")
    z = _WILSON_Z
    p = failures / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class CapacitySearchResult:
    per_reuse: dict[int, int]
    outage_at_k: dict[int, tuple[float, tuple[float, float]]] = field(repr=False)
    best_reuse: int = 0
    best_k: int = 0


@functools.lru_cache(maxsize=3)
def _sinr_by_load(geometry, scheme, finite_m, max_tier, trials, seed, workers) -> np.ndarray:
    """Read-only (trials, budget) finite-M SINRs at the pilot budget of the
    reuse factor, column k - 1 for load k; memoised across QoS presets."""
    budget = finite_m.pilot_length // geometry.reuse_factor
    sinr = np.empty((trials, 0))
    if budget:
        scn = _finite_scenario(geometry, scheme, budget, finite_m, max_tier)
        _require_defined_sinr(scn, 1)
        sinr = np.array(_run_trials(_finite_trial, scn, seed, trials, workers))
    sinr.flags.writeable = False
    return sinr


def empirical_capacity_search(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    qos: QosTarget,
    trials: int,
    seed: int,
    finite_m: FiniteMConfig = FiniteMConfig(),
    max_tier: int = 1,
    workers: int | None = None,
) -> CapacitySearchResult:
    """Largest per-cell load per reuse factor whose finite-M outage
    P(SINR < S), estimated over all trials, is <= alpha.

    One pass per reuse factor draws every trial at the full pilot budget;
    load k keeps the first k users of each cell, so each load has the law
    of sample_sir_finite_m at k and all loads share the draws (common
    random numbers).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    per_reuse: dict[int, int] = {}
    outage_at_k: dict[int, tuple[float, tuple[float, float]]] = {}
    for w in (1, 3, 7):
        geo = geometry.with_reuse(w)
        sinr = _sinr_by_load(geo, scheme, finite_m, max_tier, trials, seed, workers)
        failures = np.count_nonzero(sinr < qos.min_sir_linear, axis=0)
        admitted = np.flatnonzero(failures / trials <= qos.outage)
        k = int(admitted[-1]) + 1 if admitted.size else 0
        per_reuse[w] = k
        outage_at_k[w] = (math.nan, (math.nan, math.nan))
        if k:
            fails = int(failures[k - 1])
            outage_at_k[w] = (fails / trials, wilson_interval(fails, trials))
    best_w = max(per_reuse, key=lambda w: (per_reuse[w], -w))
    return CapacitySearchResult(per_reuse, outage_at_k, best_w, per_reuse[best_w])
