"""Monte Carlo validation of the analytic capacity pipeline.

Three samplers share one block engine:

* sample_sir_limit        - limiting (large antenna count) SIR where only
                            pilot contamination survives,
* sample_sir_limit_shadowed - the same with log-normal shadowing and
                            best-base-station selection (both run one
                            block evaluator, unshadowed at sigma = 0),
* sample_sir_finite_m     - a finite-antenna MRC link simulator with all
                            intra- and inter-cell cross terms and noise.

Trials run in blocks of _BLOCK: a block draws the user drops, pilot
overlaps, shadowing and fading of all its trials from its own streams.  A
run is a range of consecutive blocks, as many as keep its workspace within
_RUN_BYTES, and an evaluator (_limit_block for the limiting and shadowed
samplers, _finite_block for finite M) is run_fn(scn, seed, blocks, ws,
rows, block_rows): each block draws into its rows of the run's arrays, in
the order a lone block would, and one array pass fills rows, the run's
slice of a trial-ordered output, whose length is the run's trial count.
A call splits its blocks into contiguous parts (see _run_blocks), and each
part owns one workspace (_Workspace), sized by its first and longest run,
in which every run draws and evaluates in place, so a part touches fresh
pages once, not once per run.  Users are placed by sample_circle_position
and sample_hexagon_position; hexagon users are kept in rhombus coordinates
(rhombus_edges) with rho_own, and an evaluator takes rho_ctr off a
per-scenario table: the unshadowed limit terms (r_own / r_ctr)^(2 gamma) =
(rho_own / rho_ctr)^gamma, and every user's amplitude in the finite-M one.

The finite-M simulator never draws the M x N channel matrix: i.i.d.
Rayleigh fading is invariant in law under rotations of the user space, and
rotating along the channel-estimator weights leaves one Gamma(M, 1) draw
and one Gaussian vector over the N users per trial (see _finite_block).  A
trial costs O(N) whatever M is, has the law of the M x N simulation, and
yields the SINR at every per-cell load.  empirical_capacity_search reads the
largest load with outage P(SINR < S) <= alpha off one such pass per reuse
factor, every load on the same draws (common random numbers).  Both pilot
schemes draw the same users and fading, so a different-sets pass fills
both, and its runs turn their SINRs into exact integer failure counts for
every scheme and QoS target asked for (_failure_counts), summed per pass.

Randomness is drawn from counter-based Philox streams keyed by
(seed, block, role) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011).  Every block draws all of its trials, the last one
included, and parts get whole blocks, so results are reproducible
bit-for-bit, a shorter run is a prefix of a longer one, and neither the
parts, the threads or processes that run them, nor the grouping of blocks
into runs changes anything.  All samplers draw users and pilots through
the same block helpers in the same order, which makes paired comparisons
across samplers (same user drops, same pilot collisions) possible by
reusing a seed.  Under reused sets only the same-index user of each cell
contaminates, so the limit samplers draw one user per cell there
(_scenario), and their runs pair with the load-1 runs of the other
samplers.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from ._record import Record
from .geometry import FiniteMConfig, NetworkGeometry, cochannel_cells, equal_area_radius
from .pilots import PilotBook, PilotScheme

_ROLE_POSITIONS = 1
_ROLE_PILOTS = 2
_ROLE_SHADOW = 3
_ROLE_FADING = 4

_BLOCK = 64  # trials per block of streams
# A run holds as many blocks as keep its workspace within _RUN_BYTES: about
# 2^13 finite-M values (on a 2-vCPU x86-64 VM more runs cost a 300-trial
# search pass 3-14%; sir-cdf's limit calls took as long at 5 to 16 blocks).
# Bytes per (trial x (cells + 1) x users) value: the largest workspace after
# one call (reuse 1/3/7, 1-42 users, 1-3 tiers, both schemes), rounded up.
_RUN_BYTES = 1_700_000
_LIMIT_BYTES = 72  # 68.2: four draw arrays, overlaps, rho_ctr and its scratch
_SHADOWED_BYTES = 26  # per candidate station, 25.5: log gains, normals (first dy^2), scratch
_FINITE_BYTES = 140  # 138.3 at k = 1: draws, amp, a, w and two complex term planes
# A call whose one block outgrows _THREAD_BYTES runs on at most _THREADS
# threads, each with one block's workspace (see _run_blocks).  Only two CPUs
# were timed: a 2-vCPU x86-64 VM, where calls whose one block outgrows
# _RUN_BYTES took 0.66-0.83x their serial time.
_THREADS = 2
# Two threads against one on that VM, BLAS threads pinned to one, 6
# alternating pairs in process (ranges over two sets of runs): the fixed-book
# limit call (1.35 MB) 0.61-0.62x, the different-sets limit at k = 42
# (1.35 MB) 0.69-0.78x, the limit at k = 32 (1.03 MB) 0.78-0.84x, finite M at
# w = 1, k = 21 (1.32 MB) 0.71-0.95x and at k = 27 (1.7 MB) 0.78x.  The
# reuse-3 search pass (0.88 MB) read 0.90-1.24x and gained nothing in fresh
# finite-m-table runs, so it stays serial.
_THREAD_BYTES = 1_000_000
# A call runs no more parts, threads or pool processes, than one-block
# workspaces fit _PEAK_BYTES; config bounds a block so that _THREADS fit.
_PEAK_BYTES = 1_400_000_000

_WILSON_Z = 1.959963984540054  # 95% normal quantile
_PLANES = tuple(PilotScheme)  # the SINR planes of _finite_block: reused, then different sets


@functools.cache
def _stream_key_type() -> type:
    """A seed sequence that hands Philox its key as given.

    Philox(key=...) still builds a SeedSequence from OS entropy and then
    discards it; seeding through this type yields the same generator state
    without that cost.  The class is made on first use, so that importing
    mimocap does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return StreamKey


def trial_rng(seed: int, block: int, role: int) -> np.random.Generator:
    """Philox stream for one (seed, block, role) triple: key (seed, 0),
    counter (0, 0, block, role)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    counter = np.array([0, 0, block, role], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_stream_key_type()(key), counter=counter))


class SirSampleSet(Record):
    """SIR realizations (linear scale) for one scenario, in trial order."""

    _fields = ("samples",)  # no __slots__: sorted_samples is cached in __dict__

    def __init__(self, samples: np.ndarray):
        arr = np.asarray(samples, dtype=float)
        if arr.size and not np.all(arr > 0.0):
            raise ValueError("SIR samples must be positive")
        self._set(arr)

    def __len__(self) -> int:
        return int(self.samples.size)

    @functools.cached_property
    def sorted_samples(self) -> np.ndarray:
        return np.sort(self.samples)


class ShadowDiagnostics(NamedTuple):
    """Interference share per tier and the largest interference ratio drawn."""

    tier_shares: dict[int, float]
    max_interference_ratio: float


class _Scenario(NamedTuple):
    """Everything a block needs; immutable, shared by the threads of a call
    and picklable for pool processes."""

    geometry: NetworkGeometry
    centers: np.ndarray  # (n_cells, 2) co-channel cell centers
    # hexagon rhombus tables at [..., 3 * cell + j]: the rhombus_edges v_j,
    # v_(j+1) of every cell, and 2 v.c of each edge v and its cell's center c
    edge_table: np.ndarray  # (2, 2, 3 * n_cells)
    step_table: np.ndarray  # (2, 3 * n_cells)
    tiers: np.ndarray  # (n_cells,) tier index per cell
    users_per_cell: int
    scheme: PilotScheme
    pilot_dim: int
    region: str
    shadow_sigma_db: float
    # finite-M extras: 0 antennas and infinite SNRs in a limit scenario
    antennas: int
    ul_snr: float
    pilot_snr: float
    # optional fixed pilot book (different-sets validation path)
    book_grams: np.ndarray | None  # (n_cells, K, K) |<psi_c, psi_l>|^2

    @property
    def n_cells(self) -> int:
        return int(self.centers.shape[0])

    @property
    def gamma(self) -> float:
        return self.geometry.path_loss_exponent


class _Workspace:
    """The scratch arrays of one part of a sampler call (see _run_blocks).

    ws(name, shape, dtype) is a view of the array of that name, made on
    first use and kept for the part: a part's first run is its longest,
    so every later run draws and evaluates in the same memory instead of
    fresh pages.  A workspace dies with its part, is used by one thread
    only, and no sampler output is a view of it.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}  # the runs of a call repeat their shapes

    def __call__(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            base = self._arrays.get(name)
            if base is None or base.size < size:
                base = self._arrays[name] = np.empty(size, dtype)
            view = self._views[name, shape] = base[:size].reshape(shape)
        return view


def _block_streams(seed: int, blocks: range, role: int):
    """(stream, rows) per block of the run blocks: the block's own role
    stream and its _BLOCK rows of the run's trial axis."""
    for j, block in enumerate(blocks):
        yield trial_rng(seed, block, role), slice(j * _BLOCK, (j + 1) * _BLOCK)


def sample_circle_position(radius_m: float, rngs, size: int, out=None):
    """size uniform draws over a disc from each stream of the sequence rngs,
    returned as arrays (r, theta) of shape (len(rngs), size), row i drawn
    from rngs[i] alone: size uniforms for r, then size for theta.  out, a
    pair of such arrays, receives them in place of new ones.

    Radius density is 2r/b^2, the angle uniform on [0, 2*pi).
    """
    r, theta = out if out is not None else (np.empty((len(rngs), size)) for _ in range(2))
    for rng, r_row, theta_row in zip(rngs, r, theta):
        rng.random(out=r_row)
        rng.random(out=theta_row)
    np.sqrt(r, out=r)
    r *= radius_m
    theta *= 2.0 * math.pi
    return r, theta


def rhombus_edges(cell_radius_m: float) -> np.ndarray:
    """(2, 2, 3) edges of the rhombi of sample_hexagon_position: rhombus j is
    spanned by [0, :, j] = v_j and [1, :, j] = v_(j+1) of the alternate hexagon
    vertices v = (0, a), (sqrt(3) a / 2, -a / 2), (-sqrt(3) a / 2, -a / 2)."""
    a, h = cell_radius_m, math.sqrt(3.0) * cell_radius_m / 2.0
    x, y = [0.0, h, -h], [a, -a / 2.0, -a / 2.0]
    return np.array([[x, y], [x[1:] + x[:1], y[1:] + y[:1]]])


def sample_hexagon_position(geometry: NetworkGeometry, rngs, size: int, out=None):
    """size uniform draws over the hexagonal cell with the hole disc excluded,
    from each stream of the sequence rngs, in rhombus coordinates.

    The hexagon is three equal rhombi: rhombus j holds the points
    s v_j + t v_(j+1), s and t in [0, 1), of rhombus_edges, which lie
    rho = a^2 (s^2 - s t + t^2) squared from the cell center (the edges meet
    at 120 degrees).  A draw picks a rhombus uniformly and a uniform point
    inside it, and only points in the hole are redrawn: the integer part of
    3 u picks the rhombus, and the exact fractional part is s.  Stream i
    draws (2, size) uniforms, then (2, p) for the p draws of its row that
    fell in the hole, and so on; the redraw rounds run across all streams at
    once.  Returns arrays (j, s, t, rho) of shape (len(rngs), size), row i
    drawn from rngs[i] alone; out, four such arrays, receives them instead.
    """
    a2 = geometry.cell_radius_m**2
    hole2 = geometry.hole_radius_m**2

    def rhombus_coordinates(s, t, j, rho):  # s * 3 becomes j + s, in place
        s *= 3.0
        j[...] = s
        s -= j
        np.multiply(np.subtract(s, t, out=rho), s, out=rho)
        rho += t * t
        rho *= a2

    dtypes = (np.intp, float, float, float)
    j, s, t, rho = out if out is not None else (np.empty((len(rngs), size), d) for d in dtypes)
    for rng, s_row, t_row in zip(rngs, s, t):  # (2, size) uniforms per stream
        rng.random(out=s_row)
        rng.random(out=t_row)
    rhombus_coordinates(s, t, j, rho)
    pending = np.flatnonzero(rho < hole2)  # stream-major, as drawn
    while pending.size:
        counts = np.bincount(pending // size, minlength=len(rngs))
        s_new, t_new = np.concatenate([rng.random((2, c)) for rng, c in zip(rngs, counts) if c], 1)
        j_new, rho_new = np.empty(pending.size, np.intp), np.empty(pending.size)
        rhombus_coordinates(s_new, t_new, j_new, rho_new)
        for array, new in zip((j, s, t, rho), (j_new, s_new, t_new, rho_new)):
            array.flat[pending] = new
        pending = pending[rho_new < hole2]
    return j, s, t, rho


def _draw_users(scn: _Scenario, seed: int, blocks: range, ws: _Workspace, rows):
    """User drops (role 1) and pilot overlaps (role 2) of the run blocks.

    Returns (users, phi) for the trials of the output rows, views of ws of
    shape (len(rows), n_cells, users_per_cell): sample_hexagon_position's
    (j + 3 * cell, s, t, rho_own), or (r, theta) about the own station for
    circles (see _squared_distances), and the overlaps |<psi, psi_tagged>|^2
    (None under reused sets, where only the same-index user of each cell
    collides, fully).  Every block draws all _BLOCK trials from its own
    streams, so a shorter run is a prefix of a longer one.
    """
    n, k, count = scn.n_cells, scn.users_per_cell, len(rows)
    shape = (len(blocks) * _BLOCK, n, k)
    rngs = [rng for rng, _ in _block_streams(seed, blocks, _ROLE_POSITIONS)]
    if scn.region == "circle":  # the analytic disc density about the own station
        users = ws("r", shape), ws("theta", shape)
        per_block = tuple(u.reshape(len(blocks), -1) for u in users)
        b = equal_area_radius(scn.geometry.cell_radius_m)
        sample_circle_position(b, rngs, _BLOCK * n * k, out=per_block)
    else:
        users = ws("rhombus", shape, np.intp), ws("s", shape), ws("t", shape), ws("rho", shape)
        per_block = tuple(u.reshape(len(blocks), -1) for u in users)
        sample_hexagon_position(scn.geometry, rngs, _BLOCK * n * k, out=per_block)
        users[0][:count] += np.arange(0, 3 * n, 3)[:, None]  # 3 * cell + j
    users = tuple(u[:count] for u in users)
    phi = None
    if scn.scheme is PilotScheme.DIFFERENT_SETS:
        phi = _draw_overlaps(scn, seed, blocks, ws)[:count]
    return users, phi


def _squared_distances(scn: _Scenario, users, ws: _Workspace):
    """Squared distances (rho_own, rho_ctr), views of ws, of users as
    _draw_users returns them, or a slice of the users, to their own and to
    the center station."""
    rho_ctr = ws("rho_ctr", users[1].shape)
    if scn.region == "circle":
        # law of cosines about the own station, d away from the center one:
        # (rho_own + d^2) - (2 d r) cos(theta)
        r, theta = users
        d = np.hypot(scn.centers[:, 0], scn.centers[:, 1])[:, None]
        rho_own = np.multiply(r, r, out=ws("rho_own", r.shape))
        cross = np.cos(theta, out=ws("cross", r.shape))
        cross *= np.multiply(2.0 * d, r, out=rho_ctr)  # rho_ctr is formed below
        np.add(rho_own, d * d, out=rho_ctr)
        rho_ctr -= cross
        return rho_own, rho_ctr
    # |p + c|^2 = (s 2 v_j.c + t 2 v_(j+1).c + |c|^2) + rho_own at p = s v_j
    # + t v_(j+1), in the order that rounds least (2.3 ulps, as x^2 + y^2)
    index, s, t, rho_own = users
    np.take(scn.step_table[0], index, out=rho_ctr, mode="clip")
    rho_ctr *= s
    step = np.take(scn.step_table[1], index, out=ws("step", s.shape), mode="clip")
    rho_ctr += np.multiply(step, t, out=step)
    rho_ctr += (scn.centers**2).sum(axis=1)[:, None]
    rho_ctr += rho_own
    return rho_own, rho_ctr


def _draw_overlaps(scn: _Scenario, seed: int, blocks: range, ws: _Workspace):
    """Different-sets pilot overlaps of every interferer of the run blocks,
    (len(blocks) * _BLOCK, n_cells, users_per_cell) in ws, each block from
    its role-2 stream.

    With a fixed book, each trial draws the tagged user's column and, per
    cell, a uniform assignment of columns to users, and reads the overlaps
    off the book's Gram matrices.  Otherwise pilots are fresh Haar books:
    the overlaps of one cell are the squared moduli of the first
    users_per_cell coordinates of a uniform unit vector of C^pilot_dim,
    which are Dirichlet(1, ..., 1), so they are drawn as that many unit
    exponentials over their sum plus a Gamma(pilot_dim - users_per_cell)
    remainder.
    """
    n, k = scn.n_cells, scn.users_per_cell
    phi = ws("phi", (len(blocks) * _BLOCK, n, k))
    streams = _block_streams(seed, blocks, _ROLE_PILOTS)
    if scn.book_grams is not None:
        dim = scn.book_grams.shape[-1]
        grams = scn.book_grams.reshape(-1)
        cols = ws("cols", (_BLOCK, n, dim), np.intp)
        template = np.broadcast_to(np.arange(dim), cols.shape)
        index = ws("gram_index", (_BLOCK, n, k), np.intp)
        cell_offset = np.arange(0, n * dim * dim, dim * dim)[:, None]
        for rng, rows in streams:
            tagged = rng.integers(dim, size=_BLOCK)
            rng.permuted(template, axis=2, out=cols)
            # flat index of book_grams[cell, tagged, column]
            np.add(cols[:, :, :k], (tagged * dim)[:, None, None], out=index)
            index += cell_offset
            np.take(grams, index, out=phi[rows], mode="clip")
        return phi
    rest = ws("rest", (len(blocks) * _BLOCK, n, 1))
    for rng, rows in streams:
        rng.standard_exponential(out=phi[rows])
        if scn.pilot_dim > k:  # Gamma(0) is 0 and draws nothing
            rng.standard_gamma(scn.pilot_dim - k, out=rest[rows])
    total = phi.sum(axis=2, keepdims=True, out=ws("phi_total", rest.shape))
    if scn.pilot_dim > k:
        total += rest
    phi /= total
    return phi


def _limit_block(scn: _Scenario, seed: int, blocks: range, ws, sir, stats):
    """Limiting SIR of the run blocks into sir, one per trial, shadowed when
    scn.shadow_sigma_db > 0.

    stats has one row per block: if it has columns, column 0 receives the
    largest interference ratio of a contaminating user, and columns 1 ..
    n_cells, if present, the per-cell interference summed over the block's
    trials.
    """
    users, phi = _draw_users(scn, seed, blocks, ws, sir)
    if scn.shadow_sigma_db > 0.0:
        ratio = _shadowed_ratio(scn, users, seed, blocks, ws)
    else:
        # No shadowing: nearest-station service keeps every user on its own
        # cell, and the terms are the unshadowed power-control ratios
        # (r_own / r_ctr)^(2 gamma) = (rho_own / rho_ctr)^gamma, in rho_own.
        ratio, rho_ctr = _squared_distances(scn, users, ws)
        ratio /= rho_ctr
        ratio **= scn.gamma
    # contaminating terms at the center station: the one user of each cell
    # under reused sets, every user weighted by its overlap otherwise
    terms = ratio if phi is None else np.multiply(phi, ratio, out=phi)
    terms.sum(axis=(1, 2), out=sir)
    with np.errstate(divide="ignore"):  # no interference: infinite SIR
        np.divide(1.0, sir, out=sir)
    if not stats.shape[1]:
        return
    for b, s in enumerate(range(0, len(sir), _BLOCK)):
        stats[b, 0] = ratio[s : s + _BLOCK].max() if ratio.size else 0.0
        if stats.shape[1] > 1:
            terms[s : s + _BLOCK].sum(axis=(0, 2), out=stats[b, 1:])


def _shadowed_ratio(scn: _Scenario, users, seed: int, blocks: range, ws):
    """(beta_center / beta_serving)^2 per user of users (as _draw_users
    returns them for hexagons), in ws, under log-normal shadowing (role 3)
    and best-station selection, 0 for users the center station serves.

    Gains beta = 10^(z/10) r^-gamma go to every candidate station, 0 the
    center one and 1 + l co-channel cell l; they are compared in the log
    domain on one station-major (n_cells + 1, trials, n_cells, users) array,
    so the best station is an elementwise maximum over its leading axis.
    The shadow normals are drawn in (trial, cell, user, station) order.
    """
    index, s, t, _rho = users
    shape = s.shape  # (trials, n_cells, users_per_cell)
    n = scn.n_cells
    # the users' positions c + s v_j + t v_(j+1) about the center station,
    # then their squared distances to each station
    user = np.take(scn.edge_table[0], index, axis=1, out=ws("user", (2, *shape)), mode="clip")
    user *= s
    step = np.take(scn.edge_table[1], index, axis=1, out=ws("step", user.shape), mode="clip")
    user += np.multiply(step, t, out=step)
    user += scn.centers.T[:, None, :, None]
    stations = np.vstack(([0.0, 0.0], scn.centers)).T[:, :, None, None, None]
    log_gain = np.subtract(user[0], stations[0], out=ws("log_gain", (n + 1, *shape)))
    log_gain *= log_gain
    z = ws("z", (len(blocks) * _BLOCK, *shape[1:], n + 1))
    dy2 = np.subtract(user[1], stations[1], out=ws("z", log_gain.shape))  # before the normals
    dy2 *= dy2
    log_gain += dy2
    np.log(log_gain, out=log_gain)
    log_gain *= -scn.gamma / 2.0
    for rng, rows in _block_streams(seed, blocks, _ROLE_SHADOW):
        rng.standard_normal(out=z[rows])
    z = z[: shape[0]]
    z *= scn.shadow_sigma_db * math.log(10.0) / 10.0
    log_gain += np.moveaxis(z, 3, 0)
    best = np.maximum.reduce(log_gain, axis=0, out=ws("best", shape))
    center = log_gain[0]
    handed = center == best  # over to the center station
    ratio = np.subtract(center, best, out=best)
    ratio *= 2.0
    np.exp(ratio, out=ratio)
    ratio[handed] = 0.0
    return ratio


def _finite_block(scn: _Scenario, seed: int, blocks: range, ws, sinr, stats):
    """Tagged-user SINR of the run blocks at every load 1..users_per_cell,
    where load k keeps the first k users of each cell, into sinr (trials,
    planes, users_per_cell), column k - 1 for load k; stats is not used.
    Plane 0 is always reused sets; a different-sets scenario adds plane 1,
    different sets, on the same users and fading (the order of _PLANES)."""
    users, phi = _draw_users(scn, seed, blocks, ws, sinr)
    rho_own, rho_ctr = _squared_distances(scn, users, ws)
    n, k, count = scn.n_cells, scn.users_per_cell, len(sinr)
    n_users = (n + 1) * k
    shape = (count, n + 1, k)
    different = scn.scheme is PilotScheme.DIFFERENT_SETS

    # ULPC effective channel amplitude at the center station is
    # sqrt(beta_center / beta_own); beta = r^-gamma is a power gain, so the
    # coherent interference scales as amp^4 = (r_own / r_center)^(2 gamma),
    # matching the limiting SIR terms.  Cell 0 is the center cell.
    amp = ws("amp", shape)
    amp[:, 0] = 1.0
    interferer_amp = np.divide(rho_own, rho_ctr, out=amp[:, 1:])
    interferer_amp **= scn.gamma / 4.0

    # pilot-matched-filter weights a = c * amp: own-cell pilots are
    # orthogonal, so only the tagged user survives from the center cell, and
    # an interferer enters with the modulus sqrt(phi) of its pilot overlap,
    # 1 for the same-index user and 0 for the others under reused sets.
    #
    # The estimate is ghat = H a over the M x (N+1) channel H with i.i.d.
    # CN(0, 1) entries, a holding one more pilot-noise column of weight
    # 1/sqrt(tau * SNR_p).  The law of H does not change under a unitary
    # rotation of the user space; rotating along u = a/|a| gives ghat = |a| z
    # with z ~ CN(0, I_M) and h_i^H ghat = |a| |z| (a_i g + w_i),
    # g = (|z| - u^H w) / |a|, w ~ CN(0, I_{N+1}) independent of
    # |z|^2 ~ Gamma(M, 1).  |a|^2 |z|^2 = |ghat|^2 cancels from the SINR, so
    # a trial costs O(N) whatever M is (Marzetta, IEEE TWC 2010); w also
    # absorbs the pilot phases, so real weights have the same law.  Load k
    # keeps a and w of its users only: the sums over users are prefix sums
    # over the in-cell index, and the denominator, summed over interferers,
    # is sum amp^2 |a g + w|^2 = |g|^2 A + 2 Re(g conj(B)) + C.
    noisy = math.isfinite(scn.pilot_snr)
    z_norm = ws("z_norm", (len(blocks) * _BLOCK, 1))
    w = ws("w", (len(blocks) * _BLOCK, 2 * (n_users + noisy)))
    for rng, rows in _block_streams(seed, blocks, _ROLE_FADING):
        rng.standard_gamma(scn.antennas, out=z_norm[rows, 0])
        rng.standard_normal(out=w[rows])
    z_norm = np.sqrt(z_norm[:count], out=z_norm[:count])
    w = w[:count].view(complex)
    w *= math.sqrt(0.5)
    w_users = w[:, :n_users].reshape(shape)
    a_noise = 1.0 / math.sqrt(scn.pilot_dim * scn.pilot_snr)  # 0 without pilot noise
    w_noise = w[:, n_users] if noisy else 0.0
    # Reused sets: a is amp in slab 0 (in-cell index 0) and 0 elsewhere, so
    # the sums do not grow with the load.  Cumulative sums add the cells in
    # turn, as a full-array sum over the cells does at k > 1.
    amp0, w0 = amp[:, :, 0], w_users[:, :, 0]
    slab0 = [amp0 * amp0, amp0 * w0]
    slab0 += [slab0[0] * slab0[0], slab0[1] * slab0[0]]
    slab0[2][:, 0] = slab0[3][:, 0] = 0.0  # the tagged user is no interferer
    norm2, proj, big_a, big_b = (np.cumsum(t, axis=1)[:, -1] for t in slab0)
    norm2 += a_noise**2
    proj += a_noise * w_noise
    # (sinr plane, |a|^2, proj, A, B), the sums over the users
    planes = [(sinr[:, 0], *(t[:, None] for t in (norm2, proj, big_a, big_b)))]
    if different:
        a = ws("a", shape)
        a[:, 0] = 0.0
        a[:, 0, 0] = 1.0
        interferer_a = np.sqrt(phi, out=a[:, 1:])
        interferer_a *= interferer_amp
    weight = np.multiply(amp, amp, out=amp)  # amp is not read again
    weight[:, 0, 0] = 0.0  # the tagged user is no interferer
    # Plane 0 holds C's terms as real parts and |a|^2 as imaginary ones, so
    # one complex sum over the cells yields both, in a complex sum's order
    # (pairwise at k = 1), which the different-sets outputs keep; plane 1
    # holds a w.
    terms = ws("terms", (1 + different, *shape), complex)
    c_terms, a2 = terms[0].real, terms[0].imag
    np.square(w_users.real, out=c_terms)
    c_terms += np.square(w_users.imag, out=a2)
    c_terms *= weight
    if different:
        np.multiply(a, a, out=a2)
        np.multiply(a, w_users, out=terms[1])
    else:
        a2[...] = 0.0
    sums = terms.sum(axis=2, out=ws("sums", (1 + different, count, k), complex))
    # what every load shares goes into load 1 before the prefix sums
    sums[0, :, 0] += 1.0 / scn.ul_snr + 1j * a_noise**2
    if different:
        sums[1, :, 0] += a_noise * w_noise
        np.multiply(a2, weight, out=c_terms)  # C is summed; A's terms
        terms[1] *= weight  # B's terms
        weighted = terms.sum(axis=2, out=ws("weighted", sums.shape, complex))
        np.cumsum(weighted, axis=2, out=weighted)
        planes.append((sinr[:, 1], sums[0].imag, sums[1], weighted[0].real, weighted[1]))
    np.cumsum(sums, axis=2, out=sums)
    big_c = sums[0].real
    # (count, k) values from here on, a per-trial share of the arrays above;
    # reused sets take their share of the denominator once per trial
    for out, norm2, proj, big_a, big_b in planes:
        g = (z_norm * np.sqrt(norm2) - proj) / norm2  # proj = |a| u^H w
        num = np.abs(g + w[:, :1]) ** 2  # a = amp = 1 for the tagged user
        den = (g.real**2 + g.imag**2) * big_a + 2.0 * (g * big_b.conj()).real + big_c
        out[...] = math.inf
        np.divide(num, den, out=out, where=den > 0.0)


def _block_bytes(scn: _Scenario) -> int:
    """Workspace bytes of one block of the scenario's evaluator."""
    per_value = _FINITE_BYTES if scn.antennas else _LIMIT_BYTES
    if scn.shadow_sigma_db > 0.0:
        per_value = _SHADOWED_BYTES * (scn.n_cells + 1)  # per candidate station
    return _BLOCK * (scn.n_cells + 1) * scn.users_per_cell * per_value


def _run_length(scn: _Scenario) -> int:
    """Blocks per run: as many as keep the evaluator's workspace within
    _RUN_BYTES, and at least one."""
    return max(1, _RUN_BYTES // _block_bytes(scn))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_part(run_fn, scn: _Scenario, seed: int, blocks: range, rows, block_rows):
    """run_fn over the range blocks in runs, in block order, with one
    workspace, into rows, the rows of their trials, and block_rows."""
    per_run = _run_length(scn)
    ws = _Workspace()
    for i in range(0, len(blocks), per_run):
        run = slice(i, i + per_run)
        run_fn(scn, seed, blocks[run], ws, rows[i * _BLOCK : run.stop * _BLOCK], block_rows[run])


def _run_worker(args):
    """_run_part in a pool process; returns the rows it filled."""
    run_fn, scn, seed, trials, blocks, row_shape, block_width = args
    rows = np.empty((min(blocks.stop * _BLOCK, trials) - blocks.start * _BLOCK, *row_shape))
    block_rows = np.empty((len(blocks), block_width))
    _run_part(run_fn, scn, seed, blocks, rows, block_rows)
    return rows, block_rows


def _run_blocks(
    run_fn, scn: _Scenario, seed: int, trials: int, workers, row_shape=(), block_width=0
):
    """run_fn(scn, seed, blocks, ws, rows, block_rows) for runs of
    consecutive blocks of _BLOCK trials covering [0, trials), in block
    order: blocks is the run's range of block indices, rows the rows of its
    trials in the (trials, *row_shape) output, block_rows its rows in the
    (blocks, block_width) per-block output, and ws the workspace of its
    part.  Both outputs are returned.

    The blocks are split into contiguous parts, at most one per block and
    at most as many as one-block workspaces fit in _PEAK_BYTES.  At workers
    n >= 2 there is one part per pool process, min(n, usable CPUs).
    Otherwise a call has one part, or, where one block's workspace exceeds
    _THREAD_BYTES, one per usable CPU up to _THREADS: part 0 on the calling
    thread and the others on helper threads (the Philox fills and the large
    array passes of such blocks release the GIL).  Every draw and every
    evaluated trial depends on its block alone, so the output depends
    neither on the parts nor on the grouping into runs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 2**64:  # trial_rng keeps the low 64 bits, the Philox key
        raise ValueError("seed must lie in [0, 2^64)")
    blocks = range(-(-trials // _BLOCK))
    n = len(blocks)
    block_bytes = _block_bytes(scn)
    most = min(n, max(1, _PEAK_BYTES // block_bytes))  # parts
    pooled = workers is not None and workers > 1
    if pooled:
        count = min(workers, _usable_cpus(), most)
    else:
        count = min(_usable_cpus(), _THREADS, most) if block_bytes > _THREAD_BYTES else 1
    parts = [blocks[i * n // count : (i + 1) * n // count] for i in range(count)]
    if pooled and count > 1:
        # imported here, not at module level: most calls run serially, and the
        # import would cost every CLI start
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(run_fn, scn, seed, trials, part, row_shape, block_width) for part in parts]
        with ProcessPoolExecutor(max_workers=count) as pool:
            rows, block_rows = zip(*pool.map(_run_worker, tasks))
        return np.concatenate(rows), np.concatenate(block_rows)
    rows = np.empty((trials, *row_shape))
    block_rows = np.empty((n, block_width))

    def run(part):
        out = rows[part.start * _BLOCK : part.stop * _BLOCK], block_rows[part.start : part.stop]
        _run_part(run_fn, scn, seed, part, *out)

    errors = [None] * count

    def run_helper(i):
        try:
            run(parts[i])
        except BaseException as exc:  # raised again in the caller after the join
            errors[i] = exc

    # each helper runs in a copy of the caller's context, numpy's error state included
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(run_helper, i))
        for i in range(1, count)
    ]
    for helper in helpers:
        helper.start()
    try:
        run(parts[0])
    finally:
        for helper in helpers:
            helper.join()
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        errors.clear()  # so that the traceback, through this frame, holds no cycle
        try:
            raise error
        finally:
            del error
    return rows, block_rows


def _scenario(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    max_tier: int,
    pilot_dim: int | None = None,
    region: str = "hexagon",
    shadow_sigma_db: float = 0.0,
    book: PilotBook | None = None,
    finite_m: FiniteMConfig | None = None,
    load: int | None = None,
) -> _Scenario:
    """The checked scenario of one sampler call: users_per_cell users in
    each cell of cochannel_cells(geometry, max_tier).

    finite_m makes it a finite-M scenario (a per-cell pilot space of
    pilot_length // reuse_factor, linear SNRs) whose SINR at the per-cell
    load `load` must be defined.  Without it, under reused sets only the
    same-index user of each cell contaminates, so after the load check the
    scenario holds one user per cell.
    """
    if shadow_sigma_db < 0.0:
        raise ValueError("shadow standard deviation must be >= 0 dB")
    if shadow_sigma_db > 0.0 and region == "circle":
        # best-station selection needs every user's distance to every
        # station; circle users are drawn relative to their own station only
        raise ValueError("shadow_sigma_db > 0 needs region 'hexagon', not 'circle'")
    if users_per_cell < 1:
        raise ValueError("users_per_cell must be >= 1")
    if region not in ("hexagon", "circle"):
        raise ValueError(f"unknown sampling region {region!r}")
    antennas, ul_snr, pilot_snr = 0, math.inf, math.inf
    if finite_m is not None:
        w = geometry.reuse_factor
        if users_per_cell * w > finite_m.pilot_length:
            raise ValueError(
                f"pilot budget infeasible: {users_per_cell} users need "
                f"{users_per_cell * w} of {finite_m.pilot_length} training dimensions"
            )
        pilot_dim = finite_m.pilot_length // w
        antennas = finite_m.antennas
        ul_snr, pilot_snr = (
            math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
            for snr_db in (finite_m.ul_snr_db, finite_m.pilot_snr_db)
        )
    if pilot_dim is None:
        if scheme is PilotScheme.DIFFERENT_SETS:
            raise ValueError("different-sets sampling needs the pilot dimension")
        pilot_dim = users_per_cell
    if users_per_cell > pilot_dim:
        raise ValueError(f"cannot admit {users_per_cell} users on {pilot_dim} pilot sequences")
    cells = cochannel_cells(geometry, max_tier)
    # Pilot noise only perturbs the estimate; the SINR denominator holds
    # interference and data noise alone.
    if not cells and load == 1 and ul_snr == math.inf:
        raise ValueError("SINR is undefined with no interferers and no data noise")
    if finite_m is None and scheme is PilotScheme.REUSED_SETS:
        users_per_cell = 1
    book_grams = None
    if book is not None and scheme is PilotScheme.DIFFERENT_SETS:
        if book.sequence_length < users_per_cell:
            raise ValueError("pilot book is too short for the per-cell load")
        if book.cell_count < len(cells) + 1:
            raise ValueError("pilot book does not cover every co-channel cell")
        book_grams = np.abs(book.matrices[0].conj().T @ book.matrices[1 : len(cells) + 1]) ** 2
    centers = np.array([c.center for c in cells]).reshape(-1, 2)
    edges = rhombus_edges(geometry.cell_radius_m).take(range(3 * len(cells)), axis=2, mode="wrap")
    return _Scenario(
        geometry=geometry,
        centers=centers,
        edge_table=edges,
        step_table=(edges * centers.T.repeat(3, axis=1)).sum(axis=1) * 2.0,
        tiers=np.array([c.tier for c in cells], dtype=int),
        users_per_cell=users_per_cell,
        scheme=scheme,
        pilot_dim=pilot_dim,
        region=region,
        shadow_sigma_db=shadow_sigma_db,
        antennas=antennas,
        ul_snr=ul_snr,
        pilot_snr=pilot_snr,
        book_grams=book_grams,
    )


def sample_sir_limit(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    trials: int,
    seed: int,
    pilot_dim: int | None = None,
    pilot_book: PilotBook | None = None,
    region: str = "hexagon",
    max_tier: int = 3,
    workers: int | None = None,
) -> SirSampleSet:
    """Limiting-SIR samples: per trial, drop users in every cell of
    cochannel_cells(geometry, max_tier), draw pilot collisions per scheme,
    and evaluate the contamination-only SIR under uplink power control.
    The default of 3 tiers holds 18 co-channel cells at every reuse factor.

    pilot_book fixes the different-sets pilot matrices across trials (only
    the column assignment is redrawn); by default pilots are redrawn every
    trial, matching the analytic averaging over the Haar measure.
    """
    scn = _scenario(geometry, scheme, users_per_cell, max_tier, pilot_dim, region, book=pilot_book)
    sir, _ = _run_blocks(_limit_block, scn, seed, trials, workers)
    return SirSampleSet(sir)


def sample_sir_limit_shadowed(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    shadow_sigma_db: float,
    trials: int,
    seed: int,
    pilot_dim: int | None = None,
    region: str = "hexagon",
    max_tier: int = 3,
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
    for equal seeds, regions and max_tier (both default to 3 tiers);
    shadow_sigma_db > 0 needs the hexagon region.
    """
    scn = _scenario(geometry, scheme, users_per_cell, max_tier, pilot_dim, region, shadow_sigma_db)
    # per block: the largest interference ratio, then the per-cell sums
    width = 1 + scn.n_cells if diagnostics else 1
    sir, stats = _run_blocks(_limit_block, scn, seed, trials, workers, block_width=width)
    max_term = float(stats[:, 0].max())
    if shadow_sigma_db > 0.0 and max_term > 1.0 + 1e-9:
        raise RuntimeError(
            f"interference ratio {max_term} exceeds 1; best-station selection is broken"
        )
    sample_set = SirSampleSet(sir)
    if not diagnostics:
        return sample_set
    per_cell = sum(stats[:, 1:])  # block by block, in block order
    tiers = np.unique(scn.tiers)
    tier_sums = [float(per_cell[scn.tiers == t].sum()) for t in tiers]
    total = sum(tier_sums)
    shares = {int(t): v / total for t, v in zip(tiers, tier_sums)} if total > 0 else {}
    return sample_set, ShadowDiagnostics(tier_shares=shares, max_interference_ratio=max_term)


def sample_sir_finite_m(
    geometry: NetworkGeometry,
    scheme: PilotScheme,
    users_per_cell: int,
    config: FiniteMConfig,
    trials: int,
    seed: int,
    max_tier: int = 1,
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
    k, plane = users_per_cell, _PLANES.index(scheme)
    scn = _scenario(geometry, scheme, k, max_tier, finite_m=config, load=k)
    by_load, _ = _run_blocks(_finite_block, scn, seed, trials, workers, (plane + 1, k))
    return SirSampleSet(by_load[:, plane, -1].copy())


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


class CapacitySearchResult(NamedTuple):
    """Admitted load per (scheme, target index, reuse factor), its outage
    with the Wilson interval under the same key, and the best (reuse factor,
    load) per (scheme, target index)."""

    per_reuse: dict[tuple[PilotScheme, int, int], int]
    outage_at_k: dict[tuple[PilotScheme, int, int], tuple[float, tuple[float, float]]]
    best: dict[tuple[PilotScheme, int], tuple[int, int]]


def _failure_counts(thresholds, scn: _Scenario, seed: int, blocks: range, ws, rows, counts):
    """_finite_block over the run blocks, then per block the trials whose
    SINR falls below each linear threshold: counts (blocks, thresholds x
    planes x users_per_cell), ordered (threshold, plane, load); rows only
    gives the run's trial count.  The SINRs, about 30 kB a run on one tier,
    live outside the workspace, as _finite_block's per-load arrays do."""
    sinr = np.empty((len(rows), _PLANES.index(scn.scheme) + 1, scn.users_per_cell))
    _finite_block(scn, seed, blocks, ws, sinr, counts)
    short = sinr.reshape(len(rows), 1, -1) < np.reshape(thresholds, (-1, 1))
    starts = np.arange(0, len(rows), _BLOCK)
    np.add.reduceat(short, starts, dtype=float, out=counts.reshape(len(counts), *short.shape[1:]))


def empirical_capacity_search(
    geometry: NetworkGeometry,
    schemes,
    targets,
    trials: int,
    seed: int,
    finite_m: FiniteMConfig = FiniteMConfig(),
    max_tier: int = 1,
    workers: int | None = None,
) -> CapacitySearchResult:
    """Largest per-cell load per reuse factor whose finite-M outage
    P(SINR < S), estimated over all trials, is <= alpha, for every pilot
    scheme of schemes and QoS target of targets (sequences).

    One pass per reuse factor draws every trial at the full pilot budget;
    load k keeps the first k users of each cell, so each load has the law
    of sample_sir_finite_m at k, and all loads, targets and schemes share
    the draws (common random numbers).  A different-sets pass fills both
    schemes; a search for reused sets alone draws no pilot overlaps.
    """
    scheme = max(schemes, key=_PLANES.index)  # different sets fill both planes
    count = functools.partial(_failure_counts, tuple(q.min_sir_linear for q in targets))
    per_reuse, outage_at_k, best = {}, {}, {}
    for w in (1, 3, 7):
        budget = finite_m.pilot_length // w
        failures = np.zeros((len(targets), _PLANES.index(scheme) + 1, budget))
        if budget:
            scn = _scenario(geometry.with_reuse(w), scheme, budget, max_tier, finite_m=finite_m, load=1)
            _, per_block = _run_blocks(count, scn, seed, trials, workers, (0,), failures.size)
            failures = per_block.sum(axis=0).reshape(failures.shape)
        for s in schemes:
            for i, qos in enumerate(targets):
                fails = failures[i, _PLANES.index(s)]
                admitted = np.flatnonzero(fails / trials <= qos.outage)
                k = per_reuse[s, i, w] = int(admitted[-1]) + 1 if admitted.size else 0
                outage_at_k[s, i, w] = (math.nan, (math.nan, math.nan))
                if k:
                    f = int(fails[k - 1])
                    outage_at_k[s, i, w] = (f / trials, wilson_interval(f, trials))
                if k > best.setdefault((s, i), (w, k))[1]:  # the smallest w of the largest k
                    best[s, i] = (w, k)
    return CapacitySearchResult(per_reuse, outage_at_k, best)
