"""The O(N) finite-M sampler against a brute-force M x N oracle.

`brute_force_block` draws the full fading matrix and the pilot-noise vector
of every trial and forms |h_i^H ghat|^2 and |ghat|^2 directly, as the
sampler did before it used the rotation identity.  It draws positions and
pilots through the sampler's block helpers and takes distances with
np.hypot, so the two differ only in how fading and pilot noise are drawn
and in how distances are rounded.  Seeds are unpaired: the comparison is of
laws, not of shared user drops.  The sampler is checked at its own load,
and every load of the capacity search's full-budget pass against the k-user
oracle.
"""

import math

import numpy as np

from hexagon_points import rhombus_xy
from law_checks import law_failures
from search_pass import full_budget_pass
from mimocap.pilots import PilotScheme
from mimocap.simulate import (
    _BLOCK,
    _PLANES,
    _ROLE_FADING,
    FiniteMConfig,
    _draw_users,
    _run_blocks,
    _scenario,
    sample_sir_finite_m,
    trial_rng,
)

_ROLE_NOISE = 5  # the oracle's own pilot-noise stream; the sampler has none


def brute_force_block(scn, seed: int, blocks: range, ws, sinr, stats):
    """Oracle SINRs of a run of blocks into sinr, in the sampler's evaluator
    signature; distances by np.hypot, and per block its own fading and noise
    streams."""
    users, phi = _draw_users(scn, seed, blocks, ws, sinr)
    xs, ys = rhombus_xy(scn.geometry.cell_radius_m, users)
    r_own = np.hypot(xs, ys)
    r_ctr = np.hypot(xs + scn.centers[:, 0][:, None], ys + scn.centers[:, 1][:, None])
    for t in range(len(sinr)):
        if t % _BLOCK == 0:
            rng_fad = trial_rng(seed, blocks[t // _BLOCK], _ROLE_FADING)
            rng_noise = trial_rng(seed, blocks[t // _BLOCK], _ROLE_NOISE)
        trial_phi = None if phi is None else phi[t]
        sinr[t] = brute_force_trial(scn, r_own[t], r_ctr[t], trial_phi, rng_fad, rng_noise)


def brute_force_trial(scn, r_own, r_ctr, phi, rng_fad, rng_noise) -> float:
    n, k, m = scn.n_cells, scn.users_per_cell, scn.antennas
    n_users = (n + 1) * k

    amp = np.empty(n_users, dtype=np.float32)
    amp[:k] = 1.0
    amp[k:] = ((r_own / r_ctr) ** (scn.gamma / 2.0)).ravel()

    c = np.zeros(n_users, dtype=np.complex64)
    c[0] = 1.0
    if phi is None:
        c[k + np.arange(n) * k] = 1.0
    else:
        c[k:] = np.sqrt(phi).astype(np.complex64).ravel()

    h = rng_fad.standard_normal(size=(n_users, 2 * m), dtype=np.float32).view(np.complex64)
    h *= np.float32(math.sqrt(0.5))

    # einsum instead of BLAS matrix products keeps the oracle on one thread
    # (BLAS threads stall on a shared CPU); only the summation order differs
    ghat = np.einsum("i,im->m", c * amp, h)
    if math.isfinite(scn.pilot_snr):
        npil = rng_noise.standard_normal(size=2 * m, dtype=np.float32).view(np.complex64)
        npil *= np.float32(math.sqrt(0.5))
        ghat = ghat + npil / np.float32(math.sqrt(scn.pilot_dim * scn.pilot_snr))

    dots = np.abs(np.einsum("im,m->i", h, np.conj(ghat))).astype(np.float64) ** 2
    dots *= amp.astype(np.float64) ** 2
    num = dots[0]
    den = float(dots[1:].sum())
    if math.isfinite(scn.ul_snr):
        den += float(np.vdot(ghat, ghat).real) / scn.ul_snr
    return num / den


def brute_force(scn, seed: int, trials: int) -> np.ndarray:
    return _run_blocks(brute_force_block, scn, seed, trials, None)[0]


TRIALS = 400
SEED = 4100
# (scheme, w, k, M, (UL SNR dB, pilot SNR dB)).  At a 10 dB pilot SNR the
# pilot-noise weight 1/sqrt(tau SNR_p) is too small to move the law, so the
# last cells lower the pilot SNR to -10 dB, where dropping it would show.
GRID = [
    (scheme, w, k, m, snr)
    for scheme in PilotScheme
    for w in (1, 3)
    for k in (1, 4, 14)
    for m in (16, 64, 500)
    for snr in ((10.0, 10.0), (None, None))
] + [(scheme, w, 4, m, (10.0, -10.0)) for scheme in PilotScheme for w in (1, 3) for m in (16, 64, 500)]


def test_rotation_sampler_matches_brute_force_in_law(geometry):
    def cells():
        for i, (scheme, w, k, m, (ul_db, pilot_db)) in enumerate(GRID):
            cfg = FiniteMConfig(antennas=m, ul_snr_db=ul_db, pilot_snr_db=pilot_db)
            geo = geometry.with_reuse(w)
            scn = _scenario(geo, scheme, k, max_tier=1, finite_m=cfg, load=k)
            oracle = brute_force(scn, SEED + 2 * i, TRIALS)
            fast = sample_sir_finite_m(geo, scheme, k, cfg, TRIALS, SEED + 2 * i + 1).samples
            yield f"{scheme.value} w={w} k={k} M={m} snr={ul_db}/{pilot_db} dB", oracle, fast

    failures, pooled = law_failures(cells())
    assert not failures, failures
    assert pooled >= 1e-3, pooled


# (scheme, w, k, UL and pilot SNR dB) for the loads of one full-budget pass
LOAD_GRID = [
    (scheme, w, k, snr_db)
    for scheme in PilotScheme
    for w in (1, 3)
    for k in (1, 4, 42 // w)
    for snr_db in (10.0, None)
]


def test_each_load_of_a_full_budget_pass_matches_brute_force_in_law(geometry):
    # Column k - 1 of the capacity search's pass at the full pilot budget
    # against the brute-force k-user scenario, unpaired seeds, same bounds
    # as the sampler test above.
    m = 64

    def cells():
        for i, (scheme, w, k, snr_db) in enumerate(LOAD_GRID):
            cfg = FiniteMConfig(antennas=m, ul_snr_db=snr_db, pilot_snr_db=snr_db)
            geo = geometry.with_reuse(w)
            scn = _scenario(geo, scheme, k, max_tier=1, finite_m=cfg, load=k)
            seed = SEED + 1000 + 2 * i
            oracle = brute_force(scn, seed, TRIALS)
            fast = full_budget_pass(geo, cfg, 1, TRIALS, seed + 1)[:, _PLANES.index(scheme), k - 1]
            yield f"{scheme.value} w={w} load {k} of {42 // w} M={m} snr={snr_db} dB", oracle, fast

    failures, pooled = law_failures(cells())
    assert not failures, failures
    assert pooled >= 1e-3, pooled
