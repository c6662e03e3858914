"""The per-trial limiting-SIR sampler the block engine replaced, kept as an
oracle of its law.

`oracle_limit` runs one Python trial at a time with its own Philox streams
keyed by (seed, trial, role), draws hexagon users by bounding-box rejection
and fresh pilots as normalised complex Gaussian rows, exactly as the
samplers did before they drew whole blocks; at equal seeds it reproduces
their samples bit for bit.  Only the scenario (co-channel cells, pilot
dimension, book Gram matrices) comes from mimocap.
"""

import math

import numpy as np

from hexagon_points import point_in_hexagon
from mimocap.geometry import equal_area_radius
from mimocap.pilots import PilotScheme
from mimocap.simulate import sample_circle_position, trial_rng

_ROLE_POSITIONS = 1
_ROLE_PILOTS = 2
_ROLE_SHADOW = 3


def rejection_hexagon(geometry, rng, size):
    """Uniform draws over the hexagon minus the hole, by rejection from the
    bounding box."""
    a = geometry.cell_radius_m
    hole2 = geometry.hole_radius_m**2
    xs = np.empty(size)
    ys = np.empty(size)
    pending = np.arange(size)
    r3 = math.sqrt(3.0)
    while pending.size:
        x = rng.uniform(-r3 * a / 2.0, r3 * a / 2.0, pending.size)
        y = rng.uniform(-a, a, pending.size)
        ok = point_in_hexagon(x, y, a) & (x * x + y * y >= hole2)
        hit = pending[ok]
        xs[hit] = x[ok]
        ys[hit] = y[ok]
        pending = pending[~ok]
    return xs, ys


def _draw_distances(scn, rng):
    n, k = scn.n_cells, scn.users_per_cell
    if scn.region == "circle":
        b = equal_area_radius(scn.geometry.cell_radius_m)
        [r_own], [ang] = sample_circle_position(b, [rng], n * k)
        r_own = r_own.reshape(n, k)
        d = np.hypot(scn.centers[:, 0], scn.centers[:, 1])[:, None]
        r_ctr = np.sqrt(r_own**2 + d**2 - 2.0 * d * r_own * np.cos(ang.reshape(n, k)))
        return r_own, r_ctr, None
    xs, ys = rejection_hexagon(scn.geometry, rng, n * k)
    xs = xs.reshape(n, k)
    ys = ys.reshape(n, k)
    r_own = np.hypot(xs, ys)
    r_ctr = np.hypot(xs + scn.centers[:, 0][:, None], ys + scn.centers[:, 1][:, None])
    return r_own, r_ctr, (xs, ys)


def _pilot_overlaps(scn, rng):
    n, k, dim = scn.n_cells, scn.users_per_cell, scn.pilot_dim
    if scn.book_grams is not None:
        big_k = scn.book_grams.shape[-1]
        tagged_col = int(rng.integers(big_k))
        phi = np.empty((n, k))
        for l in range(n):
            cols = rng.permutation(big_k)[:k]
            phi[l] = scn.book_grams[l][tagged_col, cols]
        return phi
    z = rng.standard_normal((n, 2 * dim)).view(np.complex128)
    norm = np.sqrt((z.real**2 + z.imag**2).sum(axis=1, keepdims=True))
    coeff = z[:, :k] / norm
    return coeff.real**2 + coeff.imag**2


def oracle_trial(scn, seed, trial):
    """Limiting SIR of one trial, shadowed when scn.shadow_sigma_db > 0."""
    r_own, r_ctr, offsets = _draw_distances(scn, trial_rng(seed, trial, _ROLE_POSITIONS))
    rng_pilots = trial_rng(seed, trial, _ROLE_PILOTS)
    n, k = scn.n_cells, scn.users_per_cell
    if scn.shadow_sigma_db > 0.0:
        xs, ys = offsets
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
        ratio = (beta[:, :, 0] / beta[idx[0], idx[1], serving]) ** 2
        ratio[serving == 0] = 0.0
    else:
        ratio = (r_own / r_ctr) ** (2.0 * scn.gamma)
    if scn.scheme is PilotScheme.REUSED_SETS:
        terms = ratio[:, 0]
    else:
        terms = _pilot_overlaps(scn, rng_pilots) * ratio
    total = float(terms.sum())
    return 1.0 / total if total > 0.0 else math.inf


def oracle_limit(scn, seed, trials):
    return np.array([oracle_trial(scn, seed, t) for t in range(trials)])
