"""The block engine's limiting and shadowed samplers against the per-trial
sampler they replaced (tests/limit_oracle.py), in law.

The grid covers both schemes, hexagon and circle regions, reuse 1, 3 and 7,
shadowing off and at 8 dB (hexagon only, as the sampler requires), and
fresh against fixed-book pilots (different sets only; reused sets draw no
pilots).  Every cell and side has its own seed; the bounds are those of
tests/test_finite_m_law.py.
"""

import numpy as np

from law_checks import law_failures
from limit_oracle import oracle_limit
from mimocap.geometry import cochannel_cells
from mimocap.pilots import PilotScheme, generate_pilot_book
from mimocap.simulate import (
    _scenario,
    sample_sir_limit,
    sample_sir_limit_shadowed,
)

TRIALS = 2000
SEED = 5200
K = 4
TIERS = {1: 3, 3: 1, 7: 1}  # 18, 6 and 6 co-channel cells
# (scheme, region, w, sigma dB, fixed book)
GRID = [
    (scheme, region, w, 0.0, False)
    for scheme in PilotScheme
    for region in ("hexagon", "circle")
    for w in (1, 3, 7)
] + [
    (PilotScheme.DIFFERENT_SETS, region, w, 0.0, True)
    for region in ("hexagon", "circle")
    for w in (1, 3, 7)
] + [(scheme, "hexagon", w, 8.0, False) for scheme in PilotScheme for w in (1, 3, 7)]


def test_block_samplers_match_per_trial_oracle_in_law(geometry):
    def cells():
        for i, (scheme, region, w, sigma, fixed) in enumerate(GRID):
            geo = geometry.with_reuse(w)
            dim = 42 // w
            seed = SEED + 2 * i
            book = None
            if fixed:
                cells = len(cochannel_cells(geo, TIERS[w])) + 1
                book = generate_pilot_book(scheme, dim, cells, np.random.default_rng(seed))
            scn = _scenario(
                geo, scheme, K, TIERS[w],
                pilot_dim=dim, region=region, shadow_sigma_db=sigma, book=book,
            )
            if sigma > 0.0:
                fast = sample_sir_limit_shadowed(
                    geo, scheme, K, sigma, TRIALS, seed + 1, pilot_dim=dim, region=region,
                    max_tier=TIERS[w],
                )
            else:
                fast = sample_sir_limit(
                    geo, scheme, K, TRIALS, seed + 1, pilot_dim=dim, pilot_book=book,
                    region=region, max_tier=TIERS[w],
                )
            label = f"{scheme.value} {region} w={w} sigma={sigma} dB{' book' if fixed else ''}"
            yield label, oracle_limit(scn, seed, TRIALS), fast.samples

    failures, pooled = law_failures(cells())
    assert not failures, failures
    assert pooled >= 1e-3, pooled
