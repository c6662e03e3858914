"""Two-sample checks of a sampler's law against an oracle's."""

import math

import numpy as np
from scipy.stats import chi2, ks_2samp


def law_failures(cells):
    """Per cell of (label, oracle, fast): two-sample KS at p >= 1e-4 and the
    mean SINR in dB within 4 standard errors.  Returns the failing cells and
    Fisher's combination of the KS p-values over all cells, to be held at
    p >= 1e-3, which catches a small shift shared by many cells.  Every cell
    and side must have its own seed, so the p-values are independent."""
    failures = []
    fisher = 0.0
    count = 0
    for label, oracle, fast in cells:
        _stat, p = ks_2samp(oracle, fast)
        fisher -= 2.0 * math.log(max(p, np.finfo(float).tiny))  # p underflows to 0
        count += 1
        a, b = 10.0 * np.log10(oracle), 10.0 * np.log10(fast)
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
        z = (a.mean() - b.mean()) / se
        if p < 1e-4 or abs(z) > 4.0:
            failures.append(f"{label}: KS p={p:.2g}, z={z:.2f}")
    return failures, chi2.sf(fisher, 2 * count)
