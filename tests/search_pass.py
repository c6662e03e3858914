"""The capacity search's pass at the full pilot budget, for tests that read
its SINRs or its per-block failure counts.

empirical_capacity_search keeps neither: it sums the counts of
_failure_counts per reuse factor.  These helpers run the same scenario
through _run_blocks, with _finite_block for the whole SINR array (both
pilot schemes' planes from one set of draws) or with _failure_counts for
the counts the search sums.
"""

import functools

from mimocap.pilots import PilotScheme
from mimocap.simulate import _PLANES, _failure_counts, _finite_block, _run_blocks, _scenario


def search_scenario(geometry, finite_m, max_tier, scheme=PilotScheme.DIFFERENT_SETS):
    """The scenario of the search's pass at geometry's reuse factor."""
    budget = finite_m.pilot_length // geometry.reuse_factor
    return _scenario(geometry, scheme, budget, max_tier, finite_m=finite_m, load=1)


def full_budget_pass(geometry, finite_m, max_tier, trials, seed, workers=None):
    """(trials, 2, budget) SINRs at the pilot budget of the reuse factor,
    planes in the order of _PLANES and column k - 1 for load k."""
    scn = search_scenario(geometry, finite_m, max_tier)
    row_shape = (len(_PLANES), scn.users_per_cell)
    return _run_blocks(_finite_block, scn, seed, trials, workers, row_shape)[0]


def per_block_failures(scn, thresholds, trials, seed, workers=None):
    """(blocks, thresholds, planes, budget) failure counts of the scenario's
    pass, as the search's runs write them."""
    count = functools.partial(_failure_counts, tuple(thresholds))
    planes = 1 + (scn.scheme is PilotScheme.DIFFERENT_SETS)
    width = len(thresholds) * planes * scn.users_per_cell
    per_block = _run_blocks(count, scn, seed, trials, workers, (0,), width)[1]
    return per_block.reshape(len(per_block), len(thresholds), planes, scn.users_per_cell)
