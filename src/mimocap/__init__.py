"""Uplink user capacity for pilot-contamination-limited massive MIMO networks."""

from .capacity import (
    CapacityReport,
    best_reuse,
    capacity_for_reuse,
    effective_interference,
    max_interferers,
    tier1_moments,
)
from .geometry import (
    CirclePatch,
    FiniteMConfig,
    NetworkGeometry,
    TierSpec,
    circle_approximation,
    cochannel_cells,
    tier_specs,
)
from .interference import (
    GaussianInterference,
    QosTarget,
    TierMoments,
    compute_tier_moments,
    q_inverse,
    qos_feasible,
)
from .pilots import PilotBook, PilotScheme, cross_correlation, generate_pilot_book
from .simulate import (
    CapacitySearchResult,
    SirSampleSet,
    empirical_capacity_search,
    sample_sir_finite_m,
    sample_sir_limit,
    sample_sir_limit_shadowed,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "CapacitySearchResult",
    "CirclePatch",
    "FiniteMConfig",
    "GaussianInterference",
    "NetworkGeometry",
    "PilotBook",
    "PilotScheme",
    "QosTarget",
    "SirSampleSet",
    "TierMoments",
    "TierSpec",
    "best_reuse",
    "capacity_for_reuse",
    "circle_approximation",
    "cochannel_cells",
    "compute_tier_moments",
    "cross_correlation",
    "effective_interference",
    "empirical_capacity_search",
    "generate_pilot_book",
    "max_interferers",
    "q_inverse",
    "qos_feasible",
    "sample_sir_finite_m",
    "sample_sir_limit",
    "sample_sir_limit_shadowed",
    "tier1_moments",
    "tier_specs",
]
