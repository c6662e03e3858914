"""The scenario core: the hexagonal cell layout, its co-channel cells and
tiers, and the validated scenario records with the bounds on their values.

Cells sit on a triangular lattice with center spacing sqrt(3) * cell_radius
(cell_radius is the hexagon circumradius).  Co-channel cells under reuse
factor w form a scaled, rotated copy of the same lattice with spacing
sqrt(3*w) * a, so the nearest co-channel tier sits at that distance with 6
members and tier t at the t-th shell of that copy.

All objects here are immutable and safe to share across workers.  The
module is pure Python: config loads and checks a scenario through it
without numpy, and the user-placement samplers live with the Monte Carlo
engine in simulate.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from ._record import Record, ValueRecord

# Axial shift vectors generating the co-channel sublattice for each
# supported reuse factor (i^2 + i*j + j^2 = w).
REUSE_SHIFTS = {1: (1, 0), 3: (1, 1), 7: (2, 1)}

SUPPORTED_REUSE = tuple(sorted(REUSE_SHIFTS))

# Cell radii far past any real cell on both sides; at the extremes of the
# double range the squared distances overflow or lose their precision.
CELL_RADIUS_RANGE_M = (1e-3, 1e7)
# Past any measured exponent; at 1000 the interference moments underflow.
PATH_LOSS_EXPONENT_MAX = 10.0
# dB settings (SIR thresholds, SNRs) must lie within +-MAX_ABS_DB, far past
# any real link: their linear values, 1e-100 to 1e100, and the products of a
# few of them stay finite normal doubles through every command
MAX_ABS_DB = 1000.0


class NetworkGeometry(ValueRecord):
    """Hexagonal network scenario parameters.

    cell_radius_m is the hexagon circumradius; users are excluded within
    hole_radius_m of their serving base station.  Co-channel cells are
    chosen by tier count (cochannel_cells, tier_specs).
    """

    __slots__ = _fields = ("cell_radius_m", "hole_radius_m", "reuse_factor", "path_loss_exponent")

    def __init__(
        self,
        cell_radius_m: float = 1600.0,
        hole_radius_m: float = 100.0,
        reuse_factor: int = 1,
        path_loss_exponent: float = 4.0,
    ):
        if reuse_factor not in REUSE_SHIFTS:
            raise ValueError(
                f"unsupported reuse factor {reuse_factor}; supported: {SUPPORTED_REUSE}"
            )
        low, high = CELL_RADIUS_RANGE_M
        if not low <= cell_radius_m <= high:
            raise ValueError(f"cell radius must lie in [{low:g}, {high:g}] m")
        # within the inradius the hole leaves the sampler 9.3% of the hexagon
        if not 0.0 <= hole_radius_m <= math.sqrt(3.0) / 2.0 * cell_radius_m:
            raise ValueError("hole radius must satisfy 0 <= a_h <= sqrt(3)/2 a (the inradius)")
        if not 2.0 < path_loss_exponent <= PATH_LOSS_EXPONENT_MAX:  # 2: infinite moments
            raise ValueError(f"path loss exponent must lie in (2, {PATH_LOSS_EXPONENT_MAX:g}]")
        self._set(cell_radius_m, hole_radius_m, reuse_factor, path_loss_exponent)

    @property
    def center_spacing_m(self) -> float:
        """Distance between adjacent cell centers."""
        return math.sqrt(3.0) * self.cell_radius_m

    def with_reuse(self, reuse_factor: int) -> "NetworkGeometry":
        return self._replace(reuse_factor=reuse_factor)


class FiniteMConfig(ValueRecord):
    """Finite-antenna MRC scenario; SNRs are cell-edge values with uplink
    power control, None disables the corresponding noise term."""

    __slots__ = _fields = ("antennas", "pilot_length", "ul_snr_db", "pilot_snr_db")

    def __init__(
        self,
        antennas: int = 500,
        pilot_length: int = 42,
        ul_snr_db: float | None = 10.0,
        pilot_snr_db: float | None = 10.0,
    ):
        if antennas < 1:
            raise ValueError("antenna count must be >= 1")
        if pilot_length < 1:
            raise ValueError("pilot length must be >= 1")
        for name, snr_db in (("ul_snr_db", ul_snr_db), ("pilot_snr_db", pilot_snr_db)):
            if snr_db is not None and not abs(snr_db) <= MAX_ABS_DB:
                raise ValueError(f"{name} = {snr_db:g} dB lies outside +-{MAX_ABS_DB:g} dB")
        self._set(antennas, pilot_length, ul_snr_db, pilot_snr_db)


class Cell(NamedTuple):
    """One co-channel cell: its center and its tier index (1 = nearest)."""

    center: tuple[float, float]
    tier: int


class CirclePatch(Record):
    """Circular-cell approximation of an interfering cell.

    circle_radius_m is the cell-disc radius; separation_m the distance from
    the interfering cell center to the base station of interest.
    """

    __slots__ = _fields = ("circle_radius_m", "separation_m")

    def __init__(self, circle_radius_m: float, separation_m: float):
        if not circle_radius_m < separation_m:
            raise ValueError("circle radius must be smaller than the separation")
        self._set(circle_radius_m, separation_m)


class TierSpec(NamedTuple):
    """Co-channel cells at the tier_index-th co-channel distance."""

    tier_index: int
    cell_count: int
    separation_m: float


def hex_ring(m: int, n: int) -> int:
    """Hexagonal (ring) distance of axial coordinate (m, n) from the origin."""
    return (abs(m) + abs(n) + abs(m + n)) // 2


def axial_to_xy(m: int, n: int, spacing: float) -> tuple[float, float]:
    return spacing * (m + 0.5 * n), spacing * (math.sqrt(3.0) / 2.0) * n


@functools.lru_cache(maxsize=32)
def cochannel_cells(geometry: NetworkGeometry, max_tier: int) -> tuple[Cell, ...]:
    """Co-channel cells of the first max_tier tiers of the center cell,
    excluding the center itself, ordered by (ring, angle); none for
    max_tier < 1.  Memoised: every sampler call and config check asks again.

    Under reuse w = i^2 + i*j + j^2 they are the sublattice spanned by the
    axial vectors (i, j) and (-j, i + j), its 60-degree rotation (MacDonald,
    "The Cellular Concept", BSTJ 1979).  The point a*(i, j) + b*(-j, i + j)
    sits sqrt(a^2 + a*b + b^2) tier-1 separations away, so its tier is the
    rank of that norm among the shells of tier_specs.
    """
    if max_tier < 1:
        return ()
    i, j = REUSE_SHIFTS[geometry.reuse_factor]
    shells = tier_specs(geometry, max_tier)
    tier_of = {
        round((s.separation_m / shells[0].separation_m) ** 2): s.tier_index for s in shells
    }
    reach = math.isqrt(4 * max(tier_of) // 3) + 1  # a^2 + a*b + b^2 >= 3 a^2 / 4
    d = geometry.center_spacing_m
    found = []
    for a in range(-reach, reach + 1):
        for b in range(-reach, reach + 1):
            tier = tier_of.get(a * a + a * b + b * b)
            if tier is None:
                continue
            m, n = a * i - b * j, a * j + b * (i + j)
            x, y = axial_to_xy(m, n, d)
            found.append(((hex_ring(m, n), math.atan2(y, x) % (2 * math.pi)), Cell((x, y), tier)))
    found.sort(key=lambda entry: entry[0])
    return tuple(cell for _, cell in found)


def tier_specs(geometry: NetworkGeometry, max_tier: int) -> list[TierSpec]:
    """Count and separation of co-channel cells at each of the first
    max_tier co-channel distances.

    Tier-1 separation is a*sqrt(3w); outer tiers follow the shells of the
    co-channel sublattice (squared-distance multiples 1, 3, 4, 7, ... of
    the tier-1 value).
    """
    if max_tier < 1:
        raise ValueError("max_tier must be >= 1")
    # Shells of a triangular lattice: norms^2 are the Loeschian numbers
    # p^2 + p q + q^2.  Enumerate a patch large enough for max_tier shells.
    reach = 2 * max_tier + 4
    counts: dict[int, int] = {}
    for p in range(-reach, reach + 1):
        for q in range(-reach, reach + 1):
            if (p, q) == (0, 0):
                continue
            norm2 = p * p + p * q + q * q
            counts[norm2] = counts.get(norm2, 0) + 1
    tier1 = math.sqrt(3.0 * geometry.reuse_factor) * geometry.cell_radius_m
    shells = sorted(counts)[:max_tier]
    return [
        TierSpec(tier_index=t + 1, cell_count=counts[n2], separation_m=tier1 * math.sqrt(n2))
        for t, n2 in enumerate(shells)
    ]


def equal_area_radius(cell_radius_m: float) -> float:
    """Radius of the disc with the same area as the hexagon."""
    return cell_radius_m * math.sqrt(3.0 * math.sqrt(3.0) / (2.0 * math.pi))


def circle_approximation(
    geometry: NetworkGeometry, tier: TierSpec, mode: str = "equal_area"
) -> CirclePatch:
    """Circular-cell approximation of a co-channel tier.

    mode "equal_area" matches the hexagon area (default); "match_radius"
    uses the circumradius directly, for sensitivity checks.
    """
    if mode == "equal_area":
        b = equal_area_radius(geometry.cell_radius_m)
    elif mode == "match_radius":
        b = geometry.cell_radius_m
    else:
        raise ValueError(f"unknown circle approximation mode {mode!r}")
    return CirclePatch(circle_radius_m=b, separation_m=tier.separation_m)
