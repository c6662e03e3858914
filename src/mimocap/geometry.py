"""Hexagonal cellular layout, co-channel cells and tiers, and user placement.

Cells sit on a triangular lattice with center spacing sqrt(3) * cell_radius
(cell_radius is the hexagon circumradius).  Co-channel cells under reuse
factor w form a scaled, rotated copy of the same lattice with spacing
sqrt(3*w) * a, so the nearest co-channel tier sits at that distance with 6
members and tier t at the t-th shell of that copy.

All objects here are immutable and safe to share across workers; samplers
take an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Axial shift vectors generating the co-channel sublattice for each
# supported reuse factor (i^2 + i*j + j^2 = w).
REUSE_SHIFTS = {1: (1, 0), 3: (1, 1), 7: (2, 1)}

SUPPORTED_REUSE = tuple(sorted(REUSE_SHIFTS))


@dataclass(frozen=True)
class NetworkGeometry:
    """Hexagonal network scenario parameters.

    cell_radius_m is the hexagon circumradius; users are excluded within
    hole_radius_m of their serving base station.  Co-channel cells are
    chosen by tier count (cochannel_cells, tier_specs).
    """

    cell_radius_m: float = 1600.0
    hole_radius_m: float = 100.0
    reuse_factor: int = 1
    path_loss_exponent: float = 4.0

    def __post_init__(self):
        if self.reuse_factor not in REUSE_SHIFTS:
            raise ValueError(
                f"unsupported reuse factor {self.reuse_factor}; "
                f"supported: {SUPPORTED_REUSE}"
            )
        if not 0.0 <= self.hole_radius_m < self.cell_radius_m:
            raise ValueError("hole radius must satisfy 0 <= a_h < a")
        if self.path_loss_exponent <= 2.0:
            raise ValueError(
                "path loss exponent must exceed 2 for finite interference moments"
            )

    @property
    def center_spacing_m(self) -> float:
        """Distance between adjacent cell centers."""
        return math.sqrt(3.0) * self.cell_radius_m

    def with_reuse(self, reuse_factor: int) -> "NetworkGeometry":
        return replace(self, reuse_factor=reuse_factor)


@dataclass(frozen=True)
class Cell:
    """One co-channel cell: its center and its tier index (1 = nearest)."""

    center: tuple[float, float]
    tier: int


@dataclass(frozen=True)
class CirclePatch:
    """Circular-cell approximation of an interfering cell.

    circle_radius_m is the cell-disc radius; separation_m the distance from
    the interfering cell center to the base station of interest.
    """

    circle_radius_m: float
    separation_m: float

    def __post_init__(self):
        if not self.circle_radius_m < self.separation_m:
            raise ValueError("circle radius must be smaller than the separation")


@dataclass(frozen=True)
class TierSpec:
    """Co-channel cells at the tier_index-th co-channel distance."""

    tier_index: int
    cell_count: int
    separation_m: float


def hex_ring(m: int, n: int) -> int:
    """Hexagonal (ring) distance of axial coordinate (m, n) from the origin."""
    return (abs(m) + abs(n) + abs(m + n)) // 2


def axial_to_xy(m: int, n: int, spacing: float) -> tuple[float, float]:
    return spacing * (m + 0.5 * n), spacing * (math.sqrt(3.0) / 2.0) * n


def cochannel_cells(geometry: NetworkGeometry, max_tier: int) -> list[Cell]:
    """Co-channel cells of the first max_tier tiers of the center cell,
    excluding the center itself, ordered by (ring, angle); none for
    max_tier < 1.

    Under reuse w = i^2 + i*j + j^2 they are the sublattice spanned by the
    axial vectors (i, j) and (-j, i + j), its 60-degree rotation (MacDonald,
    "The Cellular Concept", BSTJ 1979).  The point a*(i, j) + b*(-j, i + j)
    sits sqrt(a^2 + a*b + b^2) tier-1 separations away, so its tier is the
    rank of that norm among the shells of tier_specs.
    """
    if max_tier < 1:
        return []
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
    return [cell for _, cell in found]


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


def point_in_hexagon(x, y, circumradius: float):
    """Pointy-top hexagon membership test (vectorized)."""
    r3 = math.sqrt(3.0)
    return (np.abs(x) <= r3 * circumradius / 2.0) & (
        np.abs(x) + r3 * np.abs(y) <= r3 * circumradius
    )


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


def sample_hexagon_position(geometry: NetworkGeometry, rngs, size: int, out=None):
    """size uniform draws over the hexagonal cell with the hole disc excluded,
    from each stream of the sequence rngs.

    The hexagon is three equal rhombi, each spanned by two of the alternate
    vertices (0, a), (sqrt(3) a / 2, -a / 2) and (-sqrt(3) a / 2, -a / 2).
    A draw picks a rhombus uniformly and a uniform point inside it; only
    points in the hole (pi a_h^2 of the area) are redrawn.  Two uniforms
    make a draw: the integer part of 3 u picks the rhombus, and the exact
    fractional part is the first coordinate in it.  Stream i draws (2, size)
    uniforms, then (2, p) for the p draws of its row that fell in the hole,
    and so on; the redraw rounds run across all streams at once.  Returns
    arrays (x, y) of cartesian offsets from the cell center, of shape
    (len(rngs), size), row i drawn from rngs[i] alone; out, a pair of such
    arrays, receives them in place of new ones.
    """
    a = geometry.cell_radius_m
    r3 = math.sqrt(3.0)
    # the same expressions as point_in_hexagon, so no draw leaves the cell;
    # rhombus j is spanned by vertices j and j + 1 (mod 3)
    vx = np.array([0.0, r3 * a / 2.0, -r3 * a / 2.0, 0.0])
    vy = np.array([a, -a / 2.0, -a / 2.0, a])
    hole2 = geometry.hole_radius_m**2

    def rhombus_points(s, t):
        s *= 3.0
        j = s.astype(np.intp)
        s -= j
        points = []
        for v in (vx, vy):  # s * v[j] + t * v[j + 1], in place
            point = v[:3].take(j)
            point *= s
            step = v[1:].take(j)
            step *= t
            point += step
            points.append(point)
        return points

    xs, ys = out if out is not None else (np.empty((len(rngs), size)) for _ in range(2))
    for rng, s_row, t_row in zip(rngs, xs, ys):  # (2, size) uniforms per stream
        rng.random(out=s_row)
        rng.random(out=t_row)
    xs[...], ys[...] = rhombus_points(xs, ys)
    pending = np.flatnonzero(xs * xs + ys * ys < hole2)  # stream-major, as drawn
    while pending.size:
        counts = np.bincount(pending // size, minlength=len(rngs))
        s, t = np.concatenate([rng.random((2, c)) for rng, c in zip(rngs, counts) if c], axis=1)
        x, y = rhombus_points(s, t)
        xs.flat[pending] = x
        ys.flat[pending] = y
        pending = pending[x * x + y * y < hole2]
    return xs, ys
