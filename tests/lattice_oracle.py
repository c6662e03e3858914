"""Brute-force co-channel oracle for the tests.

Builds the whole hexagonal ring lattice, colours it by the cosets of the
reuse sublattice, and keeps the cells that share the center cell's colour.
This is the co-channel layout found by exhaustive search, independent of
geometry.cochannel_cells, which generates the sublattice directly.
"""

import math
from dataclasses import dataclass

from mimocap.geometry import REUSE_SHIFTS, NetworkGeometry, axial_to_xy, hex_ring


@dataclass(frozen=True)
class LatticeCell:
    axial: tuple[int, int]
    center: tuple[float, float]
    resource: int  # frequency resource index, 1..w; the center cell uses 1
    ring: int


def is_cochannel_offset(dm: int, dn: int, reuse_factor: int) -> bool:
    """True if the axial offset (dm, dn) lies on the reuse-w sublattice."""
    i, j = REUSE_SHIFTS[reuse_factor]
    w = reuse_factor
    return ((i + j) * dm + j * dn) % w == 0 and (i * dn - j * dm) % w == 0


def min_rings_for_cochannel(reuse_factor: int) -> int:
    """Smallest ring count whose lattice contains tier-1 co-channel cells."""
    return hex_ring(*REUSE_SHIFTS[reuse_factor])


def ring_lattice(geometry: NetworkGeometry, rings: int) -> list[LatticeCell]:
    """Every cell within `rings` rings, ordered by (ring, angle).

    Resource indices are the cosets of the reuse sublattice, numbered in
    order of first appearance; the center cell always gets resource 1.
    """
    d = geometry.center_spacing_m
    coords = [
        (m, n)
        for m in range(-rings, rings + 1)
        for n in range(-rings, rings + 1)
        if hex_ring(m, n) <= rings
    ]

    def sort_key(c):
        x, y = axial_to_xy(*c, d)
        return (hex_ring(*c), math.atan2(y, x) % (2 * math.pi))

    coords.sort(key=sort_key)
    reps: list[tuple[int, int]] = []  # coset representatives, index = resource - 1
    cells = []
    for m, n in coords:
        for resource, (rm, rn) in enumerate(reps, start=1):
            if is_cochannel_offset(m - rm, n - rn, geometry.reuse_factor):
                break
        else:
            reps.append((m, n))
            resource = len(reps)
        cells.append(LatticeCell((m, n), axial_to_xy(m, n, d), resource, hex_ring(m, n)))
    return cells


def cochannel_with_tiers(geometry: NetworkGeometry, rings: int) -> list[tuple[LatticeCell, int]]:
    """(cell, tier) for the co-channel cells of the center cell within
    max(rings, min_rings_for_cochannel) rings, in lattice order.

    The tier is the rank of the cell's squared axial norm among those of a
    lattice twice as wide, which holds every nearer shell in full: a cell
    within r rings lies within distance r, and every cell within distance r
    lies within 2r / sqrt(3) < 2r rings.
    """
    rings = max(rings, min_rings_for_cochannel(geometry.reuse_factor))

    def cochannel(lattice):
        return [c for c in lattice if c.resource == 1 and c.axial != (0, 0)]

    def norm(c):
        m, n = c.axial
        return m * m + m * n + n * n

    wide = cochannel(ring_lattice(geometry, 2 * rings))
    shells = sorted({norm(c) for c in wide})
    near = cochannel(ring_lattice(geometry, rings))
    return [(c, shells.index(norm(c)) + 1) for c in near]
