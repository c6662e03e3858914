"""The hexagon membership test and cartesian forms of the hexagon sampler's
points, for tests."""

import math

import numpy as np

from mimocap.simulate import rhombus_edges


def point_in_hexagon(x, y, circumradius: float):
    """Pointy-top hexagon membership test (vectorized)."""
    r3 = math.sqrt(3.0)
    return (np.abs(x) <= r3 * circumradius / 2.0) & (
        np.abs(x) + r3 * np.abs(y) <= r3 * circumradius
    )


def rhombus_xy(cell_radius_m: float, coordinates):
    """Offsets (x, y) from the cell center of the points s v_j + t v_(j+1)
    given by rhombus coordinates (j, s, t, ...), as sample_hexagon_position
    or _draw_users (j offset by 3 * cell) returns them."""
    j, s, t = coordinates[:3]
    v, v_next = rhombus_edges(cell_radius_m)[:, :, j % 3]
    return tuple(s * v[i] + t * v_next[i] for i in (0, 1))
