"""Pilot sequence books for the two allocation schemes.

Pilot sequences are columns of a unitary matrix.  Under the reused scheme
every cell shares one matrix, so a user collides fully (phi = 1) with the
same-index user of every other cell and not at all with the rest.  Under
the different-sets scheme each cell draws an independent Haar unitary and
cross-cell correlations phi = |<psi_a, psi_b>|^2 become random with mean
1/K and variance (K-1) / (K^2 (K+1)) (Beta(1, K-1) law).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

UNITARY_TOL = 1e-10


class PilotScheme(Enum):
    REUSED_SETS = "reused"
    DIFFERENT_SETS = "different"

    @classmethod
    def parse(cls, name: str) -> "PilotScheme":
        for member in cls:
            if member.value == name.lower():
                return member
        raise ValueError(f"unknown pilot scheme {name!r}; use 'reused' or 'different'")


class PilotBook(NamedTuple):
    """Per-cell pilot matrices plus the column-to-user assignment."""

    scheme: PilotScheme
    sequence_length: int
    matrices: np.ndarray  # (cell_count, K, K) complex, unitary columns
    assignments: np.ndarray  # (cell_count, K) permutations

    @property
    def cell_count(self) -> int:
        return self.matrices.shape[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal phases are divided out, which is what makes the QR
    output Haar rather than merely unitary.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def generate_pilot_book(
    scheme: PilotScheme,
    sequence_length: int,
    cell_count: int,
    rng: np.random.Generator,
) -> PilotBook:
    """Draw a pilot book for cell_count cells.

    Reused sets: one shared Haar unitary.  Different sets: independent Haar
    unitaries per cell.  Users are mapped to columns by an independent
    uniform permutation per cell.
    """
    k = sequence_length
    if k < 1:
        raise ValueError("sequence length must be >= 1")
    if cell_count < 1:
        raise ValueError("cell count must be >= 1")
    if scheme is PilotScheme.REUSED_SETS:
        mats = np.broadcast_to(haar_unitary(k, rng), (cell_count, k, k)).copy()
        # one shared assignment: the i-th admitted user of every cell holds
        # the same sequence, which is what makes them mutual contaminators
        assignments = np.broadcast_to(rng.permutation(k), (cell_count, k)).copy()
    else:
        mats = np.stack([haar_unitary(k, rng) for _ in range(cell_count)])
        assignments = np.stack([rng.permutation(k) for _ in range(cell_count)])
    for m in mats:
        err = np.max(np.abs(m.conj().T @ m - np.eye(k)))
        if err > UNITARY_TOL:
            raise RuntimeError(f"pilot matrix failed unitarity check ({err:.2e})")
    return PilotBook(scheme=scheme, sequence_length=k, matrices=mats, assignments=assignments)


def cross_correlation(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """phi = |<psi_a, psi_b>|^2 for two unit-norm sequences."""
    psi_a = np.asarray(psi_a)
    psi_b = np.asarray(psi_b)
    if psi_a.shape != psi_b.shape:
        raise ValueError(
            f"pilot dimension mismatch: {psi_a.shape} vs {psi_b.shape}"
        )
    return float(np.abs(np.vdot(psi_a, psi_b)) ** 2)
