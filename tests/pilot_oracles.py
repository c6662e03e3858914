"""Independent pilot-statistics oracles for the tests.

The analytic pipeline uses the large-K convention Var[phi] = 1/K^2.  These
helpers give the exact Beta(1, K-1) law of phi between independent Haar
pilots, and a direct sampler of it, so tests can check the pipeline and the
samplers against the exact law.
"""

import numpy as np


def beta_phi_variance(k: int) -> float:
    """Exact variance (K-1) / (K^2 (K+1)) of phi between independent Haar pilots."""
    return (k - 1) / (k * k * (k + 1))


def beta_law_var_y(mu_x: float, var_x: float, k: int) -> float:
    """Var[phi x] for independent phi ~ Beta(1, K-1) and x with the given
    moments: E[phi^2] E[x^2] - (E[phi] E[x])^2 with E[phi^2] = 2 / (K (K+1))."""
    return 2.0 / (k * (k + 1.0)) * (var_x + mu_x * mu_x) - (mu_x / k) ** 2


def sample_contamination_profile(
    sequence_length: int, users: int, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Cross-correlations of one fixed pilot against `users` pilots of an
    independently drawn Haar book, one row per trial.

    Equal in law to the squared moduli of the first `users` components of
    a Haar-random unit vector in C^K, i.e. the first coordinates of a flat
    Dirichlet vector; sampled that way instead of via a full QR.
    """
    if users > sequence_length:
        raise ValueError("cannot use more pilots than the sequence length")
    g = rng.standard_exponential((trials, sequence_length))
    return g[:, :users] / g.sum(axis=1, keepdims=True)
