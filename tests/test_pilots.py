import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mimocap.pilots import PilotScheme, cross_correlation, generate_pilot_book, haar_unitary
from pilot_oracles import beta_phi_variance, sample_contamination_profile

K = 42


def pilot(book, cell, user):
    """Pilot sequence of the user-th admitted user of a cell."""
    return book.matrices[cell][:, book.assignments[cell][user]]


def test_scheme_parse():
    assert PilotScheme.parse("reused") is PilotScheme.REUSED_SETS
    assert PilotScheme.parse("DIFFERENT") is PilotScheme.DIFFERENT_SETS
    with pytest.raises(ValueError):
        PilotScheme.parse("hopping")


def test_haar_unitary_is_unitary(rng):
    u = haar_unitary(K, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(K))) < 1e-10


@given(dim=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_completeness_sums_to_one(dim, seed):
    # any fixed pilot against all columns of any unitary: sum(phi) == 1
    rng = np.random.default_rng(seed)
    book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, dim, 2, rng)
    probe = pilot(book, 0, 0)
    total = sum(cross_correlation(probe, book.matrices[1][:, j]) for j in range(dim))
    assert abs(total - 1.0) < 1e-10


def test_reused_sets_collision_structure(rng):
    book = generate_pilot_book(PilotScheme.REUSED_SETS, K, 3, rng)
    for user in (0, 5, 41):
        assert cross_correlation(pilot(book, 0, user), pilot(book, 1, user)) == pytest.approx(1.0)
        assert cross_correlation(pilot(book, 0, user), pilot(book, 2, user)) == pytest.approx(1.0)
    assert cross_correlation(pilot(book, 0, 0), pilot(book, 1, 1)) < 1e-12
    assert cross_correlation(pilot(book, 0, 3), pilot(book, 2, 17)) < 1e-12


def test_reused_cells_share_one_matrix(rng):
    book = generate_pilot_book(PilotScheme.REUSED_SETS, 12, 4, rng)
    for cell in range(1, 4):
        assert np.array_equal(book.matrices[0], book.matrices[cell])
        assert np.array_equal(book.assignments[0], book.assignments[cell])


def test_different_sets_k1_always_collides(rng):
    book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, 1, 4, rng)
    assert cross_correlation(pilot(book, 0, 0), pilot(book, 3, 0)) == pytest.approx(1.0)


def test_self_and_orthogonal_correlations(rng):
    book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, K, 1, rng)
    psi = pilot(book, 0, 7)
    assert cross_correlation(psi, psi) == pytest.approx(1.0)
    other = pilot(book, 0, 8)
    assert cross_correlation(psi, other) < 1e-12


def test_dimension_mismatch_rejected(rng):
    with pytest.raises(ValueError, match="mismatch"):
        cross_correlation(np.ones(3) / np.sqrt(3), np.ones(4) / 2.0)


def test_book_sampled_phi_mean(rng):
    # cross-cell phi from freshly drawn books averages to 1/K
    n = 3000
    vals = np.empty(n)
    for i in range(n):
        book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, K, 2, rng)
        vals[i] = cross_correlation(pilot(book, 0, 0), pilot(book, 1, 0))
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / K) <= 3.0 * se


def test_phi_variance_beta_law(rng):
    # Beta(1, K-1) variance (K-1)/(K^2 (K+1)) ~ 5.41e-4 at K = 42
    assert beta_phi_variance(K) == pytest.approx(5.405e-4, rel=1e-3)
    phi = sample_contamination_profile(K, 1, rng, trials=200_000)[:, 0]
    assert phi.var(ddof=1) == pytest.approx(beta_phi_variance(K), rel=0.05)
    assert phi.mean() == pytest.approx(1.0 / K, rel=0.02)
    # the analytic 1/K^2 convention is the large-K limit of the exact value
    assert 1.0 / K**2 == pytest.approx(beta_phi_variance(K), rel=2.5 / K)


def test_contamination_profile_matches_book_sampling(rng):
    # the Dirichlet shortcut must be distribution-identical to actually
    # drawing Haar books and correlating columns
    n = 2500
    from_books = np.empty(n)
    for i in range(n):
        book = generate_pilot_book(PilotScheme.DIFFERENT_SETS, 8, 2, rng)
        from_books[i] = cross_correlation(pilot(book, 0, 0), pilot(book, 1, 0))
    shortcut = sample_contamination_profile(8, 1, rng, trials=n)[:, 0]
    _stat, p = ks_2samp(from_books, shortcut)
    assert p > 0.01


def test_contamination_profile_completeness(rng):
    phi = sample_contamination_profile(6, 6, rng, trials=100)
    assert np.allclose(phi.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        sample_contamination_profile(6, 7, rng, trials=1)


def test_generation_validation(rng):
    with pytest.raises(ValueError):
        generate_pilot_book(PilotScheme.REUSED_SETS, 0, 2, rng)
    with pytest.raises(ValueError):
        generate_pilot_book(PilotScheme.REUSED_SETS, 4, 0, rng)
