"""Property-based gamma-matrix algebra (hypothesis, deterministic profile).

The Clifford-algebra identities the Dirac stencils silently rely on:
``{gamma_mu, gamma_nu} = 2 delta_mu_nu``, gamma_5 anticommutation, the
projector algebra of the domain-wall fifth dimension, and consistency
of :func:`repro.dirac.gamma.spin_mul` with dense matrix products on
random fermion fields.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dirac.gamma import (
    AXIAL_GAMMA3,
    GAMMA,
    GAMMA5,
    IDENTITY,
    P_MINUS,
    P_PLUS,
    gamma5_mul,
    proj_minus,
    proj_plus,
    spin_mul,
)

mus = st.integers(min_value=0, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

ATOL = 1e-14


@given(mu=mus, nu=mus)
def test_clifford_anticommutator(mu, nu):
    """{gamma_mu, gamma_nu} = 2 delta_mu_nu."""
    anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
    np.testing.assert_allclose(anti, 2.0 * (mu == nu) * IDENTITY, atol=ATOL)


@given(mu=mus)
def test_gammas_hermitian_and_involutive(mu):
    np.testing.assert_allclose(GAMMA[mu], GAMMA[mu].conj().T, atol=ATOL)
    np.testing.assert_allclose(GAMMA[mu] @ GAMMA[mu], IDENTITY, atol=ATOL)


@given(mu=mus)
def test_gamma5_anticommutes_with_every_gamma(mu):
    np.testing.assert_allclose(
        GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5,
        np.zeros((4, 4)),
        atol=ATOL,
    )


def test_gamma5_squares_to_identity_and_is_hermitian():
    np.testing.assert_allclose(GAMMA5 @ GAMMA5, IDENTITY, atol=ATOL)
    np.testing.assert_allclose(GAMMA5, GAMMA5.conj().T, atol=ATOL)


def test_gamma5_is_product_of_gammas():
    np.testing.assert_allclose(
        GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3], GAMMA5, atol=ATOL
    )


@pytest.mark.parametrize("p, q", [(P_PLUS, P_MINUS), (P_MINUS, P_PLUS)])
def test_chiral_projector_algebra(p, q):
    np.testing.assert_allclose(p @ p, p, atol=ATOL)       # idempotent
    np.testing.assert_allclose(p @ q, np.zeros((4, 4)), atol=ATOL)  # orthogonal
    np.testing.assert_allclose(p + q, IDENTITY, atol=ATOL)  # complete


def test_axial_insertion_is_gamma3_gamma5():
    np.testing.assert_allclose(GAMMA[2] @ GAMMA5, AXIAL_GAMMA3, atol=ATOL)
    # gamma_z and gamma_5 anticommute, so their product is antihermitian.
    np.testing.assert_allclose(AXIAL_GAMMA3.conj().T, -AXIAL_GAMMA3, atol=ATOL)


@given(seed=seeds, mu=mus)
def test_spin_mul_matches_dense_product(seed, mu):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(2, 3, 4, 3)) + 1j * rng.normal(size=(2, 3, 4, 3))
    expected = np.einsum("st,xytc->xysc", GAMMA[mu], psi)
    np.testing.assert_allclose(spin_mul(GAMMA[mu], psi), expected, atol=ATOL)


@given(seed=seeds, mu=mus, nu=mus)
def test_spin_mul_composes_like_matrix_product(seed, mu, nu):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))
    np.testing.assert_allclose(
        spin_mul(GAMMA[mu], spin_mul(GAMMA[nu], psi)),
        spin_mul(GAMMA[mu] @ GAMMA[nu], psi),
        atol=1e-13,
    )


@given(seed=seeds)
def test_chiral_projection_helpers_match_projectors(seed):
    """proj_plus/proj_minus are the fast paths for spin_mul(P_+-, .)
    in this chiral basis (gamma_5 diagonal)."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(3, 4, 3)) + 1j * rng.normal(size=(3, 4, 3))
    np.testing.assert_allclose(proj_plus(psi), spin_mul(P_PLUS, psi), atol=ATOL)
    np.testing.assert_allclose(proj_minus(psi), spin_mul(P_MINUS, psi), atol=ATOL)
    np.testing.assert_allclose(proj_plus(psi) + proj_minus(psi), psi, atol=ATOL)


@given(seed=seeds)
def test_gamma5_mul_is_spin_mul_by_gamma5_exactly(seed):
    """gamma5_mul is the sign flip spin_mul(GAMMA5, .) amounts to in this
    basis — equal to the last bit, fresh, into a buffer, and in place."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(3, 2, 4, 3)) + 1j * rng.normal(size=(3, 2, 4, 3))
    want = spin_mul(GAMMA5, psi)
    assert np.array_equal(gamma5_mul(psi), want)
    buf = np.empty_like(psi)
    assert gamma5_mul(psi, out=buf) is buf and np.array_equal(buf, want)
    assert gamma5_mul(psi, out=psi) is psi and np.array_equal(psi, want)
