"""Model averaging and the PCAC Ward identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import average_ga_over_windows, model_average
from repro.contractions import Propagator, compute_wilson_propagator, pion_correlator
from repro.core import SyntheticGAEnsemble
from repro.dirac import WilsonOperator
from repro.dirac import gamma as g
from repro.lattice import GaugeField, Geometry
from repro.solvers import ConjugateGradient
from repro.utils.rng import make_rng


def axial_pseudoscalar_correlator(prop: Propagator) -> np.ndarray:
    """``C_AP(t) = sum_x <A_4(x,t) P(0)>`` from one propagator.

    With degenerate quarks and gamma_5-hermiticity:
    ``C_AP(t) = -sum_x tr[ S(x)^H gamma_4 S(x) ]`` (the gamma_5 factors
    from the axial current and the pseudoscalar source cancel against
    the hermiticity conjugations; the overall sign is fixed so that
    ``m_PCAC > 0`` for positive bare mass in the DeGrand-Rossi basis).
    """
    s = prop.shifted_to_origin()
    site = np.einsum(
        "xyztABab,AC,xyztCBab->xyzt",
        np.conjugate(s),
        g.GAMMA[3],
        s,
        optimize=True,
    )
    return -site.sum(axis=(0, 1, 2))


def pcac_mass(c_ap: np.ndarray, c_pp: np.ndarray) -> np.ndarray:
    """Effective PCAC mass per interior timeslice (length ``Lt - 2``).

    The partially-conserved axial current relation
    ``partial_mu <A_mu(x) P(0)> = 2 m_PCAC <P(x) P(0)>`` with the
    symmetric lattice derivative: ``m_PCAC(t) = dt C_AP(t) / (2 C_PP(t))``.
    At tree level ``m_PCAC == m0``, the check that ``WilsonOperator`` has
    the right chiral structure.
    """
    c_ap = np.asarray(c_ap)
    c_pp = np.asarray(c_pp)
    if c_ap.shape != c_pp.shape:
        raise ValueError("correlator shapes differ")
    return np.real(0.5 * (c_ap[2:] - c_ap[:-2]) / (2.0 * c_pp[1:-1]))


class TestModelAverage:
    def test_single_model_passthrough(self):
        res = model_average(
            np.array([1.27]), np.array([0.01]), np.array([5.0]),
            np.array([4]), np.array([10]),
        )
        assert res.value == pytest.approx(1.27)
        assert res.error == pytest.approx(0.01)
        assert res.weights == (1.0,)

    def test_bad_fit_downweighted(self):
        """A model with huge chi2 contributes almost nothing."""
        res = model_average(
            np.array([1.27, 9.99]),
            np.array([0.01, 0.01]),
            np.array([5.0, 500.0]),
            np.array([4, 4]),
            np.array([10, 10]),
        )
        assert res.value == pytest.approx(1.27, abs=0.01)
        assert res.weights[1] < 1e-10

    def test_spread_enters_error(self):
        """Two equally good but discrepant models widen the average."""
        res = model_average(
            np.array([1.25, 1.30]),
            np.array([0.005, 0.005]),
            np.array([5.0, 5.0]),
            np.array([4, 4]),
            np.array([10, 10]),
        )
        assert res.error > 0.02  # dominated by the 0.05 spread

    def test_validation(self):
        with pytest.raises(ValueError):
            model_average(np.array([1.0]), np.array([0.1]), np.array([1.0]),
                          np.array([2]), np.array([5, 6]))
        with pytest.raises(ValueError):
            model_average(np.array([]), np.array([]), np.array([]),
                          np.array([]), np.array([]))

    def test_window_average_on_synthetic_ensemble(self):
        """The production pattern: g_A averaged over fit windows stays
        on the injected truth with an honest error."""
        ens = SyntheticGAEnsemble(rng=44)
        c2, cfh = ens.sample_correlators(784)
        avg, fits = average_ga_over_windows(c2, cfh)
        assert len(fits) >= 4
        assert sum(avg.weights) == pytest.approx(1.0)
        assert abs(avg.value - ens.spec.g_a) < 4.0 * avg.error
        assert avg.error < 0.05


class TestPCAC:
    @pytest.fixture(scope="class")
    def free_field(self):
        geom = Geometry(4, 4, 4, 8)
        gauge = GaugeField.cold(geom)
        out = {}
        for m0 in (0.2, 0.4):
            w = WilsonOperator(gauge, mass=m0)
            prop, _ = compute_wilson_propagator(
                w, solver=ConjugateGradient(tol=1e-10, max_iter=4000)
            )
            cap = axial_pseudoscalar_correlator(prop)
            cpp = pion_correlator(prop)
            out[m0] = pcac_mass(cap, cpp)
        return out

    def test_tree_level_pcac_equals_bare_mass(self, free_field):
        """Free Wilson fermions: m_PCAC == m0 up to O(a m^2) artifacts."""
        for m0, m in free_field.items():
            mid = m[len(m) // 2]
            assert mid == pytest.approx(m0, rel=0.1)

    def test_plateau_in_interior(self, free_field):
        """Away from the source contact region m_PCAC is flat."""
        m = free_field[0.2]
        interior = m[2:-1]
        assert interior.std() < 0.1 * abs(interior.mean())

    def test_monotone_in_bare_mass(self, free_field):
        assert free_field[0.4][2] > free_field[0.2][2]

    def test_positive_on_interacting_background(self):
        gauge = GaugeField.random(Geometry(4, 4, 4, 8), make_rng(7), scale=0.3)
        w = WilsonOperator(gauge, mass=0.3)
        prop, _ = compute_wilson_propagator(
            w, solver=ConjugateGradient(tol=1e-9, max_iter=5000)
        )
        m = pcac_mass(axial_pseudoscalar_correlator(prop), pion_correlator(prop))
        assert m[len(m) // 2] > 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pcac_mass(np.ones(8), np.ones(7))
