"""Edge-substituted Gauss-Legendre integration."""

import math

import numpy as np
import pytest

from regnoma import quadrature
from regnoma.quadrature import (QuadratureError, partial_integrals,
                                support_integral)


def semicircle(x):
    return np.sqrt(np.clip(1.0 - x * x, 0.0, None)) * 2.0 / math.pi


class TestSupportIntegral:
    def test_square_root_edges_exact(self):
        assert abs(support_integral(semicircle, -1.0, 1.0) - 1.0) < 1e-12

    def test_inverse_square_root_singularity(self):
        # the substitution absorbs 1/sqrt endpoints entirely
        val = support_integral(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0)
        assert abs(val - math.pi) < 1e-10

    def test_weight_argument(self):
        val = support_integral(semicircle, -1.0, 1.0, weight=lambda x: x)
        assert abs(val) < 1e-12
        second = support_integral(semicircle, -1.0, 1.0, weight=lambda x: x * x)
        assert abs(second - 0.25) < 1e-12

    @pytest.mark.parametrize("lo,hi", [(0.5, 0.5), (1.0, -1.0)])
    def test_empty_interval_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            support_integral(semicircle, lo, hi)

    def test_non_convergence_raises(self, monkeypatch):
        # oscillation faster than the node budget cannot converge
        monkeypatch.setattr(quadrature, "N_MAX", 16)
        with pytest.raises(QuadratureError, match="within 16 nodes"):
            support_integral(lambda x: np.cos(1e7 * x), 0.0, 1.0, tol=1e-12, n_start=8)

    def test_convergence_independent_of_start(self):
        a = support_integral(semicircle, -1.0, 1.0, n_start=32)
        b = support_integral(semicircle, -1.0, 1.0, n_start=64)
        assert abs(a - b) < 1e-12


class TestBatchedWeight:
    KS = (0.0, 1.0, 10.0, 40.0, 120.0)

    def test_rows_equal_lone_calls_bit_for_bit(self, monkeypatch):
        # each row stops at its own node count with the bits of a lone call
        ks = np.array(self.KS)
        batch = support_integral(semicircle, -1.0, 1.0,
                                 weight=lambda x: np.cos(np.multiply.outer(ks, x)))
        real, last = quadrature._nodes, []

        def recording(n):
            last.append(n)
            return real(n)

        monkeypatch.setattr(quadrature, "_nodes", recording)
        lone, stops = [], set()
        for k in self.KS:
            last.clear()
            lone.append(support_integral(semicircle, -1.0, 1.0,
                                         weight=lambda x, k=k: np.cos(k * x)))
            stops.add(last[-1])
        assert batch.shape == (len(self.KS),)
        assert batch.tolist() == lone
        assert len(stops) > 2  # the rows really stop at different node counts

    def test_one_row_is_an_array_of_one(self):
        val = support_integral(semicircle, -1.0, 1.0, weight=lambda x: (x * x)[None, :])
        assert val.shape == (1,)
        assert val[0] == support_integral(semicircle, -1.0, 1.0, weight=lambda x: x * x)

    def test_one_unsettled_row_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "N_MAX", 16)
        with pytest.raises(QuadratureError, match="within 16 nodes"):
            support_integral(lambda x: np.ones_like(x), 0.0, 1.0, tol=1e-12, n_start=8,
                             weight=lambda x: np.stack([x, np.cos(1e7 * x)]))


class TestPartialIntegrals:
    def test_midpoint_of_symmetric_density(self):
        vals = partial_integrals(semicircle, -1.0, 1.0, np.array([0.0]))
        assert abs(vals[0] - 0.5) < 1e-10

    def test_monotone_and_clipped(self):
        grid = np.linspace(-1.5, 1.5, 41)
        vals = partial_integrals(semicircle, -1.0, 1.0, grid)
        assert (np.diff(vals) >= -1e-12).all()
        assert (vals >= 0.0).all() and (vals <= 1.0).all()
        assert vals[0] == 0.0
        assert abs(vals[-1] - 1.0) < 1e-10

    def test_semicircle_distribution_function(self):
        grid = np.linspace(-1.0, 1.0, 201)
        exact = 0.5 + (grid * np.sqrt(1.0 - grid**2) + np.arcsin(grid)) / math.pi
        vals = partial_integrals(semicircle, -1.0, 1.0, grid)
        assert np.abs(vals - exact).max() < 1e-14
