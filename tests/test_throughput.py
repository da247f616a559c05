"""Throughput quadrature, baselines, Eb/N0 mapping, Monte Carlo, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnoma import quadrature
from regnoma import throughput as tp
from regnoma.ensembles import EnsembleSpec, EntryMode, GenerationError
from regnoma.spectra import DensityParams, analytic_density
from regnoma.throughput import (LN2, SWEEP_COLUMNS, Curve, MCResult, SweepSpec,
                                SweepVariable, cover_wyner_bound, db_to_linear,
                                dense_rs_throughput, ebno_from_snr,
                                finite_n_throughput_mc, linear_to_db,
                                regular_throughput, snr_for_ebno, sweep)

P_DEFAULT = DensityParams(beta=1.5, d=2.0)


def mc_spec(n=10, k=15, d=2, seed=0):
    return EnsembleSpec(n_resources=n, n_users=k, col_degree=d,
                        entry_mode=EntryMode.RADEMACHER, seed=seed)


class TestRegularThroughput:
    def test_vanishes_with_snr(self):
        assert regular_throughput(0.0, P_DEFAULT) == 0.0
        assert regular_throughput(1e-12, P_DEFAULT) < 1e-10

    def test_small_snr_slope_is_half_load_over_ln2(self):
        snr = 1e-6
        slope = snr * P_DEFAULT.beta / (2.0 * LN2)
        assert abs(regular_throughput(snr, P_DEFAULT) / slope - 1.0) < 1e-3

    def test_beats_dense_reference_at_matched_operating_point(self):
        snr = snr_for_ebno(db_to_linear(10.0), 1.5, 2.0)
        assert regular_throughput(snr, P_DEFAULT) > dense_rs_throughput(snr, 1.5)

    def test_strictly_increasing_in_snr(self):
        vals = [regular_throughput(s, P_DEFAULT)
                for s in (0.1, 0.5, 1.0, 5.0, 20.0, 100.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_load(self):
        vals = [regular_throughput(10.0, DensityParams(beta=b, d=2.0))
                for b in (1.0, 1.5, 2.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            regular_throughput(-1.0, P_DEFAULT)


class TestRegularClosedForm:
    @staticmethod
    def quadrature_throughput(snr, p):
        # the integral of the closed-form law, to a tolerance relative to its scale
        return 0.5 * quadrature.support_integral(
            lambda lam: analytic_density(lam, p), p.lambda_minus, p.lambda_plus,
            weight=lambda lam: np.log1p(snr * lam) / LN2,
            tol=1e-13 * cover_wyner_bound(snr, p.beta))

    # d stays 0.01 or more above 1 + 1/beta: nearer, a pole of the density sits
    # next to a support edge and the node-doubling quadrature is no oracle
    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(1.0, 8.0), log_gap=st.floats(-2.0, 1.7),
           log_snr=st.floats(-4.0, 5.99), ratio=st.floats(1.01, 100.0))
    def test_equals_quadrature_and_is_increasing_concave_and_bounded(
            self, beta, log_gap, log_snr, ratio):
        p = DensityParams(beta=beta, d=1.0 + 1.0 / beta + 10.0 ** log_gap)
        lo = 10.0 ** log_snr
        hi = min(ratio * lo, 1e6)
        c_lo, c_mid, c_hi = (regular_throughput(s, p) for s in (lo, 0.5 * (lo + hi), hi))
        assert abs(c_lo / self.quadrature_throughput(lo, p) - 1.0) < 1e-12
        assert c_lo < c_mid < c_hi
        assert c_mid >= 0.5 * (c_lo + c_hi)
        assert c_hi <= cover_wyner_bound(hi, beta)

    # references: 40-digit tanh-sinh integrals (mpmath) of the law over its
    # support, subdivided toward both edges; at these points a pole of the
    # density, at 0 or at beta d, lies within 1e-12 of a support edge
    @pytest.mark.parametrize("beta, d, snr, reference", [
        (1.5, 1.6666668, 0.2, 0.18396337267840911326),
        (2.0, 1.5000000001, 1.4, 0.9237053430926282956),
        (1.000001, 2.0, 75.0, 2.7320759943338220815),
        (3.0, 1.3333333334, 1000.0, 5.7380500906566276603),
    ])
    def test_exact_next_to_the_domain_boundary(self, beta, d, snr, reference):
        c = regular_throughput(snr, DensityParams(beta=beta, d=d))
        assert abs(c / reference - 1.0) < 1e-14


class TestDenseRsThroughput:
    def test_vanishes_with_snr(self):
        assert dense_rs_throughput(0.0, 1.5) == 0.0

    def test_small_snr_slope(self):
        snr = 1e-6
        slope = snr * 1.5 / (2.0 * LN2)
        assert abs(dense_rs_throughput(snr, 1.5) / slope - 1.0) < 1e-3

    def test_large_degree_regular_curve_converges_to_it(self):
        diff = abs(regular_throughput(10.0, DensityParams(beta=1.5, d=1000.0))
                   - dense_rs_throughput(10.0, 1.5))
        assert diff < 1e-3

    def test_unit_load_edge_singularity_integrable(self):
        # beta = 1 puts an inverse-square-root edge at the origin
        assert 0.0 < dense_rs_throughput(10.0, 1.0) < cover_wyner_bound(10.0, 1.0)

    @pytest.mark.parametrize("beta", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("snr", [0.1, 10.0, 1000.0])
    def test_matches_verdu_shamai_closed_form(self, beta, snr):
        # Verdu and Shamai, IEEE Trans. IT 45 (1999), per resource
        f = (math.sqrt(snr * (1.0 + math.sqrt(beta)) ** 2 + 1.0)
             - math.sqrt(snr * (1.0 - math.sqrt(beta)) ** 2 + 1.0)) ** 2
        two_c = (beta * math.log2(1.0 + snr - f / 4.0) + math.log2(1.0 + beta * snr - f / 4.0)
                 - math.log2(math.e) * f / (4.0 * snr))
        assert abs(dense_rs_throughput(snr, beta) / (0.5 * two_c) - 1.0) < 1e-12


class TestCoverWynerBound:
    def test_zero_at_zero_snr(self):
        assert cover_wyner_bound(0.0, 1.5) == 0.0

    def test_unit_load_closed_value(self):
        assert abs(cover_wyner_bound(3.0, 1.0) - 1.0) < 1e-12

    def test_dominates_both_curves(self):
        for beta in (1.0, 1.5, 2.0, 3.0):
            for snr in (0.5, 5.0, 50.0):
                cw = cover_wyner_bound(snr, beta)
                assert cw >= regular_throughput(snr, DensityParams(beta=beta, d=2.0))
                assert cw >= dense_rs_throughput(snr, beta)


class TestEbnoMapping:
    def test_direct_substitution(self):
        assert ebno_from_snr(1.0, 1.0, 0.5) == 1.0

    def test_linearity_in_snr(self):
        assert ebno_from_snr(3.0, 1.5, 0.7) == 3.0 * ebno_from_snr(1.0, 1.5, 0.7)

    def test_rejects_nonpositive_throughput(self):
        with pytest.raises(ValueError):
            ebno_from_snr(1.0, 1.5, 0.0)

    def test_round_trip_through_inverse(self):
        target = db_to_linear(10.0)
        snr = snr_for_ebno(target, 1.5, 2.0)
        back = ebno_from_snr(snr, 1.5, regular_throughput(snr, P_DEFAULT))
        assert abs(back / target - 1.0) < 1e-6

    def test_sweep_abscissa_reconstruction(self):
        # recomputing Eb/N0 from (snr, C) reproduces each grid point
        for ebno_db in (2.0, 6.0, 10.0):
            target = db_to_linear(ebno_db)
            snr = snr_for_ebno(target, 1.5, 2.0)
            c = regular_throughput(snr, P_DEFAULT)
            assert abs(linear_to_db(ebno_from_snr(snr, 1.5, c)) - ebno_db) < 1e-5

    def test_map_is_monotone_on_grid(self):
        snrs = np.logspace(-3, 3, 25)
        vals = [ebno_from_snr(s, 1.5, regular_throughput(s, P_DEFAULT))
                for s in snrs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_rejects_unreachable_targets(self):
        with pytest.raises(ValueError, match="below the minimum achievable"):
            snr_for_ebno(0.5 * LN2, 1.5, 2.0)
        with pytest.raises(ValueError, match="not reachable below snr = 1000000.0"):
            snr_for_ebno(1e9, 1.5, "dense")

    def test_inverse_locates_ten_db_point_in_unit_decade(self):
        snr = snr_for_ebno(db_to_linear(10.0), 1.5, 2.0)
        assert 1.0 < snr < 100.0
        assert abs(snr - 36.257) < 0.01

    def test_dense_selector(self):
        snr = snr_for_ebno(db_to_linear(10.0), 1.5, "dense")
        back = ebno_from_snr(snr, 1.5, dense_rs_throughput(snr, 1.5))
        assert abs(back / db_to_linear(10.0) - 1.0) < 1e-6

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            snr_for_ebno(db_to_linear(10.0), 1.5, "nonsense")


def bisection_snr_for_ebno(target, beta, d):
    """The geometric bisection that snr_for_ebno replaced, kept as its reference."""
    cfun = tp._curve_throughput(beta, d)
    lo, hi = tp.SNR_BRACKET
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if ebno_from_snr(mid, beta, cfun(mid)) < target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-14:
            break
    return math.sqrt(lo * hi)


@pytest.fixture
def quadrature_calls(monkeypatch):
    calls = []
    real = quadrature.support_integral

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "support_integral", counting)
    return calls


class TestSecantInversion:
    @pytest.mark.parametrize("selector", [2.0, "dense", "cover_wyner"])
    def test_agrees_with_bisection_on_the_fine_grid(self, selector, quadrature_calls):
        per_inversion = []
        for ebno_db in np.linspace(0.0, 20.0, 201):
            target = db_to_linear(ebno_db)
            quadrature_calls.clear()
            snr = snr_for_ebno(target, 1.5, selector)
            per_inversion.append(len(quadrature_calls))
            assert abs(snr / bisection_snr_for_ebno(target, 1.5, selector) - 1.0) < 1e-13
        if selector == "dense":
            assert 0 < max(per_inversion) <= 20
        else:  # closed forms, no quadrature
            assert max(per_inversion) == 0


class TestDbHelpers:
    def test_round_trip(self):
        assert db_to_linear(10.0) == 10.0
        assert abs(linear_to_db(db_to_linear(7.3)) - 7.3) < 1e-12

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)


class TestFiniteNThroughputMC:
    def test_zero_snr_is_exactly_zero(self):
        res = finite_n_throughput_mc(mc_spec(), 0.0, 10)
        assert res.mean == 0.0

    def test_log_det_equals_triangular_factorization(self):
        from regnoma.ensembles import generate_regular
        m = generate_regular(mc_spec(n=50, k=75, seed=2), realization=0)
        snr = 10.0
        eigs = np.linalg.eigvalsh(m.gram())
        via_eigs = float(np.sum(np.log1p(snr * eigs)) / (2.0 * 50 * LN2))
        chol = np.linalg.cholesky(np.eye(50) + snr * m.gram())
        via_chol = float(np.sum(np.log(np.diag(chol))) / (50 * LN2))
        assert abs(via_eigs - via_chol) < 1e-8

    def test_matches_asymptotic_curve_at_moderate_size(self):
        spec = mc_spec(n=200, k=300, seed=1)
        res = finite_n_throughput_mc(spec, 10.0, 100)
        asymptotic = regular_throughput(10.0, P_DEFAULT)
        assert abs(res.mean - asymptotic) < 3.0 * res.stderr + 0.01

    def test_irregular_ensemble_runs(self):
        res = finite_n_throughput_mc(mc_spec(n=50, k=75, seed=3), 10.0, 30,
                                     irregular=True)
        assert res.n_trials == 30 and res.n_failed == 0
        assert 0.5 < res.mean < 3.0

    def test_counts_failed_trials(self, monkeypatch):
        from regnoma import throughput as tp
        from regnoma.ensembles import generate_regular as real_generate

        def flaky(spec, realization=0):
            if realization % 2 == 0:
                raise GenerationError("forced")
            return real_generate(spec, realization=realization)

        monkeypatch.setattr(tp, "generate_regular", flaky)
        res = finite_n_throughput_mc(mc_spec(), 10.0, 10)
        assert res.n_failed == 5 and res.n_trials == 5

    def test_requires_at_least_one_trial(self):
        with pytest.raises(ValueError):
            finite_n_throughput_mc(mc_spec(), 10.0, 0)


class TestSweepSpec:
    def test_load_sweep_requires_integer_load_degree_product(self):
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.LOAD, values=(1.2,), d=2.0,
                      ebno_db=10.0)

    def test_points_below_the_probability_law_bound_rejected(self):
        # d >= 1 + 1/beta, the same check as DensityParams
        with pytest.raises(ValueError, match=r"1 \+ 1/beta"):
            SweepSpec(variable=SweepVariable.EBNO, values=(10.0,),
                      beta=1.2, d=1.5)
        with pytest.raises(ValueError, match=r"1 \+ 1/beta"):
            SweepSpec(variable=SweepVariable.SPARSITY, values=(2.0, 1.5),
                      beta=1.2, snr_db=10.0)

    def test_ebno_sweep_rejects_fixed_operating_point(self):
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.EBNO, values=(10.0,),
                      beta=1.5, d=2.0, snr_db=10.0)

    def test_exactly_one_operating_point_required(self):
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.LOAD, values=(1.5,), d=2.0)
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.LOAD, values=(1.5,), d=2.0,
                      snr_db=10.0, ebno_db=10.0)

    def test_duplicate_curves_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.EBNO, values=(10.0,),
                      beta=1.5, d=2.0,
                      curves=(Curve.REGULAR, Curve.REGULAR))

    def test_mc_curves_need_sampling_parameters(self):
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.EBNO, values=(10.0,),
                      beta=1.5, d=2.0, curves=(Curve.REGULAR_MC,))

    def test_range_constructor_filters_inadmissible_loads(self):
        spec = SweepSpec.from_range(SweepVariable.LOAD, 1.0, 3.0, 9,
                                    d=2.0, ebno_db=10.0)
        assert spec.values == (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_range_constructor_rejects_empty_admissible_set(self):
        with pytest.raises(ValueError):
            SweepSpec.from_range(SweepVariable.LOAD, 1.1, 1.3, 3,
                                 d=2.0, ebno_db=10.0)


class TestSweep:
    def test_load_sweep_ordering(self):
        spec = SweepSpec(variable=SweepVariable.LOAD,
                         values=(1.0, 1.5, 2.0, 2.5, 3.0),
                         d=2.0, ebno_db=10.0)
        rows = sweep(spec)
        assert len(rows) == 5
        for row in rows:
            assert not row["failed"]
            assert row["cover_wyner"] >= row["regular"] > row["dense_rs"]
            assert row["regular_mc"] is None

    def test_sparsity_sweep_decreases_toward_dense(self):
        spec = SweepSpec(variable=SweepVariable.SPARSITY,
                         values=(2.0, 4.0, 10.0, 40.0),
                         beta=1.5, ebno_db=10.0)
        rows = sweep(spec)
        regs = [row["regular"] for row in rows]
        assert all(a > b for a, b in zip(regs, regs[1:]))
        assert all(r > row["dense_rs"] for r, row in zip(regs, rows))

    def test_ebno_sweep_monotone(self):
        spec = SweepSpec(variable=SweepVariable.EBNO,
                         values=(0.0, 4.0, 8.0, 12.0),
                         beta=1.5, d=2.0)
        rows = sweep(spec)
        for key in ("regular", "dense_rs", "cover_wyner"):
            vals = [row[key] for row in rows]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_only_the_dense_curve_is_integrated(self, quadrature_calls):
        values = (0.0, 10.0, 20.0)
        closed = SweepSpec(variable=SweepVariable.EBNO, values=values,
                           beta=1.5, d=2.0,
                           curves=(Curve.REGULAR, Curve.COVER_WYNER))
        assert not any(row["failed"] for row in sweep(closed))
        assert quadrature_calls == []
        with_dense = SweepSpec(variable=SweepVariable.EBNO, values=values,
                               beta=1.5, d=2.0,
                               curves=(Curve.REGULAR, Curve.DENSE_RS, Curve.COVER_WYNER))
        assert not any(row["failed"] for row in sweep(with_dense))
        assert len(quadrature_calls) > 0

    def test_mc_curves_carry_errors(self):
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(10.0,),
                         beta=1.5, d=2.0,
                         curves=(Curve.REGULAR, Curve.REGULAR_MC,
                                 Curve.IRREGULAR_MC),
                         mc_n=10, mc_trials=200, seed=1)
        row = sweep(spec)[0]
        assert list(row) == [*SWEEP_COLUMNS, "failed_mc_trials", "failed"]
        assert row["failed_mc_trials"] == 0
        assert row["regular_mc_stderr"] > 0.0
        assert row["irregular_mc_stderr"] > 0.0
        assert abs(row["regular_mc"] - row["regular"]) < 0.1

    def test_failed_point_is_marked_and_batch_continues(self, monkeypatch):
        from regnoma import throughput as tp

        def always_fails(spec, realization=0):
            raise GenerationError("forced")

        monkeypatch.setattr(tp, "generate_regular", always_fails)
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(8.0, 10.0),
                         beta=1.5, d=2.0,
                         curves=(Curve.REGULAR_MC,), mc_n=10, mc_trials=5)
        rows = sweep(spec)
        assert all(list(row) == [*SWEEP_COLUMNS, "failed_mc_trials", "failed"]
                   for row in rows)
        assert [row["failed"] for row in rows] == [True, True]
        assert all(row["regular_mc"] is None for row in rows)

    def test_failed_mc_trials_are_counted_per_row(self, monkeypatch):
        from regnoma.ensembles import generate_regular as real_generate

        def flaky(spec, realization=0):
            if realization in (1, 3):
                raise GenerationError("forced")
            return real_generate(spec, realization=realization)

        monkeypatch.setattr(tp, "generate_regular", flaky)
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(8.0, 10.0),
                         beta=1.5, d=2.0,
                         curves=(Curve.REGULAR, Curve.REGULAR_MC,
                                 Curve.IRREGULAR_MC),
                         mc_n=10, mc_trials=5)
        rows = sweep(spec)
        # the irregular sampler is not patched, so only the regular curve loses trials
        assert [row["failed_mc_trials"] for row in rows] == [2, 2]
        assert not any(row["failed"] for row in rows)
        assert all(np.isfinite(row["regular_mc"]) for row in rows)

    def test_mc_rejects_fractional_degree(self):
        spec = SweepSpec(variable=SweepVariable.SPARSITY, values=(2.5,),
                         beta=2.0, snr_db=10.0,
                         curves=(Curve.REGULAR_MC,), mc_n=10, mc_trials=5)
        with pytest.raises(ValueError):
            sweep(spec)
