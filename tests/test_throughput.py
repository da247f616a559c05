"""Throughput quadrature, baselines, Eb/N0 mapping, Monte Carlo, sweeps."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regnoma import quadrature
from regnoma import throughput as tp
from regnoma.ensembles import (EnsembleSpec, EntryMode, GenerationError,
                               SparseSignatureMatrix)
from regnoma.spectra import (DensityParams, analytic_density, gram_transform,
                             marchenko_pastur_density, pooled_spectrum)
from regnoma.throughput import (LN2, SWEEP_COLUMNS, Curve, MCResult, SweepSpec,
                                SweepVariable, cover_wyner_bound, db_to_linear,
                                dense_rs_throughput, ebno_from_snr,
                                finite_n_throughput_mc, regular_throughput,
                                snr_for_ebno, sweep)

P_DEFAULT = DensityParams(beta=1.5, d=2.0)
# every curve's Eb/N0 falls to ln 2 as snr -> 0
FLOOR_DB = 10.0 * math.log10(LN2)


def mc_spec(n=10, k=15, d=2, seed=0):
    return EnsembleSpec(n_resources=n, n_users=k, col_degree=d,
                        entry_mode=EntryMode.RADEMACHER, seed=seed)


class TestRegularThroughput:
    def test_vanishes_with_snr(self):
        assert regular_throughput(0.0, P_DEFAULT) == 0.0
        assert regular_throughput(1e-12, P_DEFAULT) < 1e-10
        # the closed form itself gives +0.0 at snr 0 across the (beta, d) domain
        for beta in np.linspace(1.0, 10.0, 19):
            for d in np.geomspace(1.0 + 1.0 / beta, 1e3, 20):
                zero = regular_throughput(0.0, DensityParams(beta=beta, d=d))
                assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def test_small_snr_slope_is_half_load_over_ln2(self):
        snr = 1e-6
        slope = snr * P_DEFAULT.beta / (2.0 * LN2)
        assert abs(regular_throughput(snr, P_DEFAULT) / slope - 1.0) < 1e-3

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0, 10.0])
    def test_slope_is_the_gram_transform_at_minus_inverse_snr(self, beta, d):
        # d(2 ln2 C)/dsnr = int lam rho / (1 + snr lam) = (1 + G(-1/snr) / snr) / snr:
        # the Bethe free energy against the closed-form transform
        p = DensityParams(beta=beta, d=d)
        for snr in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
            h = 1e-5 * snr
            slope = LN2 * (regular_throughput(snr + h, p) - regular_throughput(snr - h, p)) / h
            gram = gram_transform(-1.0 / snr + 0j, p)[1]
            want = (1.0 + gram.real / snr) / snr
            assert gram.imag == 0.0
            assert abs(slope - want) < 1e-8 * want

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

    # references: the Bethe energy in 100-digit arithmetic (mpmath), which
    # agrees with a 60-digit tanh-sinh integral of the law to 1e-60 at every point
    @pytest.mark.parametrize("beta, d, snr, reference", [
        (10.0, 2.0, 1e-6, 7.2134373339765078978650257066912658074079078494896e-06),
        (10.0, 2.0, 1.0, 1.7141678786313706228568537912041576008635171549959),
        (10.0, 2.0, 1e6, 11.607756805034847051664336365735173214833900094288),
        (10.0, 2.0, 1e10, 18.251612918674951955716815174117726813324590694266),
        (10.0, 2.0, 1e16, 28.217397203329424783115125852211417548584698654555),
        (1.5, 2.0, 1e-6, 1.0820201986470649178104616446005069657606134902181e-06),
        (1.5, 2.0, 1.0, 0.61252648786594614440041941769187741692104739339725),
        (1.5, 2.0, 1e6, 10.069544621276888935860219723571136576004652398378),
        (1.5, 2.0, 1e10, 16.713399849352702363364730027058019138610531675643),
        (1.5, 2.0, 1e16, 26.679184133918609833778790092525711740445444176146),
    ])
    def test_exact_up_to_snr_1e16(self, beta, d, snr, reference):
        c = regular_throughput(snr, DensityParams(beta=beta, d=d))
        assert abs(c / reference - 1.0) < 2e-15

    @pytest.mark.parametrize("k, betas", [(3, (1.1, 1.2, 1.5, 2.0)),
                                          (6, (1.2, 1.5, 2.0, 3.0, 4.0)),
                                          (12, (1.2, 1.5, 2.0, 3.0, 4.0))])
    def test_high_snr_gap_over_dense_depends_on_beta_d_alone(self, k, betas):
        # 2 ln2 C - ln snr -> E[ln lam] as snr -> inf; above the Marchenko-Pastur
        # E[ln lam] the regular law gains 1 + (k - 1) ln((k - 1)/k) at k = beta d
        snr = 1e12
        gap = 1.0 + (k - 1) * math.log((k - 1) / k)
        for beta in betas:
            e_mp = (beta - 1.0) * math.log(beta / (beta - 1.0)) - 1.0 + math.log(beta)
            c = regular_throughput(snr, DensityParams(beta=beta, d=k / beta))
            assert abs(2.0 * LN2 * c - math.log(snr) - e_mp - gap) < 1e-10

    @pytest.mark.parametrize("snr", [1e-310, 5e-324])
    def test_subnormal_snr_is_the_first_order_term(self, snr):
        # -1/snr overflows below 5.6e-309; C = beta snr / (2 ln2) to rounding there
        for p in (P_DEFAULT, DensityParams(beta=10.0, d=2.0)):
            c = regular_throughput(snr, p)
            assert 0.0 < c < math.inf
            assert abs(c / (p.beta * snr / (2.0 * LN2)) - 1.0) < (1e-10 if snr > 1e-320 else 1.0)

    def test_batch_of_laws_equals_scalar_calls(self):
        betas, ds = np.array([1.0, 1.5, 10.0, 1.5]), np.array([3.0, 2.0, 2.0, 40.0])
        snrs = np.array([1e-6, 10.0, 1e10, 0.0])
        got = regular_throughput(snrs, DensityParams(beta=betas, d=ds))
        assert got.tolist() == [regular_throughput(s, DensityParams(beta=b, d=d))
                                for s, b, d in zip(snrs.tolist(), betas.tolist(), ds.tolist())]

    @pytest.mark.parametrize("call,match", [
        (lambda: regular_throughput(1.0, DensityParams(beta=1.5, d=np.array([2.0, 3.0]))),
         "snrs' shape"),
        (lambda: DensityParams(beta=np.array([1.5, 2.0, 3.0]), d=np.array([2.0, 3.0])),
         "1-D arrays of one length"),
        (lambda: regular_throughput(np.array([1.0, 2.0, 3.0]),
                                    DensityParams(beta=1.5, d=np.array([2.0, 3.0]))),
         "snrs' shape"),
    ], ids=["two-laws-one-snr", "three-loads-two-degrees", "two-laws-three-snrs"])
    def test_batch_of_laws_of_another_length_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_array_equals_scalar_calls_bit_for_bit(self):
        snrs = np.concatenate(([0.0], np.geomspace(1e-6, 1e16, 301), [0.0]))
        for p in (P_DEFAULT, DensityParams(beta=10.0, d=2.0), DensityParams(beta=1.0, d=3.0)):
            curve = regular_throughput(snrs, p)
            assert isinstance(curve, np.ndarray) and curve.shape == snrs.shape
            assert curve.tolist() == [regular_throughput(s, p) for s in snrs.tolist()]
        assert isinstance(regular_throughput(1.0, P_DEFAULT), float)
        assert regular_throughput(np.array([]), P_DEFAULT).shape == (0,)


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
        # the paper's ordering: regular beats dense by ~ beta snr^2 / (4 d ln 2)
        assert dense_rs_throughput(lo, beta) < c_lo

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
        # the quadrature stops a zero row at its first check, on +0.0
        for beta in (1.0, 1.5, 3.0, 10.0):
            assert math.copysign(1.0, dense_rs_throughput(0.0, beta)) == 1.0
            mixed = dense_rs_throughput(np.array([0.0, 10.0, 0.0]), beta)
            assert np.array_equal(np.copysign(1.0, mixed[[0, 2]]), [1.0, 1.0])
            assert mixed[1] == dense_rs_throughput(10.0, beta)

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

    def test_load_per_snr_equals_scalar_calls_bit_for_bit(self, quadrature_calls):
        snrs = np.logspace(-6, 6, 9)
        betas = np.array([1.0, 1.5, 4.0] * 3)
        curve = dense_rs_throughput(snrs, betas)
        assert len(quadrature_calls) == 3  # one quadrature per distinct load
        assert curve.tolist() == [
            dense_rs_throughput(s, b) for s, b in zip(snrs.tolist(), betas.tolist())]

    @pytest.mark.parametrize("snr,beta,match", [
        (10.0, math.nan, "finite and >= 1"),
        (np.array([1.0, 10.0]), np.array([1.5, 0.5]), "finite and >= 1"),
        (np.array([1.0, 10.0, 100.0]), np.array([1.5, 2.0]), "snrs' shape"),
        (10.0, np.array([1.5]), "snrs' shape"),
    ])
    def test_bad_load_rejected_before_any_quadrature(self, quadrature_calls, snr, beta,
                                                     match):
        with pytest.raises(ValueError, match=match):
            dense_rs_throughput(snr, beta)
        assert quadrature_calls == []

    def test_converges_at_the_bracket_ends_over_every_load(self):
        betas = np.concatenate(([1.0, 1.0 + 1e-12], np.geomspace(1.0 + 1e-6, 1e4, 62)))
        for snr in tp.SNR_BRACKET:
            curve = dense_rs_throughput(np.full(betas.size, snr), betas)
            assert np.isfinite(curve).all() and (curve > 0.0).all()


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

    def test_array_equals_scalar_calls(self):
        snrs = np.concatenate(([0.0], np.geomspace(1e-6, 1e16, 61)))
        bound = cover_wyner_bound(snrs, 1.5)
        assert isinstance(bound, np.ndarray) and bound.shape == snrs.shape
        assert bound.tolist() == [cover_wyner_bound(s, 1.5) for s in snrs.tolist()]
        with pytest.raises(ValueError, match="finite and >= 0"):
            cover_wyner_bound(np.array([1.0, -1.0]), 1.5)


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
            assert abs(10 * math.log10(ebno_from_snr(snr, 1.5, c)) - ebno_db) < 1e-5

    def test_map_is_monotone_on_grid(self):
        snrs = np.logspace(-3, 3, 25)
        vals = [ebno_from_snr(s, 1.5, regular_throughput(s, P_DEFAULT))
                for s in snrs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_rejects_unreachable_targets(self):
        with pytest.raises(ValueError, match="below the minimum achievable"):
            snr_for_ebno(0.5 * LN2, 1.5, 2.0)
        with pytest.raises(ValueError, match="not reachable below snr = 1000000.0"):
            snr_for_ebno(1e9, 1.5, Curve.DENSE_RS)

    def test_inverse_locates_ten_db_point_in_unit_decade(self):
        snr = snr_for_ebno(db_to_linear(10.0), 1.5, 2.0)
        assert 1.0 < snr < 100.0
        assert abs(snr - 36.257) < 0.01

    def test_dense_selector(self):
        snr = snr_for_ebno(db_to_linear(10.0), 1.5, Curve.DENSE_RS)
        back = ebno_from_snr(snr, 1.5, dense_rs_throughput(snr, 1.5))
        assert abs(back / db_to_linear(10.0) - 1.0) < 1e-6

    @pytest.mark.parametrize("selector", ["dense", "cover_wyner", "2", Curve.REGULAR,
                                          Curve.REGULAR_MC])
    def test_unknown_selector(self, selector):
        with pytest.raises(ValueError, match="unknown curve selector"):
            snr_for_ebno(db_to_linear(10.0), 1.5, selector)


def regular_batch_throughput(snr, beta):
    """The regular curve at degree 3, a batch of laws when ``beta`` is an array."""
    d = 3.0 if np.ndim(beta) == 0 else np.full(np.shape(beta), 3.0)
    return regular_throughput(snr, DensityParams(beta=beta, d=d))


# every curve as a function of (snr, beta), each reading its loads through one rule
LOAD_CURVES = {
    "cover_wyner": cover_wyner_bound,
    "ebno_from_snr": lambda snr, beta: ebno_from_snr(snr, beta, 0.25),
    "dense_rs": dense_rs_throughput,
    "regular_batch": regular_batch_throughput,
}
MP_GRID = np.linspace(0.0, 12.0, 25)


class TestOneLoadRule:
    """The curves and the Marchenko-Pastur law reject a bad load one way."""

    @pytest.mark.parametrize("name", [*LOAD_CURVES, "marchenko_pastur"])
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -0.05, 0.5])
    def test_bad_load_rejected_before_any_quadrature(self, quadrature_calls, name, beta):
        message = rf"^load beta must be finite and >= 1, got {re.escape(str(beta))}$"
        with pytest.raises(ValueError, match=message):
            if name == "marchenko_pastur":
                marchenko_pastur_density(MP_GRID, beta)
            else:
                LOAD_CURVES[name](10.0, beta)
        if name != "marchenko_pastur":  # a load per snr names its first bad load
            with pytest.raises(ValueError, match=message):
                LOAD_CURVES[name](np.array([1.0, 10.0, 100.0]), np.array([1.5, beta, 0.25]))
        assert quadrature_calls == []

    @pytest.mark.parametrize("name", LOAD_CURVES)
    @pytest.mark.parametrize("snr,beta", [
        (np.array([1.0, 10.0, 100.0]), np.array([1.5, 2.0])),
        (10.0, np.array([1.5])),
    ])
    def test_load_array_of_another_shape_rejected_before_any_quadrature(
            self, quadrature_calls, name, snr, beta):
        with pytest.raises(ValueError, match=r"^beta must be a scalar or of the snrs' shape, "
                                             rf"got \({beta.size},\)$"):
            LOAD_CURVES[name](snr, beta)
        assert quadrature_calls == []

    # digests of the curve at a load per snr, then at load 1.5, recorded
    # before the curves shared their load rule
    @pytest.mark.parametrize("name,digest", [
        ("cover_wyner", "7e927537bd6327a7"),
        ("ebno_from_snr", "daa7daa1c15f5cbd"),
        ("dense_rs", "344ab8b8ed96c171"),
        ("regular_batch", "c5a01e0582be9c01"),
    ])
    def test_valid_loads_keep_their_bits(self, name, digest):
        curve = LOAD_CURVES[name]
        snrs, loads = np.array([0.0, 1e-3, 1.0, 10.0, 1e4]), np.array([1.0, 1.5, 4.0, 1.5, 1.0])
        per_snr = curve(snrs, loads)
        assert per_snr.tolist() == [curve(s, b) for s, b in zip(snrs.tolist(), loads.tolist())]
        values = np.concatenate([per_snr, curve(snrs, 1.5)])
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest

    def test_marchenko_pastur_keeps_its_bits(self):
        values = np.concatenate([marchenko_pastur_density(MP_GRID, b) for b in (1.0, 1.5, 4.0)])
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == "4e4bde6c74e729a2"


def bisection_snr_for_ebno(target, beta, d):
    """The geometric bisection that snr_for_ebno replaced, kept as its reference."""
    if d is Curve.DENSE_RS:
        cfun = lambda snr: dense_rs_throughput(snr, beta)
    elif d is Curve.COVER_WYNER:
        cfun = lambda snr: cover_wyner_bound(snr, beta)
    else:
        cfun = lambda snr: regular_throughput(snr, DensityParams(beta=beta, d=d))
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
    @pytest.mark.parametrize("selector", [2.0, Curve.DENSE_RS, Curve.COVER_WYNER])
    def test_agrees_with_bisection_on_the_fine_grid(self, selector, quadrature_calls):
        per_inversion = []
        for ebno_db in np.linspace(0.0, 20.0, 201):
            target = db_to_linear(ebno_db)
            quadrature_calls.clear()
            snr = snr_for_ebno(target, 1.5, selector)
            per_inversion.append(len(quadrature_calls))
            assert abs(snr / bisection_snr_for_ebno(target, 1.5, selector) - 1.0) < 1e-13
        if selector is Curve.DENSE_RS:
            assert 0 < max(per_inversion) <= 20
        else:  # closed forms, no quadrature
            assert max(per_inversion) == 0


FINE_TARGETS = [db_to_linear(x) for x in np.linspace(0.0, 20.0, 201)]


@pytest.fixture
def curve_snrs(monkeypatch):
    """The snrs at which any asymptotic curve is evaluated."""
    snrs = []
    for name in ("regular_throughput", "dense_rs_throughput", "cover_wyner_bound"):
        real = getattr(tp, name)

        def recording(snr, *args, real=real, **kwargs):
            snrs.extend(np.atleast_1d(snr).tolist())
            return real(snr, *args, **kwargs)

        monkeypatch.setattr(tp, name, recording)
    return snrs


class TestBatchedInversion:
    @pytest.mark.parametrize("selector", [2.0, Curve.DENSE_RS, Curve.COVER_WYNER])
    def test_array_equals_scalar_calls_bit_for_bit(self, selector):
        snrs = snr_for_ebno(np.array(FINE_TARGETS), 1.5, selector)
        assert isinstance(snrs, np.ndarray) and snrs.shape == (201,)
        assert snrs.tolist() == [snr_for_ebno(t, 1.5, selector) for t in FINE_TARGETS]

    @pytest.mark.parametrize("beta", [1.0, 1.5, 3.0])
    def test_dense_array_equals_scalar_calls_bit_for_bit(self, beta):
        snrs = np.concatenate(([0.0], np.logspace(-6, 6, 60), [0.0]))
        curve = dense_rs_throughput(snrs, beta)
        assert curve.shape == snrs.shape
        assert curve.tolist() == [dense_rs_throughput(s, beta) for s in snrs.tolist()]

    def test_ebno_array_equals_scalar_calls(self):
        snrs = np.logspace(-3, 3, 7)
        cs = np.array([regular_throughput(s, P_DEFAULT) for s in snrs.tolist()])
        assert ebno_from_snr(snrs, 1.5, cs).tolist() == [
            ebno_from_snr(s, 1.5, c) for s, c in zip(snrs.tolist(), cs.tolist())]

    @pytest.mark.parametrize("bad,match", [(0.5 * LN2, "below the minimum achievable"),
                                           (1e9, "not reachable below snr")])
    def test_every_target_is_checked_before_the_first_step(self, curve_snrs, bad, match):
        with pytest.raises(ValueError, match=match):
            snr_for_ebno(np.array([db_to_linear(10.0), bad]), 1.5, Curve.DENSE_RS)
        assert set(curve_snrs) == set(tp.SNR_BRACKET)

    @pytest.mark.parametrize("selector", ["degrees", Curve.COVER_WYNER])
    def test_a_curve_per_target_equals_scalar_calls(self, selector):
        targets = np.array([db_to_linear(x) for x in (0.0, 6.0, 6.0, 20.0)])
        betas, ds = np.array([1.5, 1.5, 4.0, 2.0]), np.array([2.0, 12.0, 2.0, 3.0])
        d = ds if selector == "degrees" else selector
        snrs = snr_for_ebno(targets, betas, d)
        assert snrs.tolist() == [
            snr_for_ebno(t, b, x) for t, b, x in zip(
                targets.tolist(), betas.tolist(),
                ds.tolist() if selector == "degrees" else [selector] * 4)]

    def test_a_curve_per_target_is_checked(self):
        targets = np.full(3, db_to_linear(6.0))
        with pytest.raises(ValueError, match="targets' shape"):
            snr_for_ebno(targets, np.array([1.5, 2.0]), 2.0)
        # the reach names the law of the target that misses it
        with pytest.raises(ValueError, match="regular curve at beta = 1.5, d = 2.0,"):
            snr_for_ebno(np.array([db_to_linear(6.0), db_to_linear(FLOOR_DB + 1e-6)]),
                         np.array([2.0, 1.5]), np.array([12.0, 2.0]))

    def test_empty_and_multidimensional_targets(self):
        assert snr_for_ebno(np.array([]), 1.5, Curve.DENSE_RS).shape == (0,)
        with pytest.raises(ValueError, match="1-D array"):
            snr_for_ebno(np.full((2, 2), 10.0), 1.5, 2.0)


class TestDbHelpers:
    def test_round_trip(self):
        assert db_to_linear(10.0) == 10.0
        assert abs(10 * math.log10(db_to_linear(7.3)) - 7.3) < 1e-12


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

    def test_seeds_draw_independent_streams(self):
        means = {finite_n_throughput_mc(EnsembleSpec(n_resources=10, n_users=15, col_degree=2,
                                                     entry_mode=EntryMode.ONES, seed=seed),
                                        10.0, 2000).mean
                 for seed in (0, 3, 15)}
        assert len(means) == 3
        assert max(means) - min(means) > 1e-6

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

    @pytest.mark.parametrize("irregular", [False, True])
    def test_equals_a_per_trial_loop_bit_for_bit(self, irregular):
        # the reference: one 1-D sum per trial and snr, then 1-D mean and std
        spec, snrs, trials = mc_spec(seed=5), np.array([0.0, 0.3, 10.0, 1e3]), 40
        gen = tp.generate_irregular if irregular else tp.generate_regular
        eigs = [np.linalg.eigvalsh(gen(spec, realization=t).gram()) for t in range(trials)]
        res = finite_n_throughput_mc(spec, snrs, trials, irregular)
        for j, snr in enumerate(snrs):
            per_trial = np.array([np.log1p(snr * e).sum() / (2.0 * 10 * LN2) for e in eigs])
            assert res.mean[j] == per_trial.mean()
            assert res.stderr[j] == per_trial.std(ddof=1) / math.sqrt(trials)

    def test_trials_are_the_draws_of_the_pooled_spectrum(self):
        # one loop draws both: with Rademacher entries nothing is dropped from
        # the pool, so its rows are the MC's trials in order
        spec, snrs, trials = mc_spec(seed=6), np.array([0.3, 10.0, 1e3]), 25
        eigs = pooled_spectrum(spec, trials).reshape(trials, spec.n_resources)
        res = finite_n_throughput_mc(spec, snrs, trials)
        for j, snr in enumerate(snrs):
            per_trial = np.array([np.log1p(snr * e).sum() / (2.0 * 10 * LN2) for e in eigs])
            assert res.mean[j] == per_trial.mean()
            assert res.stderr[j] == per_trial.std(ddof=1) / math.sqrt(trials)

    @pytest.mark.parametrize("irregular", [False, True])
    def test_one_gram_buffer_serves_every_trial(self, monkeypatch, irregular):
        spec = mc_spec(seed=4)
        expected = finite_n_throughput_mc(spec, np.array([0.5, 10.0]), 6, irregular)
        buffers = []
        gram = SparseSignatureMatrix.gram

        def spy(self, out=None):
            buffers.append(out)
            return gram(self, out)

        monkeypatch.setattr(SparseSignatureMatrix, "gram", spy)
        res = finite_n_throughput_mc(spec, np.array([0.5, 10.0]), 6, irregular)
        assert len(buffers) == 6 and buffers[0] is not None
        assert all(b is buffers[0] for b in buffers)
        assert res.mean.tobytes() == expected.mean.tobytes()
        assert res.stderr.tobytes() == expected.stderr.tobytes()

    def test_many_snrs_and_trials_stay_small_in_memory(self):
        # one snrs x trials x N temporary would peak near 61.5 MB here; a small
        # call first keeps one-off lazy imports out of the count
        snrs = np.logspace(-3, 3, 201)
        finite_n_throughput_mc(mc_spec(seed=1), snrs[:2], 3)
        tracemalloc.start()
        try:
            res = finite_n_throughput_mc(mc_spec(seed=1), snrs, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_trials == 2000 and res.mean.shape == (201,)
        assert peak < 8e6

    @settings(max_examples=40, deadline=None)
    @given(snrs=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
                         min_size=1, max_size=5),
           irregular=st.booleans(), trials=st.integers(1, 12),
           failing=st.sets(st.integers(0, 11), max_size=12))
    def test_array_call_equals_scalar_calls_bit_for_bit(self, snrs, irregular,
                                                        trials, failing):
        # a flaky sampler fails the trials in ``failing`` whatever the snr
        name = "generate_irregular" if irregular else "generate_regular"
        real = getattr(tp, name)

        def flaky(spec, realization=0):
            if realization in failing:
                raise GenerationError("forced")
            return real(spec, realization=realization)

        spec = mc_spec(seed=7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tp, name, flaky)
            if failing >= set(range(trials)):
                with pytest.raises(GenerationError):
                    finite_n_throughput_mc(spec, np.array(snrs), trials, irregular)
                return
            res = finite_n_throughput_mc(spec, np.array(snrs), trials, irregular)
            singles = [finite_n_throughput_mc(spec, snr, trials, irregular)
                       for snr in snrs]
        assert res.mean.shape == res.stderr.shape == (len(snrs),)
        assert all(type(r.mean) is type(r.stderr) is float for r in singles)
        assert type(res.n_trials) is type(res.n_failed) is int
        assert res.mean.tobytes() == np.array([r.mean for r in singles]).tobytes()
        assert res.stderr.tobytes() == np.array([r.stderr for r in singles]).tobytes()
        assert {(r.n_trials, r.n_failed) for r in singles} == {(res.n_trials, res.n_failed)}
        assert res.n_failed == len(failing & set(range(trials)))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_one_bad_snr_in_an_array_is_rejected_before_any_draw(self, monkeypatch,
                                                                 bad):
        def no_draw(spec, realization=0):
            raise AssertionError("drew a matrix")

        monkeypatch.setattr(tp, "generate_regular", no_draw)
        with pytest.raises(ValueError, match="snr must be finite"):
            finite_n_throughput_mc(mc_spec(), np.array([1.0, bad, 3.0]), 5)

    @pytest.mark.parametrize("snr", [np.zeros(0), np.ones((2, 2))])
    def test_rejects_empty_and_multidimensional_snr(self, snr):
        with pytest.raises(ValueError, match="snr"):
            finite_n_throughput_mc(mc_spec(), snr, 5)


class TestSweepSpec:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="^sweep needs at least one point$"):
            SweepSpec(variable=SweepVariable.EBNO, values=(), beta=1.5, d=2.0)

    def test_range_needs_a_step(self):
        with pytest.raises(ValueError, match="^need at least one step, got 0$"):
            SweepSpec.from_range(SweepVariable.EBNO, 0.0, 20.0, 0, beta=1.5, d=2.0)

    def test_load_sweep_requires_integer_load_degree_product(self):
        with pytest.raises(ValueError, match=r"^beta \* d must be an integer > 1 for a "
                                             r"realizable ensemble, got beta=1.2, d=2.0$"):
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

    @pytest.mark.parametrize("beta,d", [(math.inf, 2.0), (1.5, math.inf), (math.nan, 2.0)])
    def test_ensemble_from_load_rejects_non_finite_values(self, beta, d):
        with pytest.raises(ValueError, match="finite"):
            EnsembleSpec.from_load(10, beta, d, EntryMode.ONES, 0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_sparsity_sweep_checks_every_degree(self, bad):
        # the smallest degree is admissible; the bad one must fail before any point runs
        with pytest.raises(ValueError):
            SweepSpec(variable=SweepVariable.SPARSITY, values=(3.0, bad),
                      beta=1.5, snr_db=10.0)

    @pytest.mark.parametrize("fields", [
        dict(variable=SweepVariable.EBNO, values=(10.0, math.nan), beta=1.5),
        dict(variable=SweepVariable.EBNO, values=(10.0, math.inf), beta=1.5),
        dict(variable=SweepVariable.LOAD, values=(1.5,), ebno_db=math.nan),
        dict(variable=SweepVariable.LOAD, values=(1.5,), snr_db=-math.inf),
    ])
    def test_non_finite_operating_point_rejected_before_any_inversion(
            self, monkeypatch, fields):
        def no_work(*args, **kwargs):
            raise AssertionError("inverted an Eb/N0 point before the check")

        monkeypatch.setattr(tp, "snr_for_ebno", no_work)
        with pytest.raises(ValueError, match="finite"):
            sweep(SweepSpec(d=2.0, **fields))

    @pytest.mark.parametrize("snr_db", [61.0, -61.0, 1e308])
    def test_snr_outside_the_bracket_rejected_before_any_inversion(self, monkeypatch,
                                                                    snr_db):
        # the sweep's fixed snr keeps to SNR_BRACKET, the bracket of its Eb/N0 search
        def no_work(*args, **kwargs):
            raise AssertionError("ran a sweep point before the check")

        monkeypatch.setattr(tp, "snr_for_ebno", no_work)
        monkeypatch.setattr(tp, "regular_throughput", no_work)
        with pytest.raises(ValueError, match=r"must lie in \[-60, 60\]"):
            SweepSpec(variable=SweepVariable.LOAD, values=(10.0,), d=2.0, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [60.0, -60.0])
    def test_snr_at_the_bracket_ends_runs(self, snr_db):
        table = sweep(SweepSpec(variable=SweepVariable.LOAD, values=(10.0,), d=2.0,
                                snr_db=snr_db))
        assert table["failed"].tolist() == [False]
        assert all(0.0 < table[c.value][0] < math.inf for c in tp.DEFAULT_CURVES)

    @pytest.mark.parametrize("fields", [
        dict(variable=SweepVariable.EBNO, values=(10.0, 20.0, -5.0), beta=1.5),
        dict(variable=SweepVariable.EBNO, values=(10.0, -1.6), beta=1.5),
        dict(variable=SweepVariable.LOAD, values=(1.5,), ebno_db=-2.0),
    ])
    def test_ebno_at_the_floor_rejected_before_any_inversion(self, monkeypatch, fields):
        # every curve's Eb/N0 map has infimum ln 2 = -1.59 dB
        calls = []
        monkeypatch.setattr(tp, "snr_for_ebno", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="not above the minimum achievable"):
            SweepSpec(d=2.0, **fields)
        assert calls == []

    @pytest.mark.parametrize("values,match,curve", [
        # every curve's reach starts a few 1e-6 dB above ln 2
        ((FLOOR_DB + 1e-6,), "not above the minimum achievable",
         "regular curve at beta = 1.5, d = 2.0"),
        # the regular and dense curves reach 48.7 dB below snr = 1e6, Cover-Wyner does not
        ((10.0, 48.7), "not reachable below snr = 1000000.0", "cover_wyner curve at beta = 1.5"),
    ], ids=["just_above_ln2", "above_cover_wyner_reach"])
    def test_level_outside_a_curve_reach_rejected_at_construction(
            self, monkeypatch, values, match, curve):
        calls = []
        real = tp.snr_for_ebno
        monkeypatch.setattr(tp, "snr_for_ebno",
                            lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError, match=match) as info:
            SweepSpec(variable=SweepVariable.EBNO, values=values, beta=1.5, d=2.0)
        assert f"Eb/N0 {values[-1]:.10g} dB" in str(info.value)
        assert f"on the {curve}," in str(info.value)
        assert calls == []

    def test_reach_error_names_the_load_that_misses(self, curve_snrs):
        # the dense curve reaches 50 dB below snr = 1e6 at load 8 (55.4 dB), not at 1.5
        with pytest.raises(ValueError, match="on the dense_rs curve at beta = 1.5, which"):
            SweepSpec(variable=SweepVariable.LOAD, values=(8.0, 1.5, 1.0), d=2.0,
                      ebno_db=50.0, curves=(Curve.DENSE_RS,))
        assert set(curve_snrs) == set(tp.SNR_BRACKET)

    @pytest.mark.parametrize("fields,match", [
        (dict(variable=SweepVariable.LOAD, values=(1.0, 1.5), beta=7.0, d=2.0),
         "^LOAD sweep takes beta from its values, got beta = 7.0$"),
        (dict(variable=SweepVariable.SPARSITY, values=(2.0, 3.0), beta=1.5, d=5.0),
         "^SPARSITY sweep takes d from its values, got d = 5.0$"),
    ], ids=["load", "sparsity"])
    def test_fixed_value_for_the_swept_quantity_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            SweepSpec(snr_db=10.0, **fields)
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_range(fields["variable"], 1.0, 3.0, 5, snr_db=10.0,
                                 **{k: fields[k] for k in ("beta", "d")})

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
        with pytest.raises(ValueError, match="at least one trial"):
            SweepSpec(variable=SweepVariable.EBNO, values=(10.0,), beta=1.5, d=2.0,
                      curves=(Curve.REGULAR_MC,), mc_n=10, mc_trials=0)

    def test_range_constructor_filters_inadmissible_loads(self):
        spec = SweepSpec.from_range(SweepVariable.LOAD, 1.0, 3.0, 9,
                                    d=2.0, ebno_db=10.0)
        assert spec.values == (1.0, 1.5, 2.0, 2.5, 3.0)

    @pytest.mark.parametrize("d", [2.0, 3.0, 2.5])
    def test_range_constructor_keeps_exactly_the_accepted_loads(self, d):
        # the filter and the constructor apply one integer-load rule
        grid = np.linspace(1.0, 3.0, 41)
        kept = SweepSpec.from_range(SweepVariable.LOAD, 1.0, 3.0, 41,
                                    d=d, ebno_db=10.0).values
        accepted = []
        for beta in grid:
            try:
                SweepSpec(variable=SweepVariable.LOAD, values=(float(beta),), d=d,
                          ebno_db=10.0)
            except ValueError as exc:
                assert "must be an integer" in str(exc)
            else:
                accepted.append(float(beta))
        assert kept == tuple(accepted) and kept

    def test_range_constructor_needs_a_degree_for_loads(self):
        with pytest.raises(ValueError, match="LOAD sweep needs a fixed degree d"):
            SweepSpec.from_range(SweepVariable.LOAD, 1.0, 3.0, 9, ebno_db=10.0)

    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_range_constructor_rejects_a_non_finite_degree(self, d):
        # no load times a non-finite degree is an integer
        with pytest.raises(ValueError, match="no grid point satisfies"):
            SweepSpec.from_range(SweepVariable.LOAD, 1.0, 3.0, 9, d=d, ebno_db=10.0)

    def test_range_constructor_rejects_empty_admissible_set(self):
        with pytest.raises(ValueError):
            SweepSpec.from_range(SweepVariable.LOAD, 1.1, 1.3, 3,
                                 d=2.0, ebno_db=10.0)


class TestSweep:
    def test_load_sweep_ordering(self):
        spec = SweepSpec(variable=SweepVariable.LOAD,
                         values=(1.0, 1.5, 2.0, 2.5, 3.0),
                         d=2.0, ebno_db=10.0)
        table = sweep(spec)
        assert all(column.shape == (5,) for column in table.values())
        assert not table["failed"].any()
        assert (table["cover_wyner"] >= table["regular"]).all()
        assert (table["regular"] > table["dense_rs"]).all()
        assert np.isnan(table["regular_mc"]).all()

    def test_one_inversion_per_selector(self, monkeypatch):
        # the MC curves run at the regular curve's snr and reuse its inversion
        selectors = []
        real = tp.snr_for_ebno

        def recording(target, beta, d):
            selectors.append(d)
            return real(target, beta, d)

        monkeypatch.setattr(tp, "snr_for_ebno", recording)
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(10.0,), beta=1.5, d=2.0,
                         curves=(Curve.REGULAR_MC, Curve.DENSE_RS, Curve.REGULAR,
                                 Curve.IRREGULAR_MC, Curve.COVER_WYNER),
                         mc_n=10, mc_trials=3)
        table = sweep(spec)
        assert selectors == [2.0, Curve.DENSE_RS, Curve.COVER_WYNER]
        assert table["regular"].tolist() == [
            regular_throughput(real(db_to_linear(10.0), 1.5, 2.0), P_DEFAULT)]

    @pytest.mark.parametrize("variable, values, fixed", [
        (SweepVariable.SPARSITY, (2.0, 4.0, 10.0), dict(beta=1.5)),
        (SweepVariable.LOAD, (1.0, 1.5, 2.0), dict(d=2.0)),
    ], ids=["sparsity", "load"])
    def test_every_curve_inverts_every_row_at_once(self, monkeypatch, variable, values,
                                                   fixed):
        # each curve takes one law per row, the dense curve a load per row
        selectors = []
        real = tp.snr_for_ebno

        def recording(target, beta, d):
            selectors.append(d if isinstance(d, Curve) else "degrees")
            return real(target, beta, d)

        monkeypatch.setattr(tp, "snr_for_ebno", recording)
        spec = SweepSpec(variable=variable, values=values, ebno_db=6.0, **fixed)
        table = sweep(spec)
        assert selectors == ["degrees", Curve.DENSE_RS, Curve.COVER_WYNER]
        for i, x in enumerate(values):
            beta, d = (x if variable is swept else fixed[name]
                       for swept, name in ((SweepVariable.LOAD, "beta"),
                                           (SweepVariable.SPARSITY, "d")))
            snr = real(db_to_linear(6.0), beta, d)
            assert table["regular"][i] == regular_throughput(snr, DensityParams(beta=beta, d=d))

    def test_sparsity_sweep_decreases_toward_dense(self):
        spec = SweepSpec(variable=SweepVariable.SPARSITY,
                         values=(2.0, 4.0, 10.0, 40.0),
                         beta=1.5, ebno_db=10.0)
        table = sweep(spec)
        regs = table["regular"]
        assert all(a > b for a, b in zip(regs, regs[1:]))
        assert (regs > table["dense_rs"]).all()

    def test_ebno_sweep_monotone(self):
        spec = SweepSpec(variable=SweepVariable.EBNO,
                         values=(0.0, 4.0, 8.0, 12.0),
                         beta=1.5, d=2.0)
        table = sweep(spec)
        for key in ("regular", "dense_rs", "cover_wyner"):
            vals = table[key]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_only_the_dense_curve_is_integrated(self, quadrature_calls):
        values = (0.0, 10.0, 20.0)
        closed = SweepSpec(variable=SweepVariable.EBNO, values=values,
                           beta=1.5, d=2.0,
                           curves=(Curve.REGULAR, Curve.COVER_WYNER))
        assert not sweep(closed)["failed"].any()
        assert quadrature_calls == []
        with_dense = SweepSpec(variable=SweepVariable.EBNO, values=values,
                               beta=1.5, d=2.0,
                               curves=(Curve.REGULAR, Curve.DENSE_RS, Curve.COVER_WYNER))
        assert not sweep(with_dense)["failed"].any()
        assert len(quadrature_calls) > 0

    def test_dense_sweep_integrates_in_few_quadratures(self, quadrature_calls):
        # one inversion and one curve evaluation for all rows, not one per row
        spec = SweepSpec(variable=SweepVariable.EBNO,
                         values=tuple(np.linspace(0.0, 20.0, 201)), beta=1.5, d=2.0,
                         curves=(Curve.DENSE_RS,))
        assert not sweep(spec)["failed"].any()
        assert 0 < len(quadrature_calls) <= 40

    def test_out_of_reach_level_fails_before_any_step(self, curve_snrs):
        with pytest.raises(ValueError, match="not reachable below snr"):
            SweepSpec(variable=SweepVariable.EBNO, values=(10.0, 60.0), beta=1.5, d=2.0)
        assert set(curve_snrs) == set(tp.SNR_BRACKET)

    @pytest.mark.parametrize("curves,draws", [
        # the regular run draws for every row, and the dense run discards the draws
        ((Curve.REGULAR, Curve.DENSE_RS, Curve.REGULAR_MC), 3),
        # the dense run fails every row before the regular run draws for them
        ((Curve.DENSE_RS, Curve.REGULAR_MC, Curve.REGULAR), 0),
    ], ids=["degree_first", "dense_first"])
    def test_a_failed_inversion_fails_every_row_it_served(self, monkeypatch, curves, draws):
        real, real_mc, calls = tp.dense_rs_throughput, tp.finite_n_throughput_mc, []

        def fails_at_load_two(snr, beta):
            if (np.asarray(beta) == 2.0).any():
                raise quadrature.QuadratureError("forced")
            return real(snr, beta)

        monkeypatch.setattr(tp, "dense_rs_throughput", fails_at_load_two)
        monkeypatch.setattr(tp, "finite_n_throughput_mc",
                            lambda *args, **kwargs: calls.append(1) or real_mc(*args, **kwargs))
        # a load sweep inverts the dense curve once, for every row
        table = sweep(SweepSpec(variable=SweepVariable.LOAD, values=(1.5, 2.0, 2.5),
                                d=2.0, ebno_db=10.0, curves=curves, mc_n=10, mc_trials=3))
        assert len(calls) == draws
        assert table["failed"].tolist() == [True, True, True]
        assert all(np.isnan(table[key]).all() for key in SWEEP_COLUMNS[1:])
        assert table["failed_mc_trials"].tolist() == [0, 0, 0]
        # and so does a sparsity sweep
        table = sweep(SweepSpec(variable=SweepVariable.SPARSITY, values=(2.0, 3.0),
                                beta=2.0, ebno_db=10.0))
        assert table["failed"].tolist() == [True, True]
        assert all(np.isnan(table[key]).all() for key in SWEEP_COLUMNS[1:])

    def test_mc_curves_carry_errors(self):
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(10.0,),
                         beta=1.5, d=2.0,
                         curves=(Curve.REGULAR, Curve.REGULAR_MC,
                                 Curve.IRREGULAR_MC),
                         mc_n=10, mc_trials=200, seed=1)
        table = sweep(spec)
        assert list(table) == [*SWEEP_COLUMNS, "failed_mc_trials", "failed"]
        assert [table[key].dtype for key in table] == [
            *[np.float64] * len(SWEEP_COLUMNS), np.int64, np.bool_]
        assert table["failed_mc_trials"].tolist() == [0]
        assert table["regular_mc_stderr"][0] > 0.0
        assert table["irregular_mc_stderr"][0] > 0.0
        assert abs(table["regular_mc"][0] - table["regular"][0]) < 0.1

    def test_failed_point_is_marked_and_batch_continues(self, monkeypatch):
        from regnoma import throughput as tp

        def always_fails(spec, realization=0):
            raise GenerationError("forced")

        monkeypatch.setattr(tp, "generate_regular", always_fails)
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(8.0, 10.0),
                         beta=1.5, d=2.0,
                         curves=(Curve.REGULAR, Curve.IRREGULAR_MC, Curve.REGULAR_MC),
                         mc_n=10, mc_trials=5)
        table = sweep(spec)
        assert list(table) == [*SWEEP_COLUMNS, "failed_mc_trials", "failed"]
        assert table["failed"].tolist() == [True, True]
        # the one failed MC call blanks every cell of the rows it served
        assert all(np.isnan(table[key]).all() for key in SWEEP_COLUMNS[1:])
        assert table["failed_mc_trials"].tolist() == [0, 0]

    def test_ebno_sweep_draws_each_ensemble_once(self, monkeypatch):
        calls = {"generate_regular": 0, "generate_irregular": 0}
        for name in calls:
            real = getattr(tp, name)

            def counting(spec, realization=0, name=name, real=real):
                calls[name] += 1
                return real(spec, realization=realization)

            monkeypatch.setattr(tp, name, counting)
        spec = SweepSpec(variable=SweepVariable.EBNO, values=(4.0, 7.0, 10.0, 13.0),
                         beta=1.5, d=2.0,
                         curves=(Curve.REGULAR_MC, Curve.IRREGULAR_MC),
                         mc_n=10, mc_trials=6)
        assert not sweep(spec)["failed"].any()
        assert calls == {"generate_regular": 6, "generate_irregular": 6}
        # a load sweep changes the ensemble at every point
        spec = SweepSpec(variable=SweepVariable.LOAD, values=(1.5, 2.0),
                         d=2.0, ebno_db=10.0, curves=(Curve.REGULAR_MC,),
                         mc_n=10, mc_trials=6)
        assert not sweep(spec)["failed"].any()
        assert calls == {"generate_regular": 6 + 2 * 6, "generate_irregular": 6}

    @pytest.mark.parametrize("variable,values,fixed,expected", [
        # the repeated load's two rows share one 2-snr call per curve
        (SweepVariable.LOAD, (1.5, 1.5, 2.0), dict(d=2.0, ebno_db=10.0),
         [(False, 15, 2), (True, 15, 2), (False, 20, 1), (True, 20, 1)]),
        (SweepVariable.SPARSITY, (2.0, 3.0), dict(beta=2.0, snr_db=10.0),
         [(False, 20, 1), (True, 20, 1), (False, 20, 1), (True, 20, 1)]),
    ], ids=["load", "sparsity"])
    def test_mc_runs_once_per_degree_group_and_curve(self, monkeypatch, variable, values,
                                                     fixed, expected):
        calls = []  # (irregular, users, snrs) per finite_n_throughput_mc call
        real = tp.finite_n_throughput_mc

        def recording(spec, snr, trials, irregular=False):
            calls.append((irregular, spec.n_users, np.size(snr)))
            return real(spec, snr, trials, irregular=irregular)

        monkeypatch.setattr(tp, "finite_n_throughput_mc", recording)
        table = sweep(SweepSpec(variable=variable, values=values,
                                curves=(Curve.REGULAR_MC, Curve.IRREGULAR_MC),
                                mc_n=10, mc_trials=3, **fixed))
        assert not table["failed"].any()
        assert calls == expected

    @pytest.mark.parametrize("variable,values,fixed", [
        (SweepVariable.EBNO, (4.0, 10.0, 7.0), dict(beta=1.5, d=2.0)),
        (SweepVariable.LOAD, (1.5, 2.0), dict(d=2.0, ebno_db=10.0)),
        (SweepVariable.SPARSITY, (2.0, 3.0), dict(beta=2.0, snr_db=10.0)),
    ])
    def test_rows_equal_one_point_sweeps(self, variable, values, fixed):
        common = dict(variable=variable, curves=(Curve.IRREGULAR_MC, Curve.REGULAR,
                                                 Curve.REGULAR_MC),
                      mc_n=10, mc_trials=8, seed=3, **fixed)
        table = sweep(SweepSpec(values=values, **common))
        points = [sweep(SweepSpec(values=(x,), **common)) for x in values]
        assert all(list(point) == list(table) for point in points)
        for key, column in table.items():  # NaN cells equal NaN cells
            np.testing.assert_array_equal(column, np.concatenate([p[key] for p in points]),
                                          strict=True)

    def test_a_failed_mc_call_spares_other_ensembles(self, monkeypatch):
        real = tp.generate_regular

        def fails_at_load_two(spec, realization=0):
            if spec.n_users == 20:
                raise GenerationError("forced")
            return real(spec, realization=realization)

        monkeypatch.setattr(tp, "generate_regular", fails_at_load_two)
        spec = SweepSpec(variable=SweepVariable.LOAD, values=(1.5, 2.0, 2.5),
                         d=2.0, ebno_db=10.0, curves=(Curve.REGULAR, Curve.REGULAR_MC),
                         mc_n=10, mc_trials=5)
        table = sweep(spec)
        assert table["failed"].tolist() == [False, True, False]
        assert np.isnan(table["regular"][1]) and np.isnan(table["regular_mc"][1])
        assert np.isfinite(table["regular_mc"][[0, 2]]).all()

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
        table = sweep(spec)
        # the irregular sampler is not patched, so only the regular curve loses trials
        assert table["failed_mc_trials"].tolist() == [2, 2]
        assert not table["failed"].any()
        assert np.isfinite(table["regular_mc"]).all()

    @pytest.mark.parametrize("fields", [
        dict(variable=SweepVariable.SPARSITY, values=(2.5,), beta=2.0, snr_db=10.0,
             mc_n=10),
        # K * d = 45 users' edges on N = 10 resources at d = 3
        dict(variable=SweepVariable.SPARSITY, values=(2.0, 3.0, 2.5), beta=1.5,
             ebno_db=10.0, mc_n=10),
        # N = 5 resources do not realize load 1.5
        dict(variable=SweepVariable.LOAD, values=(1.5, 2.0, 3.0), d=2.0,
             ebno_db=10.0, mc_n=5),
    ])
    def test_mc_rejects_fractional_degree(self, monkeypatch, fields):
        # an unrealizable ensemble fails at construction, before any inversion or draw
        def no_work(*args, **kwargs):
            raise AssertionError("ran a sweep point before the ensemble check")

        monkeypatch.setattr(tp, "snr_for_ebno", no_work)
        monkeypatch.setattr(tp, "generate_regular", no_work)
        with pytest.raises(ValueError):
            SweepSpec(curves=(Curve.REGULAR, Curve.REGULAR_MC), mc_trials=5, **fields)

    def test_irregular_mc_needs_degree_below_resources(self, monkeypatch):
        # d = N = 2 draws regular matrices, but no Bernoulli(d/N) ones
        def no_work(*args, **kwargs):
            raise AssertionError("ran a sweep point before the ensemble check")

        monkeypatch.setattr(tp, "snr_for_ebno", no_work)
        monkeypatch.setattr(tp, "generate_regular", no_work)
        monkeypatch.setattr(tp, "generate_irregular", no_work)
        fields = dict(variable=SweepVariable.EBNO, values=(10.0,), beta=1.5, d=2.0,
                      mc_n=2, mc_trials=5)
        with pytest.raises(ValueError, match="d/N"):
            SweepSpec(curves=(Curve.REGULAR, Curve.REGULAR_MC, Curve.IRREGULAR_MC),
                      **fields)
        SweepSpec(curves=(Curve.REGULAR, Curve.REGULAR_MC), **fields)

    @pytest.mark.parametrize("mc", [False, True], ids=["asymptotic", "mc"])
    @pytest.mark.parametrize("variable,values,fixed", [
        (SweepVariable.LOAD, (1.0, 1.5, 4 / 3, 2.0, 5 / 3, 0.5, math.inf),
         dict(d=3.0, ebno_db=10.0)),
        (SweepVariable.SPARSITY, (2.0, 2.5, 3.0, 1.2, 4.0, math.nan),
         dict(beta=1.5, snr_db=10.0)),
        (SweepVariable.EBNO, (0.0, 10.0, math.nan, 20.0, -math.inf, FLOOR_DB + 1e-6, 60.0),
         dict(beta=2.0, d=3.0)),
    ])
    def test_accepted_rows_sweep_without_value_error(self, variable, values, fixed, mc):
        # construction and evaluation derive a row's (beta, d, Eb/N0) and
        # ensemble alike: every row the constructor accepts also runs
        curves = (Curve.REGULAR, Curve.REGULAR_MC) if mc else (Curve.REGULAR,)
        common = dict(variable=variable, curves=curves, mc_n=10, mc_trials=2, **fixed)
        accepted = []
        for x in values:
            try:
                SweepSpec(values=(x,), **common)
            except ValueError:
                continue
            accepted.append(x)
        assert 0 < len(accepted) < len(values)
        assert not sweep(SweepSpec(values=tuple(accepted), **common))["failed"].any()
