"""Analytic limiting densities and empirical Gram spectra."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from regnoma import quadrature, spectra
from regnoma.ensembles import (EnsembleSpec, EntryMode, GenerationError,
                               SparseSignatureMatrix, generate_regular)
from regnoma.quadrature import BLOCK, partial_integrals, support_integral
from regnoma.spectra import (TRIVIAL_TOL, DensityParams, analytic_cdf, analytic_density,
                             gram_transform, kesten_mckay_density, ks_distance,
                             marchenko_pastur_density, pooled_spectrum, spectrum_histogram)

P_DEFAULT = DensityParams(beta=1.5, d=2.0)

# distribution function of the limiting law at beta = 1.5, d = 2, frozen
# from adaptive Gauss-Kronrod integration of the density
CDF_POINTS = [
    (0.3, 0.094360233322),
    (1.0, 0.347406451715),
    (2.0, 0.652593548285),
    (2.8, 0.951533085530),
]

PARAM_GRID = [(beta, d) for beta in (1.0, 1.5, 2.0, 3.0)
              for d in (2.0, 3.0, 4.0, 10.0)]


def quad_mass(density, lo, hi, weight=None):
    f = density if weight is None else (lambda x: density(x) * weight(x))
    val, _ = integrate.quad(f, lo, hi, limit=200)
    return val


def pooled_ks_input():
    """The law and 52,000 sorted points of the spectrum_pool KS step: 100
    trials of N = 520 at beta = 3, d = 4."""
    p = DensityParams(beta=3.0, d=4.0)
    rng = np.random.default_rng(0)
    return p, np.sort(rng.uniform(p.lambda_minus, p.lambda_plus, 52_000))


def quad_cdf(p, x):
    """Distribution function by adaptive quadrature.

    ``t = lo + s**2`` below the support midpoint and ``t = hi - s**2`` above
    it remove the square-root edges before integrating.
    """
    lo, hi = p.lambda_minus, p.lambda_plus
    mid = (lo + hi) / 2.0

    def below(s):
        return 2.0 * s * analytic_density(lo + s * s, p)

    def above(s):
        return 2.0 * s * analytic_density(hi - s * s, p)

    opts = dict(limit=200, epsabs=1e-13, epsrel=1e-13)
    if x <= mid:
        return integrate.quad(below, 0.0, math.sqrt(x - lo), **opts)[0]
    return (integrate.quad(below, 0.0, math.sqrt(mid - lo), **opts)[0]
            + integrate.quad(above, math.sqrt(hi - x), math.sqrt(hi - mid), **opts)[0])


class TestDensityParams:
    def test_derived_fields(self):
        p = DensityParams(beta=1.5, d=2.0)
        assert p.alpha == 0.5
        assert p.gamma == 1.0
        assert abs(p.lambda_plus - (1.5 + math.sqrt(2.0))) < 1e-15
        assert abs(p.lambda_minus - (1.5 - math.sqrt(2.0))) < 1e-15

    @pytest.mark.parametrize("d", [2.0, 3.0, 7.0])
    def test_unit_load_support_touches_zero(self, d):
        p = DensityParams(beta=1.0, d=d)
        assert p.lambda_minus == 0.0
        assert abs(p.lambda_plus - 4.0 * (d - 1.0) / d) < 1e-12

    def test_unit_load_lower_edge_is_exactly_zero(self):
        # at beta = 1, alpha = gamma and sqrt(alpha * alpha) rounds to alpha
        degrees = np.concatenate([np.linspace(2.0, 10.0, 8001), np.geomspace(10.0, 1e6, 2001),
                                  np.arange(2, 2001, dtype=np.float64)])
        for d in degrees.tolist():
            lo = DensityParams(beta=1.0, d=d).lambda_minus
            assert lo == 0.0 and math.copysign(1.0, lo) == 1.0

    @pytest.mark.parametrize("beta,d", [(0.5, 2.0), (1.5, 1.0), (1.5, 0.5),
                                        (math.inf, 2.0), (1.5, math.inf)])
    def test_domain_validation(self, beta, d):
        with pytest.raises(ValueError):
            DensityParams(beta=beta, d=d)

    @pytest.mark.parametrize("beta,d", [(1.2, 1.5), (1.0, 1.9), (3.0, 1.3)])
    def test_rejects_law_with_missing_atom(self, beta, d):
        # below d = 1 + 1/beta the closed form carries mass beta (d - 1) < 1
        with pytest.raises(ValueError, match=r"1 \+ 1/beta"):
            DensityParams(beta=beta, d=d)

    @pytest.mark.parametrize("beta,d", [(1.0, 2.0), (3.0, 4.0 / 3.0), (1.5, 1.0 + 1.0 / 1.5)])
    def test_domain_bound_is_a_probability_law(self, beta, d):
        # at the bound the upper edge meets the pole at beta * d
        p = DensityParams(beta=beta, d=d)
        mass = support_integral(lambda x: analytic_density(x, p),
                                p.lambda_minus, p.lambda_plus, tol=1e-12)
        assert abs(mass - 1.0) < 1e-10

    def test_edge_ordering(self):
        for beta, d in PARAM_GRID:
            p = DensityParams(beta=beta, d=d)
            assert 0.0 <= p.lambda_minus <= p.lambda_plus
            assert 0.0 <= p.alpha < 1.0
            assert p.gamma >= p.alpha

    def test_batch_of_laws_is_elementwise(self):
        betas, ds = np.array([1.0, 1.5, 10.0]), np.array([3.0, 2.0, 2.0])
        batch = DensityParams(beta=betas, d=ds)
        laws = [DensityParams(beta=b, d=d) for b, d in zip(betas.tolist(), ds.tolist())]
        for name in ("alpha", "gamma", "lambda_minus", "lambda_plus"):
            assert getattr(batch, name).tolist() == [getattr(p, name) for p in laws]
        w = np.array([-2.0, 0.5 + 0.1j, 7.0 + 0j])
        for got, want in zip(gram_transform(w, batch),
                             zip(*(gram_transform(x, p) for x, p in zip(w, laws)))):
            assert got.tolist() == list(want)
        # one law outside the domain rejects the batch
        with pytest.raises(ValueError, match=r"1 \+ 1/beta"):
            DensityParams(beta=betas, d=np.array([3.0, 1.5, 2.0]))

    def test_from_ensemble(self):
        spec = EnsembleSpec(n_resources=100, n_users=150, col_degree=2,
                            entry_mode=EntryMode.ONES, seed=0)
        p = DensityParams.from_ensemble(spec)
        assert p.beta == 1.5 and p.d == 2.0


class TestAnalyticDensity:
    def test_zero_outside_support(self):
        assert analytic_density(5.0, P_DEFAULT) == 0.0
        assert analytic_density(-1.0, P_DEFAULT) == 0.0

    def test_zero_at_edges(self):
        assert analytic_density(P_DEFAULT.lambda_minus, P_DEFAULT) == 0.0
        assert analytic_density(P_DEFAULT.lambda_plus, P_DEFAULT) == 0.0

    def test_unit_load_interior_point(self):
        # at lam = 1 the beta = 1, d = 2 density equals 1/pi
        val = analytic_density(1.0, DensityParams(beta=1.0, d=2.0))
        assert abs(val - 1.0 / math.pi) < 1e-14

    @pytest.mark.parametrize("beta,d", PARAM_GRID)
    def test_mass_is_one(self, beta, d):
        p = DensityParams(beta=beta, d=d)
        mass = quad_mass(lambda x: analytic_density(x, p),
                         p.lambda_minus, p.lambda_plus)
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("beta,d", PARAM_GRID)
    def test_mean_equals_load(self, beta, d):
        p = DensityParams(beta=beta, d=d)
        mean = quad_mass(lambda x: analytic_density(x, p),
                         p.lambda_minus, p.lambda_plus, weight=lambda x: x)
        assert abs(mean - beta) < 1e-6

    def test_nonnegative_everywhere(self):
        grid = np.linspace(-1.0, 5.0, 601)
        assert (analytic_density(grid, P_DEFAULT) >= 0.0).all()

    def test_vector_and_scalar_agree(self):
        grid = np.linspace(0.2, 2.8, 7)
        vec = analytic_density(grid, P_DEFAULT)
        assert vec.shape == grid.shape
        for x, v in zip(grid, vec):
            assert analytic_density(float(x), P_DEFAULT) == v

    def test_nan_points_stay_nan(self):
        grid = np.array([1.0, np.nan, 5.0])
        vals = analytic_density(grid, P_DEFAULT)
        assert np.isnan(vals[1]) and vals[2] == 0.0
        assert vals[0] == analytic_density(1.0, P_DEFAULT)
        assert math.isnan(analytic_density(math.nan, P_DEFAULT))


# the law's cavity pair (delta, G) at (beta, d, w), each as (real, imaginary)
# parts to 50 digits: the quadratic's roots in mpmath, the branch picked by
# an mpmath quadrature of rho / (w - lam); a string w names an edge, taken at lam + 0j
GRAM_REFERENCES = [
    (1.5, 2.0, 0.5 + 0.5j,
     ("-0.27510067691765833705708030829087246568441142301531",
      "-1.1126937276985398418847128398221684474337005321277"),
     ("-0.41493957579497136654623331172679160165250268264794",
      "-0.75060415177811817844007436623865938879072085580623")),
    (1.5, 2.0, 2.0 + 0.05j,
     ("0.72418154109985296175770677526625540822275493753305",
      "-0.65508198543101233828657485056674921101415803719529"),
     ("0.13506579606693802563380710692638040921100505376814",
      "-0.97586968834317160577328902892170352846437286341949")),
    (1.5, 2.0, 6.0 + 1j,
     ("0.19581404125877713600161093262287865651751696931972",
      "-0.041035766230385665975611526305612350692043237318563"),
     ("0.21803904636810813869561680926554645717092384940391",
      "-0.052161799007509879910733173269042643710952997808689")),
    (1.5, 2.0, 1.0 + 0.001j,
     ("0.49905558920651153320727475164520384914678593448507",
      "-1.3223751430807937456902180155183385829694577576679"),
     ("-0.12521238611336452408845498072196152243528556620305",
      "-0.99184396350365199153101099232315847277770431363856")),
    (1.0, 3.0, 0.5 + 0.1j,
     ("0.56212451410932280018575140126308583026028444234669",
      "-1.5353867860620797496701889524178747491277702932568"),
     ("0.098674109865659739265089799361846576900750042536821",
      "-1.2243624644550374099464470325453304269563127931938")),
    (1.0, 2.0, 0.001 + 0.001j,
     ("-13.396295225804194518717532850818658625234052052568",
      "-34.731157715062027906453419418488195586345522775973"),
     ("-7.1930552083476241539883031638260547273045614232633",
      "-17.377864317293834682900896814798212836473464078851")),
    (3.0, 4.0, -2.0 + 3j,
     ("-0.14876165614763565227881359898855164713550070443051",
      "-0.1058964727684800222986708600766171880322983709316"),
     ("-0.14577933614562503212227512317311630957171235484435",
      "-0.099314733096656806932490222157778830071844457351242")),
    (1.5, 2.0, -0.1,
     ("-1.4833147735478827520036692598347771187838639081268", "0"),
     ("-1.0403136001038142329776139778782111818838034276981", "0")),
    (1.5, 2.0, -1.0,
     ("-0.56155281280883027491070492798703851257359961268681", "0"),
     ("-0.46058230480331135309151434799513944221509985475755", "0")),
    (1.5, 2.0, -10.0,
     ("-0.091271221051332740562186203478434721370432025596632", "0"),
     ("-0.087454371659769162372559946555204006311972926030381", "0")),
    (1.5, 2.0, "lambda_minus",
     ("-4.8284271247461900976033774484193961571393437507539", "0"),
     ("-2.8284271247461900976033774484193961571393437507539", "0")),
    (1.5, 2.0, "lambda_plus",
     ("0.8284271247461900976033774484193961571393437507539", "0"),
     ("2.8284271247461900976033774484193961571393437507539", "0")),
]


class TestGramTransform:
    @pytest.mark.parametrize("beta, d, w, delta, gram", GRAM_REFERENCES)
    def test_matches_50_digit_references(self, beta, d, w, delta, gram):
        p = DensityParams(beta=beta, d=d)
        w = getattr(p, w) + 0j if isinstance(w, str) else complex(w)
        for got, (real, imag) in zip(gram_transform(w, p), (delta, gram)):
            want = complex(float(real), float(imag))
            assert abs(got - want) < 1e-14 * abs(want)
            if w.imag == 0.0:
                assert got.imag == 0.0

    def test_density_is_the_boundary_value(self):
        # -Im G(lam + 0j) / pi is the density inside the support, 0 outside
        rng = np.random.default_rng(0)
        for _ in range(300):
            beta = rng.uniform(1.0, 8.0)
            p = DensityParams(beta=beta, d=1.0 + 1.0 / beta + 10.0 ** rng.uniform(-2.0, 1.7))
            lo, hi = p.lambda_minus, p.lambda_plus
            trim = 1e-3 * (hi - lo)
            lam = rng.uniform(lo + trim, hi - trim, 50)
            want = analytic_density(lam, p)
            got = -gram_transform(lam + 0j, p)[1].imag / math.pi
            assert np.all(np.abs(got - want) < 1e-11 * want)
            off = np.concatenate([[lo, hi], rng.uniform(lo - 5.0, lo, 10),
                                  rng.uniform(hi, hi + 5.0, 10)])
            assert np.all(gram_transform(off + 0j, p)[1].imag == 0.0)

    def test_shape_and_nan(self):
        w = np.array([[1.0 + 0.1j, complex(np.nan, 0.0)], [-1.0, complex(1.0, np.nan)]])
        delta, gram = gram_transform(w, P_DEFAULT)
        assert delta.shape == gram.shape == (2, 2)
        assert np.isnan(delta[[0, 1], [1, 1]]).all() and np.isnan(gram[[0, 1], [1, 1]]).all()
        assert np.isfinite(delta[:, 0]).all() and np.isfinite(gram[:, 0]).all()
        assert np.shape(gram_transform(1.0 + 0.1j, P_DEFAULT)[1]) == ()


class TestKestenMcKay:
    @pytest.mark.parametrize("d", [2.0, 3.0, 10.0])
    def test_equals_unit_load_density(self, d):
        p = DensityParams(beta=1.0, d=d)
        width = p.lambda_plus
        grid = np.linspace(1e-6 * width, width * (1.0 - 1e-6), 1000)
        diff = np.abs(analytic_density(grid, p) - kesten_mckay_density(grid, d))
        assert diff.max() < 1e-12

    def test_upper_edge_is_zero(self):
        assert kesten_mckay_density(4.0 * (2.0 - 1.0) / 2.0, 2.0) == 0.0

    def test_interior_point(self):
        assert abs(kesten_mckay_density(1.0, 2.0) - 1.0 / math.pi) < 1e-14

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            kesten_mckay_density(1.0, 1.0)

    def test_nan_points_stay_nan(self):
        vals = kesten_mckay_density(np.array([1.0, np.nan, 5.0]), 2.0)
        assert vals[0] == kesten_mckay_density(1.0, 2.0)
        assert np.isnan(vals[1]) and vals[2] == 0.0
        assert math.isnan(kesten_mckay_density(math.nan, 2.0))


class TestMarchenkoPastur:
    def test_sparse_density_approaches_dense_law(self):
        sups = []
        mp_lo = (1.0 - math.sqrt(1.5)) ** 2
        mp_hi = (1.0 + math.sqrt(1.5)) ** 2
        for d in (2.0, 4.0, 10.0, 40.0, 1000.0):
            p = DensityParams(beta=1.5, d=d)
            grid = np.linspace(min(p.lambda_minus, mp_lo),
                               max(p.lambda_plus, mp_hi), 2001)
            sups.append(np.abs(analytic_density(grid, p)
                               - marchenko_pastur_density(grid, 1.5)).max())
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-2

    def test_upper_edge_is_zero(self):
        assert marchenko_pastur_density((1.0 + math.sqrt(1.5)) ** 2, 1.5) == 0.0

    def test_mass_is_one(self):
        lo = (1.0 - math.sqrt(1.5)) ** 2
        hi = (1.0 + math.sqrt(1.5)) ** 2
        mass = quad_mass(lambda x: marchenko_pastur_density(x, 1.5), lo, hi)
        assert abs(mass - 1.0) < 1e-8

    def test_mean_equals_load(self):
        for beta in (1.0, 1.5, 2.0):
            lo = (1.0 - math.sqrt(beta)) ** 2
            hi = (1.0 + math.sqrt(beta)) ** 2
            mean = quad_mass(lambda x: marchenko_pastur_density(x, beta),
                             lo, hi, weight=lambda x: x)
            assert abs(mean - beta) < 1e-6

    def test_load_validation(self):
        with pytest.raises(ValueError):
            marchenko_pastur_density(1.0, 0.5)

    def test_nan_points_stay_nan(self):
        vals = marchenko_pastur_density(np.array([1.0, np.nan, 9.0]), 1.5)
        assert vals[0] == marchenko_pastur_density(1.0, 1.5)
        assert np.isnan(vals[1]) and vals[2] == 0.0
        assert math.isnan(marchenko_pastur_density(math.nan, 1.5))


class TestAnalyticCdf:
    def test_boundary_values(self):
        assert analytic_cdf(P_DEFAULT.lambda_minus, P_DEFAULT) == 0.0
        assert abs(analytic_cdf(P_DEFAULT.lambda_plus, P_DEFAULT) - 1.0) < 1e-8

    @pytest.mark.parametrize("lam,expected", CDF_POINTS)
    def test_frozen_quadrature_values(self, lam, expected):
        assert abs(analytic_cdf(lam, P_DEFAULT) - expected) < 1e-9

    def test_monotone(self):
        grid = np.linspace(P_DEFAULT.lambda_minus - 0.2,
                           P_DEFAULT.lambda_plus + 0.2, 101)
        vals = analytic_cdf(grid, P_DEFAULT)
        assert (np.diff(vals) >= -1e-12).all()

    def test_nan_points_stay_nan_and_never_reach_the_quadrature(self, monkeypatch):
        grid = np.array([0.3, np.nan, 2.0, -1.0])
        want = analytic_cdf(grid[[0, 2, 3]], P_DEFAULT)
        seen = []

        def recording(density, lo, hi, lams):
            seen.append(np.array(lams))
            return partial_integrals(density, lo, hi, lams)

        monkeypatch.setattr(quadrature, "partial_integrals", recording)
        vals = analytic_cdf(grid, P_DEFAULT)
        assert np.isnan(seen[0]).sum() == 0
        assert np.isnan(vals[1]) and np.array_equal(vals[[0, 2, 3]], want)
        assert math.isnan(analytic_cdf(math.nan, P_DEFAULT))

    def test_arcsine_law_at_unit_load_degree_two(self):
        p = DensityParams(beta=1.0, d=2.0)
        grid = np.linspace(-0.5, 2.5, 3001)
        exact = 2.0 / math.pi * np.arcsin(np.sqrt(np.clip(grid / 2.0, 0.0, 1.0)))
        assert np.abs(analytic_cdf(grid, p) - exact).max() < 1e-14

    @pytest.mark.parametrize("beta", [1.0, 1.05, 1.5, 3.0, 7.5])
    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0, 10.0, 50.0])
    def test_matches_adaptive_quadrature(self, beta, d):
        p = DensityParams(beta=beta, d=d)
        lo, hi = p.lambda_minus, p.lambda_plus
        grid = lo + (hi - lo) * np.array([1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4])
        ref = [quad_cdf(p, x) for x in grid]
        assert np.abs(analytic_cdf(grid, p) - ref).max() < 1e-12

    def test_unsorted_duplicate_and_outside_points(self):
        frozen = dict(CDF_POINTS)
        grid = np.array([2.0, -1.0, 0.3, 5.0, 1.0, 0.3, P_DEFAULT.lambda_plus,
                         P_DEFAULT.lambda_minus, 2.0])
        expected = [frozen[2.0], 0.0, frozen[0.3], 1.0, frozen[1.0], frozen[0.3],
                    1.0, 0.0, frozen[2.0]]
        vals = analytic_cdf(grid, P_DEFAULT)
        assert np.abs(vals - expected).max() < 1e-9
        assert abs(vals[2] - vals[5]) < 1e-15 and abs(vals[0] - vals[8]) < 1e-15
        scalar = analytic_cdf(1.0, P_DEFAULT)
        assert isinstance(scalar, float) and abs(scalar - vals[4]) < 1e-15

    def test_pooled_call_memory_is_bounded(self):
        p, lam = pooled_ks_input()
        tracemalloc.start()
        try:
            analytic_cdf(lam, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_pooled_call_peaks_at_a_few_blocks(self):
        # 61.4 MB as one 65,536-point block, 5.3 MB in 4,096-point blocks,
        # 1.9 MB in 1,024-point blocks
        p, lam = pooled_ks_input()
        tracemalloc.start()
        try:
            analytic_cdf(lam, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("block", [512, 1024, 4096, 65536])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        p, lam = pooled_ks_input()
        monkeypatch.setattr(quadrature, "BLOCK", 65536)
        whole, ks = analytic_cdf(lam, p), ks_distance(lam, p)
        monkeypatch.setattr(quadrature, "BLOCK", block)
        assert np.array_equal(analytic_cdf(lam, p), whole)
        assert ks_distance(lam, p) == ks

    def test_large_call_runs_in_bounded_blocks(self):
        # the 2.6M-point full-scale KS would need ~3 GB as one block
        p = DensityParams(beta=1.5, d=2.0)
        rng = np.random.default_rng(1)
        lam = np.sort(rng.uniform(p.lambda_minus - 0.1, p.lambda_plus + 0.1, 520_000))
        tracemalloc.start()
        try:
            whole = analytic_cdf(lam, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        blocks = [analytic_cdf(lam[i:i + BLOCK], p) for i in range(0, lam.size, BLOCK)]
        assert len(blocks) > 1
        assert np.array_equal(whole, np.concatenate(blocks))


def sample_spec(n=60, k=90, d=2, mode=EntryMode.RADEMACHER, seed=0):
    return EnsembleSpec(n_resources=n, n_users=k, col_degree=d, entry_mode=mode, seed=seed)


class TestPooledSpectrum:
    def test_forced_two_by_two_eigenvalues(self):
        # the all-ones 2x2 Gram matrix at d = 2 has eigenvalues 0 and 2; the
        # deterministic 2 = beta * d is dropped
        eigs = pooled_spectrum(sample_spec(2, 2, 2, EntryMode.ONES), 1)
        assert eigs.shape == (1,) and abs(eigs[0]) < 1e-12

    def test_ones_mode_top_eigenvalue_is_load_times_degree(self):
        spec = sample_spec(mode=EntryMode.ONES)
        full = np.linalg.eigvalsh(generate_regular(spec).gram())
        assert abs(full[-1] - 3.0) < 1e-8
        assert np.array_equal(pooled_spectrum(spec, 1), full[:-1])

    def test_rademacher_mode_has_no_trivial_flags(self):
        spec = sample_spec()
        assert np.array_equal(pooled_spectrum(spec, 1),
                              np.linalg.eigvalsh(generate_regular(spec).gram()))

    def test_sorted_and_positive_semidefinite(self):
        eigs = pooled_spectrum(sample_spec(seed=3), 1)
        assert (np.diff(eigs) >= 0.0).all()
        assert eigs.min() >= -1e-8

    def test_three_by_three_matches_characteristic_polynomial(self):
        spec = sample_spec(3, 3, 2, seed=1)
        g = generate_regular(spec).gram()
        # cubic coefficients from traces and the explicit 3x3 determinant,
        # independent of the symmetric eigensolver
        tr = np.trace(g)
        tr2 = np.trace(g @ g)
        det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
               - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
               + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]))
        coeffs = [1.0, -tr, 0.5 * (tr * tr - tr2), -det]
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(pooled_spectrum(spec, 1), roots, atol=1e-8)

    def test_nontrivial_drops_flagged_values(self):
        spec = sample_spec(mode=EntryMode.ONES)
        eigs = pooled_spectrum(spec, 4)
        assert eigs.size == 4 * (spec.n_resources - 1)
        assert np.abs(eigs - 3.0).min() > 1e-6

    @pytest.mark.parametrize("n,k,mode", [(10, 15, EntryMode.ONES),
                                          (200, 300, EntryMode.RADEMACHER)])
    def test_one_gram_buffer_serves_every_realization(self, monkeypatch, n, k, mode):
        spec = EnsembleSpec(n_resources=n, n_users=k, col_degree=2, entry_mode=mode,
                            seed=3)
        # the reference: one fresh Gram and eigensolve per draw, beta * d
        # dropped from each draw's eigenvalues in ONES mode
        draws = [np.linalg.eigvalsh(generate_regular(spec, realization=t).gram())
                 for t in range(4)]
        if mode is EntryMode.ONES:
            draws = [e[np.abs(e - 3.0) > TRIVIAL_TOL] for e in draws]
        buffers = []
        gram = SparseSignatureMatrix.gram

        def spy(self, out=None):
            buffers.append(out)
            return gram(self, out)

        monkeypatch.setattr(SparseSignatureMatrix, "gram", spy)
        pooled = pooled_spectrum(spec, 4)
        assert len(buffers) == 4 and buffers[0] is not None
        assert all(b is buffers[0] for b in buffers)
        assert pooled.tobytes() == np.concatenate(draws).tobytes()

    @pytest.mark.parametrize("fail", ["draw", "eigensolve"])
    def test_a_failed_draw_raises_its_own_error_at_that_draw(self, monkeypatch, fail):
        # a pool is one result: realization 1 of 4 fails, and nothing after it runs
        draws = []

        def spy(spec, realization=0):
            draws.append(realization)
            if fail == "draw" and realization == 1:
                raise GenerationError("forced draw failure")
            return generate_regular(spec, realization=realization)

        eigvalsh = np.linalg.eigvalsh

        def broken(a):
            if len(draws) == 2:
                raise np.linalg.LinAlgError("forced eigensolve failure")
            return eigvalsh(a)

        monkeypatch.setattr(spectra, "generate_regular", spy)
        if fail == "eigensolve":
            monkeypatch.setattr(np.linalg, "eigvalsh", broken)
        error = GenerationError if fail == "draw" else np.linalg.LinAlgError
        with pytest.raises(error, match=f"^forced {fail} failure$"):
            pooled_spectrum(sample_spec(10, 15), 4)
        assert draws == [0, 1]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match=f"need at least one trial, got {trials}"):
            pooled_spectrum(EnsembleSpec(n_resources=10, n_users=15, col_degree=2), trials)


class TestKsDistance:
    def test_synthetic_law_sample_is_close(self):
        # quantile-transform a uniform grid through the analytic law
        p = P_DEFAULT
        fine = np.linspace(p.lambda_minus, p.lambda_plus, 4097)
        cdf = analytic_cdf(fine, p)
        u = (np.arange(100_000) + 0.5) / 100_000
        synthetic = np.interp(u, cdf, fine)
        assert ks_distance(synthetic, p) < 0.01
        # the pool need not be sorted
        reordered = np.random.default_rng(0).permutation(synthetic)
        assert ks_distance(reordered, p) == ks_distance(synthetic, p)

    def test_pooled_regular_spectra(self):
        ks = ks_distance(pooled_spectrum(sample_spec(), 20), P_DEFAULT)
        assert ks < 0.05

    def test_degenerate_sample_at_lower_edge(self):
        assert ks_distance(np.array([P_DEFAULT.lambda_minus]), P_DEFAULT) == 1.0

    def test_empty_pool_after_exclusion(self):
        for compare in (ks_distance, spectrum_histogram):
            with pytest.raises(ValueError, match="at least one eigenvalue"):
                compare(np.array([]), P_DEFAULT)

    @pytest.mark.parametrize("eigenvalues, message", [
        ([1.0, 2.0, np.nan, 3.0], r"eigenvalues\[2\] = nan is not finite"),
        ([1.0, np.inf, 2.0], r"eigenvalues\[1\] = inf is not finite"),
        ([-np.inf, 1.0], r"eigenvalues\[0\] = -inf is not finite"),
    ])
    def test_non_finite_eigenvalue_rejected(self, eigenvalues, message):
        # a NaN made the distance NaN and left the histogram, and +inf read
        # as an eigenvalue above the support
        for compare in (ks_distance, spectrum_histogram):
            with pytest.raises(ValueError, match=message):
                compare(np.array(eigenvalues), P_DEFAULT)

    def test_entry_modes_indistinguishable(self):
        a = np.sort(pooled_spectrum(sample_spec(120, 180, mode=EntryMode.ONES), 50))
        b = np.sort(pooled_spectrum(sample_spec(120, 180), 50))
        both = np.concatenate([a, b])
        ks = np.max(np.abs(np.searchsorted(a, both, side="right") / a.size
                           - np.searchsorted(b, both, side="right") / b.size))
        assert ks < 0.05


class TestSpectrumHistogram:
    def test_density_normalized(self):
        centers, dens = spectrum_histogram(pooled_spectrum(sample_spec(), 10), P_DEFAULT)
        width = centers[1] - centers[0]
        assert abs(dens.sum() * width - 1.0) < 1e-12
        assert centers.size == 100

    def test_custom_bins(self):
        centers, _ = spectrum_histogram(pooled_spectrum(sample_spec(), 2), P_DEFAULT, bins=25)
        assert centers.size == 25

    @pytest.mark.parametrize("bins", [0, -3])
    def test_no_bins_rejected(self, bins):
        # zero bins returned two empty arrays
        with pytest.raises(ValueError, match=f"need at least one bin, got {bins}"):
            spectrum_histogram(np.array([1.0]), P_DEFAULT, bins=bins)

    def test_tracks_analytic_overlay(self):
        samples = pooled_spectrum(sample_spec(120, 180), 40)
        centers, dens = spectrum_histogram(samples, P_DEFAULT, bins=40)
        overlay = analytic_density(centers, P_DEFAULT)
        interior = (centers > P_DEFAULT.lambda_minus + 0.15) & \
                   (centers < P_DEFAULT.lambda_plus - 0.15)
        assert np.abs(dens - overlay)[interior].max() < 0.1
