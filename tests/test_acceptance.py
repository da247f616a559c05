"""Release gate: one test per acceptance criterion, each with a runtime budget.

Each test runs the registry entries of ``regnoma.checks`` that serve its
criterion, the same entries ``regnoma validate`` runs, and prints as a
single pass/fail line under pytest -v.  Tolerances and budgets are fixed;
do not loosen them to make a failing build green.
"""

import time

from regnoma.checks import CHECKS
from regnoma.spectra import analytic_density

# seeds of the sampled-ensemble criteria
SEED = {4: 0, 5: 0, 6: 1, 8: 2}
BUDGET_S = {1: 1.0, 2: 5.0, 3: 5.0, 4: 120.0, 5: 180.0, 6: 300.0, 7: 30.0,
            8: 300.0, 9: 1.0}

# (check, measured quantity) -> (criterion, level, op, tolerance), in
# validate's order; a tolerance changed in the registry fails until it is
# changed here as well
PINNED = {
    ("kesten_mckay_identity", "max_abs_diff"): (1, "fast", "<", 1e-12),
    ("density_normalization", "max_abs_mass_err"): (2, "fast", "<", 1e-8),
    ("density_first_moment", "max_abs_mean_err"): (2, "fast", "<", 1e-6),
    ("marchenko_pastur_limit", "min_sup_decrease"): (3, "fast", ">", 0.0),
    ("marchenko_pastur_limit", "sup_abs_diff_d1000"): (3, "fast", "<", 1e-2),
    ("scalar_cavity_agreement", "n_failed_points"): (4, "fast", "==", 0),
    ("scalar_cavity_agreement", "interior_sup_abs_err"): (4, "fast", "<", 1e-3),
    ("throughput_ordering", "n_failed_rows"): (7, "fast", "==", 0),
    ("throughput_ordering", "min_regular_minus_dense_rs"): (7, "fast", ">", 0.0),
    ("throughput_ordering", "min_cover_wyner_minus_regular"): (7, "fast", ">=", 0.0),
    ("throughput_ordering", "min_cover_wyner_minus_dense_rs"): (7, "fast", ">=", 0.0),
    ("small_snr_slope", "regular_rel_slope_err"): (9, "fast", "<", 1e-3),
    ("small_snr_slope", "dense_rs_rel_slope_err"): (9, "fast", "<", 1e-3),
    ("quadrature_stability", "abs_diff_doubled_start"): (None, "fast", "<", 1e-9),
    ("ebno_round_trip", "rel_err"): (None, "fast", "<", 1e-6),
    ("throughput_closed_form_vs_quadrature", "max_rel_err"): (None, "fast", "<", 1e-9),
    ("scaled_spectrum_ks", "ks_ones"): (5, "full", "<", 0.02),
    ("scaled_spectrum_ks", "ks_rademacher"): (5, "full", "<", 0.02),
    ("scaled_spectrum_ks", "ks_ones_vs_rademacher"): (5, "full", "<", 0.02),
    ("graph_route_agreement", "sup_abs_err"): (4, "full", "<", 0.05),
    ("mc_vs_closed_form", "abs_err_minus_3_stderr"): (None, "full", "<", 0.01),
    ("finite_n_vs_asymptotic", "n_failed_trials"): (6, "full", "==", 0),
    ("finite_n_vs_asymptotic", "max_rel_err"): (6, "full", "<", 0.05),
    ("regular_vs_irregular", "gap_over_pooled_stderr"): (8, "full", ">", 5.0),
    ("full_scale_spectrum_ks", "ks"): (None, "full", "<", 0.02),
}


def run_criterion(criterion):
    checks = [c for c in CHECKS if c.criterion == criterion]
    assert checks
    start = time.perf_counter()
    gates = [g for c in checks
             for g in c.run(analytic_density, SEED.get(criterion, 0))]
    elapsed = time.perf_counter() - start
    assert [str(g) for g in gates if not g.passed] == []
    assert elapsed < BUDGET_S[criterion]


def test_registry_matches_pinned_tolerances():
    registry = {(c.name, b.quantity): (c.criterion, c.level, b.op, b.tolerance)
                for c in CHECKS for b in c.bounds}
    assert list(registry.items()) == list(PINNED.items())


def test_criterion_1_kesten_mckay_identity():
    run_criterion(1)


def test_criterion_2_normalization_and_first_moment():
    run_criterion(2)


def test_criterion_3_marchenko_pastur_limit():
    run_criterion(3)


def test_criterion_4_three_route_density_agreement():
    run_criterion(4)


def test_criterion_5_scaled_pooled_spectrum_both_entry_modes():
    run_criterion(5)


def test_criterion_6_finite_n_throughput_matches_asymptotic():
    run_criterion(6)


def test_criterion_7_throughput_ordering_across_loads():
    run_criterion(7)


def test_criterion_8_regular_beats_irregular_by_clear_margin():
    run_criterion(8)


def test_criterion_9_small_snr_slope_is_half_load_over_ln2():
    run_criterion(9)
