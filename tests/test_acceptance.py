"""Release gate: one test per acceptance criterion, each with a runtime budget.

Each test runs the registry entries of ``regnoma.checks`` that serve its
criterion through ``checks.run_checks``, the runner ``regnoma validate``
uses, and prints as a single pass/fail line under pytest -v.  Tolerances
and budgets are fixed; do not loosen them to make a failing build green.
"""

import dataclasses
import re
import time

import pytest

from regnoma import checks, cli
from regnoma.ensembles import GenerationError

# seeds of the sampled-ensemble criteria.  stream(seed, i) is the SeedSequence
# child stream of (seed, i), so each seed draws its own trials: criterion 8's
# gap reads 91.6-97.6 at seeds 0-3 (bound > 5).  The seeds were chosen when
# seeds below 16 shared one set of streams, and stay as they are.
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
    ("routes_vs_closed_form", "tree_max_rel_err"): (None, "fast", "<", 1e-10),
    ("routes_vs_closed_form", "graph_max_rel_err"): (None, "fast", "<", 1e-6),
    ("high_snr_offset", "max_abs_offset_err"): (None, "fast", "<", 1e-12),
    ("high_snr_offset", "max_abs_limit_err"): (None, "fast", "<", 1e-10),
    ("scaled_spectrum_ks", "ks_ones"): (5, "full", "<", 0.02),
    ("scaled_spectrum_ks", "ks_rademacher"): (5, "full", "<", 0.02),
    ("scaled_spectrum_ks", "ks_ones_vs_rademacher"): (5, "full", "<", 0.02),
    ("graph_route_agreement", "sup_abs_err"): (4, "full", "<", 0.05),
    ("finite_n_vs_asymptotic", "n_failed_trials"): (6, "full", "==", 0),
    ("finite_n_vs_asymptotic", "max_rel_err"): (6, "full", "<", 0.05),
    ("regular_vs_irregular", "gap_over_pooled_stderr"): (8, "full", ">", 5.0),
    ("regular_vs_irregular", "abs_err_minus_3_stderr"): (8, "full", "<", 0.01),
    ("full_scale_spectrum_ks", "ks"): (None, "full", "<", 0.02),
}


def run_criterion(criterion):
    served = [c for c in checks.CHECKS if c.criterion == criterion]
    assert served
    start = time.perf_counter()
    report, n_failed, _ = checks.run_checks(served, SEED.get(criterion, 0))
    elapsed = time.perf_counter() - start
    assert n_failed == 0, report
    assert elapsed < BUDGET_S[criterion]


def test_registry_matches_pinned_tolerances():
    registry = {(c.name, b.quantity): (c.criterion, c.level, b.op, b.tolerance)
                for c in checks.CHECKS for b in c.bounds}
    assert list(registry.items()) == list(PINNED.items())


def test_a_raising_check_fails_its_criterion_with_validates_line(monkeypatch, capsys):
    def broken(seed):
        raise GenerationError("forced")

    first = dataclasses.replace(checks.CHECKS[0], measure=broken)
    monkeypatch.setattr(checks, "CHECKS", (first, *checks.CHECKS[1:]))
    line = f"FAIL {first.name}: raised GenerationError: forced"
    with pytest.raises(AssertionError, match=f"(?m)^{re.escape(line)}$"):
        run_criterion(first.criterion)
    assert cli.main(["validate", "--level", "fast"]) == 3
    assert capsys.readouterr().out.splitlines()[0] == line


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
