"""Ensemble specs, samplers and their random streams."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

from regnoma import ensembles
from regnoma.ensembles import (EnsembleSpec, EntryMode, GenerationError,
                               SparseSignatureMatrix, generate_irregular,
                               generate_regular, stream)


def make_spec(n, k, d, mode=EntryMode.RADEMACHER, seed=0):
    return EnsembleSpec(n_resources=n, n_users=k, col_degree=d,
                        entry_mode=mode, seed=seed)


class TestEnsembleSpec:
    def test_derived_quantities(self):
        spec = make_spec(100, 150, 2)
        assert spec.beta == 1.5
        assert spec.row_degree == 3

    @pytest.mark.parametrize("n,k,d", [
        (10, 5, 2),    # underloaded, K < N
        (10, 14, 2),   # K d not divisible by N
        (10, 15, 1),   # degenerate degree excluded
        (10, 15, 0),
        (4, 4, 5),     # column degree exceeds row count
    ])
    def test_invalid_specs_rejected(self, n, k, d):
        with pytest.raises(ValueError):
            make_spec(n, k, d)

    @pytest.mark.parametrize("n,k", [(0, 5), (1, 0), (-1, 3)])
    def test_dimensions_must_be_positive(self, n, k):
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            make_spec(n, k, 2)

    def test_row_degree_above_users_is_a_column_degree_above_resources(self):
        # K >= N makes the row degree K d / N at least d >= 2, and above K only when d > N
        with pytest.raises(ValueError,
                           match="^column degree 3 exceeds number of resources 2$"):
            make_spec(2, 4, 3)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            make_spec(10, 15, 2, seed=2**64)
        with pytest.raises(ValueError):
            make_spec(10, 15, 2, seed=-1)


class TestGenerateRegular:
    def test_forced_two_by_two_instance(self):
        # with N = K = d = 2 every row and column needs both entries
        m = generate_regular(make_spec(2, 2, 2, EntryMode.ONES))
        assert np.array_equal(m.to_dense(), np.ones((2, 2)))

    def test_full_scale_degrees_exact(self):
        m = generate_regular(make_spec(2600, 3900, 2, seed=5))
        assert (m.column_degrees() == 2).all()
        assert (m.row_degrees() == 3).all()

    @pytest.mark.parametrize("n,k,d", [(100, 150, 2), (60, 80, 3), (50, 100, 4)])
    def test_degree_verification(self, n, k, d):
        spec = make_spec(n, k, d, seed=3)
        for t in range(5):
            m = generate_regular(spec, realization=t)
            assert (m.column_degrees() == d).all()
            assert (m.row_degrees() == spec.row_degree).all()
            pairs = set(zip(m.rows.tolist(), m.cols.tolist()))
            assert len(pairs) == m.nnz

    def test_fixed_seed_reproducible(self):
        spec = make_spec(100, 150, 2, seed=1)
        a = generate_regular(spec)
        b = generate_regular(spec)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.values, b.values)

    def test_realizations_differ(self):
        spec = make_spec(100, 150, 2, seed=1)
        a = generate_regular(spec, realization=0)
        b = generate_regular(spec, realization=1)
        assert not (np.array_equal(a.rows, b.rows)
                    and np.array_equal(a.cols, b.cols))

    def test_entry_modes(self):
        ones = generate_regular(make_spec(60, 90, 2, EntryMode.ONES, seed=2))
        assert (ones.values == 1.0).all()
        rad = generate_regular(make_spec(60, 90, 2, seed=2))
        assert set(np.unique(rad.values)) == {-1.0, 1.0}

    def test_same_seed_same_support_across_modes(self):
        # sign draws happen after the topology is fixed
        ones = generate_regular(make_spec(60, 90, 2, EntryMode.ONES, seed=7))
        rad = generate_regular(make_spec(60, 90, 2, EntryMode.RADEMACHER, seed=7))
        assert np.array_equal(ones.rows, rad.rows)
        assert np.array_equal(ones.cols, rad.cols)

    def test_dense_specs_repaired(self):
        # heavy parallel-edge load exercises the switch repair
        m = generate_regular(make_spec(6, 9, 4, seed=0))
        assert (m.column_degrees() == 4).all()
        assert (m.row_degrees() == 6).all()

    def test_locally_tree_like_at_full_scale(self):
        # a pair of resources sharing c users closes c(c-1)/2 four-cycles,
        # and the off-diagonal of B B^T holds every pair twice
        m = generate_regular(make_spec(2600, 3900, 2, seed=1))
        b = sparse.csr_matrix((np.ones(m.nnz), (m.rows, m.cols)), shape=(2600, 3900))
        common = (b @ b.T).tocoo()
        c = common.data[common.row != common.col]
        assert np.sum(c * (c - 1)) / 4 / 2600 < 0.05

    @pytest.mark.parametrize("mode", list(EntryMode))
    def test_degree_equal_to_resources_draws_the_complete_support(self, mode):
        # the one simple support at d = N; switch repair ran out of its cap on
        # realization 0 here
        spec = make_spec(10, 15, 10, mode, seed=0)
        for t in range(4):
            m = generate_regular(spec, realization=t)
            assert m.regular
            assert np.array_equal(m.to_dense() != 0, np.ones((10, 15), dtype=bool))
            assert set(np.unique(m.values)) == (
                {1.0} if mode is EntryMode.ONES else {-1.0, 1.0})

    def test_complete_support_signs_differ_across_realizations(self):
        spec = make_spec(10, 15, 10, EntryMode.RADEMACHER, seed=0)
        a, b = (generate_regular(spec, realization=t) for t in (0, 1))
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert not np.array_equal(a.values, b.values)

    def test_generation_failure_reports_cap(self, monkeypatch):
        # with a zero switch budget any realization containing a parallel
        # edge must report failure instead of looping
        monkeypatch.setattr(ensembles, "REPAIR_CAP_FACTOR", 0)
        spec = make_spec(6, 9, 4, seed=0)
        with pytest.raises(GenerationError, match="switch attempts"):
            for t in range(50):
                generate_regular(spec, realization=t)


# SHA-256 over (rows, cols, values) of every draw for seeds DIGEST_SEEDS and
# realizations DIGEST_REALIZATIONS, recorded on the SeedSequence child streams;
# every spec needs repair
DIGEST_SEEDS = (0, 7, 2**32)
DIGEST_REALIZATIONS = range(4)
DRAW_DIGESTS = {
    (10, 15, 2, EntryMode.ONES):
        "d309a4e46e330cdd6cdf03f28754e51c443174ebe78a6b236d8b40765e4a73aa",
    (10, 15, 2, EntryMode.RADEMACHER):
        "11482f6f2f028bfb30b964f505c7a905bd04518ed0e6e1146caeeaf4db2b6da2",
    (30, 45, 2, EntryMode.ONES):
        "7f9224d155a8b18c1a8d7b279659e7bdef642b8ace5fcd33b8a3a07a638eea58",
    (30, 45, 2, EntryMode.RADEMACHER):
        "6a1af1b301f3b71566ff56f34566c4fb8eda2d5c05ad060d96ca9301e180d319",
    (100, 300, 4, EntryMode.ONES):
        "9f57d45445f767174910f54670626c71f01e58dee01ea470b160cd5ce17daccf",
    (100, 300, 4, EntryMode.RADEMACHER):
        "6f96ce60f0006e3356924d3b410b80b67e2cd0468b1869860b984a5bf3ae5529",
    (520, 1560, 4, EntryMode.ONES):
        "6393756e5087d314df4e9dd2d215bb9f232d4a7617add36be0c8d910daeea279",
    (520, 1560, 4, EntryMode.RADEMACHER):
        "090fb41f66edfcef27c0d4b061b95c126d244d005a491ee43b02cc3a3cf63761",
}


class TestDrawsPinned:
    @pytest.mark.parametrize("n,k,d,mode", list(DRAW_DIGESTS))
    def test_draws_match_recorded_digest(self, n, k, d, mode):
        h = hashlib.sha256()
        for seed in DIGEST_SEEDS:
            spec = make_spec(n, k, d, mode, seed)
            for t in DIGEST_REALIZATIONS:
                m = generate_regular(spec, realization=t)
                for a in (m.rows, m.cols, m.values):
                    h.update(a.tobytes())
        assert h.hexdigest() == DRAW_DIGESTS[(n, k, d, mode)]

    @pytest.mark.parametrize("n,k,d", sorted({key[:3] for key in DRAW_DIGESTS}))
    def test_pinned_specs_need_repair(self, n, k, d):
        # replay the configuration-model matching and count parallel edges
        spec = make_spec(n, k, d)
        parallel = 0
        for seed in DIGEST_SEEDS:
            for t in DIGEST_REALIZATIONS:
                rows = np.repeat(np.arange(n), spec.row_degree)
                rows = rows[stream(seed, t).permutation(rows.size)]
                keys = rows * k + np.repeat(np.arange(k), d)
                parallel += keys.size - np.unique(keys).size
        assert parallel > 0


# SHA-256 over (rows, cols, values) of every Bernoulli draw for seeds
# DIGEST_SEEDS and realizations DIGEST_REALIZATIONS, recorded from the edge
# draw (a binomial count of distinct cells); kept apart from DRAW_DIGESTS,
# whose keys replay regular matchings
IRREGULAR_DIGESTS = {
    (10, 15, 2, EntryMode.ONES):
        "537e7799833f4e6f94e21cbd434b10205ae699bf0c6ea30d9e0740939fd309b3",
    (10, 15, 2, EntryMode.RADEMACHER):
        "d274bb7687ea78fcdf4552751817f6f611d8e7772eaa0a5622bafe1bb7297cde",
    (200, 300, 2, EntryMode.RADEMACHER):
        "c85b52938a2175d992e37658abdfbed79e34ae1f21006f821bcabba03b360c37",
}


class TestGenerateIrregular:
    def test_degree_moments_near_poisson(self):
        spec = make_spec(1000, 1500, 2, seed=2)
        degs = np.concatenate([generate_irregular(spec, realization=t).column_degrees()
                               for t in range(100)])
        assert abs(degs.mean() - 2.0) < 0.1
        assert abs(degs.var(ddof=1) - 2.0) < 0.2

    @pytest.mark.parametrize("n,k,d,mode", list(IRREGULAR_DIGESTS))
    def test_draws_match_recorded_digest(self, n, k, d, mode):
        h = hashlib.sha256()
        for seed in DIGEST_SEEDS:
            spec = make_spec(n, k, d, mode, seed)
            for t in DIGEST_REALIZATIONS:
                m = generate_irregular(spec, realization=t)
                for a in (m.rows, m.cols, m.values):
                    h.update(a.tobytes())
        assert h.hexdigest() == IRREGULAR_DIGESTS[(n, k, d, mode)]

    def test_cell_occupancy_is_iid_bernoulli(self):
        # on a 3 x 3 matrix every cell is nonzero w.p. 2/3 on its own, and the
        # number of nonzeros is Binomial(9, 2/3)
        spec = make_spec(3, 3, 2, EntryMode.ONES, seed=11)
        trials, p = 4000, 2 / 3
        dense = np.array([generate_irregular(spec, realization=t).to_dense()
                          for t in range(trials)])
        hits = dense.sum(axis=0).ravel()
        chi2 = float(((hits - trials * p) ** 2 / (trials * p * (1 - p))).sum())
        assert chi2 < stats.chi2.ppf(0.99, hits.size)
        # pool the counts 0..3, whose expected numbers are small
        counts = np.bincount(np.maximum(dense.sum(axis=(1, 2)).astype(int), 3) - 3,
                             minlength=7)
        pmf = stats.binom.pmf(np.arange(3, 10), 9, p)
        pmf[0] = stats.binom.cdf(3, 9, p)
        expected = trials * pmf
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, counts.size - 1)

    def test_large_draw_keeps_the_mean_column_degree(self):
        # 1.5e10 cells and ~3e5 edges: only the edges are drawn
        deg = generate_irregular(make_spec(100_000, 150_000, 2, seed=3)).column_degrees()
        # the mean has standard deviation ~0.004 and the variance ~0.008
        assert abs(deg.mean() - 2.0) < 0.02
        assert abs(deg.var(ddof=1) - 2.0) < 0.05

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            generate_irregular(make_spec(2, 2, 2))

    def test_flagged_irregular(self):
        m = generate_irregular(make_spec(200, 300, 2, seed=1))
        assert not m.regular

    def test_column_degrees_pass_poisson_goodness_of_fit(self):
        spec = make_spec(1000, 10_000, 2, seed=9)
        deg = generate_irregular(spec, realization=0).column_degrees()
        kmax = 9
        observed = np.bincount(np.minimum(deg, kmax), minlength=kmax + 1)
        pmf = stats.binom.pmf(np.arange(kmax), 1000, 2 / 1000)
        pmf = np.append(pmf, 1.0 - pmf.sum())
        expected = pmf * deg.size
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, kmax)


class TestRegular:
    @pytest.mark.parametrize("n,k,d", [(10, 15, 2), (60, 60, 3), (100, 300, 4)])
    @pytest.mark.parametrize("mode", list(EntryMode))
    def test_regular_draws(self, n, k, d, mode):
        spec = make_spec(n, k, d, mode, seed=3)
        assert all(generate_regular(spec, realization=t).regular for t in range(3))

    @pytest.mark.parametrize("axis", ["row", "col"])
    def test_one_moved_entry_breaks_it(self, axis):
        # moving one entry along a row keeps the row degrees and breaks two
        # column degrees, and moving it along a column does the reverse
        m = generate_regular(make_spec(10, 15, 2, EntryMode.ONES, seed=3))
        rows, cols = m.rows.copy(), m.cols.copy()
        dense = m.to_dense()
        if axis == "row":
            cols[0] = np.flatnonzero(dense[rows[0]] == 0)[0]
        else:
            rows[0] = np.flatnonzero(dense[:, cols[0]] == 0)[0]
        moved = SparseSignatureMatrix(m.spec, rows, cols, m.values.copy())
        assert moved.nnz == m.nnz and not moved.regular
        assert (moved.row_degrees() == m.row_degrees()).all() == (axis == "row")


def assert_same_coordinates(a, b):
    for name in ("rows", "cols", "values"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestCoordinateInput:
    def test_empty_lists(self):
        spec = make_spec(200, 300, 2)
        empty = np.zeros(0, dtype=np.int64)
        from_lists = SparseSignatureMatrix(spec, [], [], [])
        assert from_lists.nnz == 0
        assert_same_coordinates(from_lists,
                                SparseSignatureMatrix(spec, empty, empty, np.zeros(0)))

    def test_unsorted_lists(self):
        # integer values and unsorted coordinates, stored sorted by (row, col)
        rows, cols, values = [2, 0, 1, 0], [0, 1, 0, 0], [1, -1, -1, 1]
        from_lists = SparseSignatureMatrix(make_spec(3, 3, 2), rows, cols, values)
        twin = SparseSignatureMatrix(make_spec(3, 3, 2), np.array(rows), np.array(cols),
                                     np.array(values, dtype=np.float64))
        assert_same_coordinates(from_lists, twin)
        assert from_lists.rows.dtype == np.int64 and from_lists.values.dtype == np.float64
        assert from_lists.rows.tolist() == [0, 0, 1, 2]
        assert from_lists.cols.tolist() == [0, 1, 0, 0]
        assert from_lists.values.tolist() == [1.0, -1.0, -1.0, 1.0]

    @pytest.mark.parametrize("rows,cols,values", [
        ([0, 1, 2], [0, 1], [1.0, 1.0]),
        ([0, 1], [0, 1], [1.0, 1.0, 1.0]),
        ([0, 1], [0, 1, 2], [1.0, 1.0]),
        ([[0, 1]], [[0, 1]], [[1.0, 1.0]]),
    ])
    def test_mismatched_shapes_rejected(self, rows, cols, values):
        with pytest.raises(ValueError, match="one 1-D length"):
            SparseSignatureMatrix(make_spec(3, 3, 2), rows, cols, values)

    @pytest.mark.parametrize("rows,cols", [
        ([0, 1, -1], [0, 0, 1]),
        ([0, 1, 3], [0, 0, 1]),
        ([0, 1, 2], [0, -1, 1]),
        ([0, 1, 2], [0, 0, 3]),
    ])
    def test_coordinates_outside_the_matrix_rejected(self, rows, cols):
        # a negative index would otherwise wrap into the last row or column
        with pytest.raises(ValueError, match=r"outside \[0, 3\) x \[0, 3\)"):
            SparseSignatureMatrix(make_spec(3, 3, 2), rows, cols, np.ones(3))

    @pytest.mark.parametrize("rows,cols,first", [
        ([0.5, 1, 0, 1], [0, 0, 1, 1], r"rows\[0\] = 0.5"),
        ([0, 1, 0, 1], [0, 0, 1.25, 1.5], r"cols\[2\] = 1.25"),
        ([0, 1, np.nan, 1], [0, 0, 1, 1], r"rows\[2\] = nan"),
        ([0, 1, 0, 1], np.array([0, 0, np.inf, 1]), r"cols\[2\] = inf"),
    ])
    def test_fractional_coordinates_rejected(self, rows, cols, first):
        # the int64 cast would truncate 0.5 to row 0 and accept the matrix
        with pytest.raises(ValueError, match=first + " is not an integral coordinate"):
            SparseSignatureMatrix(make_spec(2, 2, 2), rows, cols, np.ones(4))

    def test_integral_floats_accepted(self):
        from_floats = SparseSignatureMatrix(make_spec(2, 2, 2), [1.0, 0.0, 1.0, 0.0],
                                            np.array([1.0, 1.0, 0.0, 0.0]), np.ones(4))
        assert_same_coordinates(from_floats, SparseSignatureMatrix(
            make_spec(2, 2, 2), [1, 0, 1, 0], [1, 1, 0, 0], np.ones(4)))

    @pytest.mark.parametrize("values,first", [
        ([1.0, 0.0, -1.0, 1.0], r"values\[1\] = 0.0"),
        ([1.0, -1.0, 2.0, 0.5], r"values\[2\] = 2.0"),  # the first of two
        ([-1.0, 1.0, 1.0, -2.0], r"values\[3\] = -2.0"),
        ([np.nan, 1.0, 1.0, 1.0], r"values\[0\] = nan"),
        ([1.0, 1.0, 1.0, np.inf], r"values\[3\] = inf"),
        ([1.0, -np.inf, 1.0, 1.0], r"values\[1\] = -inf"),
    ])
    def test_values_other_than_plus_or_minus_one_rejected(self, values, first):
        # both Gram paths and the graph route's squared entries assume +-1
        with pytest.raises(ValueError, match=first + r" is not \+1 or -1$"):
            SparseSignatureMatrix(make_spec(2, 2, 2), [0, 0, 1, 1], [0, 1, 0, 1], values)

    @pytest.mark.parametrize("value", [2.0, np.nan])
    def test_one_bad_value_in_a_draw_rejected(self, value):
        m = generate_regular(make_spec(200, 300, 2))
        values = m.values.copy()
        values[7] = value
        with pytest.raises(ValueError, match=rf"values\[7\] = {value} is not"):
            SparseSignatureMatrix(m.spec, m.rows, m.cols, values)

    @pytest.mark.parametrize("n,k,rows,cols,cell", [
        (2, 2, [0, 0, 1], [0, 0, 1], (0, 0)),
        (3, 3, [2, 1, 0, 2], [1, 2, 0, 1], (2, 1)),
        (3, 3, [2, 2, 0, 1, 0], [2, 2, 1, 0, 1], (0, 1)),  # the first in (row, col) order
    ])
    def test_repeated_cells_rejected(self, n, k, rows, cols, cell):
        # a repeat would count twice in the degrees and the pair-sum Gram, but
        # once in the dense Gram
        with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) is given "
                                             "more than once"):
            SparseSignatureMatrix(make_spec(n, k, 2), rows, cols, np.ones(len(rows)))

    @pytest.mark.parametrize("gen", [generate_regular, generate_irregular])
    def test_one_repeat_in_a_large_draw_rejected(self, gen):
        m = gen(make_spec(520, 1560, 4, seed=5))
        i = m.nnz // 2
        rows, cols = np.append(m.rows, m.rows[i]), np.append(m.cols, m.cols[i])
        with pytest.raises(ValueError, match=rf"cell \({m.rows[i]}, {m.cols[i]}\) is given"):
            SparseSignatureMatrix(m.spec, rows[::-1], cols[::-1], np.ones(rows.size))
        assert_same_coordinates(SparseSignatureMatrix(m.spec, m.rows[::-1], m.cols[::-1],
                                                      m.values[::-1]), m)


def dense_gram(m):
    a = m.to_dense()
    return (a @ a.T) / m.spec.col_degree


@st.composite
def small_specs(draw):
    """An admissible spec with N <= 12 and 2 <= d <= N, in either entry mode."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(2, n))
    # K = N r / d is whole when the row degree r is a multiple of d / gcd(N, d),
    # and r >= d gives K >= N
    step = d // math.gcd(n, d)
    lowest = math.ceil(d / step)
    row_degree = step * draw(st.integers(lowest, lowest + 3))
    return make_spec(n, n * row_degree // d, d, draw(st.sampled_from(list(EntryMode))),
                     draw(st.integers(0, 2**64 - 1)))


class TestGram:
    @pytest.mark.parametrize("n,k,d,pair_sum", [
        (10, 15, 2, False),
        (30, 45, 2, False),
        (200, 300, 2, True),
        (100, 300, 4, True),
    ])
    @pytest.mark.parametrize("gen", [generate_regular, generate_irregular])
    @pytest.mark.parametrize("mode", list(EntryMode))
    def test_bit_equal_to_dense_product(self, n, k, d, pair_sum, gen, mode):
        assert (n * k > ensembles.DENSE_GRAM_MAX_CELLS) == pair_sum
        spec = make_spec(n, k, d, mode, seed=4)
        for t in range(3):
            m = gen(spec, realization=t)
            assert m.gram().tobytes() == dense_gram(m).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(spec=small_specs(), gen=st.sampled_from([generate_regular, generate_irregular]),
           realization=st.integers(0, 100))
    @example(spec=make_spec(4, 6, 4, EntryMode.RADEMACHER, seed=1), gen=generate_regular,
             realization=0)
    def test_both_paths_give_the_same_bytes_on_any_small_spec(self, spec, gen, realization):
        # the irregular sampler needs d < N; the regular one takes d = N too
        assume(gen is generate_regular or spec.col_degree < spec.n_resources)
        m = gen(spec, realization)
        grams = []
        for max_cells in (0, 10**9):  # the pair sum, then the dense product
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ensembles, "DENSE_GRAM_MAX_CELLS", max_cells)
                grams.append(m.gram().tobytes())
        assert grams[0] == grams[1]

    def test_irregular_with_empty_rows_and_columns(self):
        spec = make_spec(200, 300, 2, seed=6)
        assert 200 * 300 > ensembles.DENSE_GRAM_MAX_CELLS
        m = generate_irregular(spec)
        for degrees in (m.column_degrees(), m.row_degrees()):
            assert (degrees == 0).any() and (degrees == 1).any()
        assert m.gram().tobytes() == dense_gram(m).tobytes()

    @pytest.mark.parametrize("pair_sum", [False, True])
    def test_hand_built_three_by_three(self, monkeypatch, pair_sum):
        # columns of degree 3, 1 and 0: A = [[1, 0, 0], [-1, -1, 0], [1, 0, 0]]
        if pair_sum:
            monkeypatch.setattr(ensembles, "DENSE_GRAM_MAX_CELLS", 0)
        m = SparseSignatureMatrix(make_spec(3, 3, 2), rows=np.array([0, 1, 2, 1]),
                                  cols=np.array([0, 0, 0, 1]),
                                  values=np.array([1.0, -1.0, 1.0, -1.0]))
        expected = np.array([[1.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [1.0, -1.0, 1.0]]) / 2
        assert m.gram().tobytes() == expected.tobytes()

    def test_matrix_without_entries(self):
        empty = np.zeros(0, dtype=np.int64)
        m = SparseSignatureMatrix(make_spec(200, 300, 2), rows=empty, cols=empty,
                                  values=np.zeros(0))
        assert m.gram().tobytes() == np.zeros((200, 200)).tobytes()

    @pytest.mark.parametrize("n,k,d", [(10, 15, 2), (200, 300, 2)])
    @pytest.mark.parametrize("mode", list(EntryMode))
    def test_writes_into_a_given_buffer(self, n, k, d, mode):
        m = generate_regular(make_spec(n, k, d, mode, seed=7))
        out = np.full((n, n), np.nan)
        assert m.gram(out) is out
        assert out.tobytes() == m.gram().tobytes() == dense_gram(m).tobytes()

    @pytest.mark.parametrize("n,k,d", [(10, 15, 2), (200, 300, 2)])
    @pytest.mark.parametrize("out", [
        lambda n: np.empty((n, n + 1)),
        lambda n: np.empty((n, n), dtype=np.float32),
        lambda n: np.empty((n, n), order="F"),
        lambda n: np.empty((n, 2 * n))[:, ::2],
        lambda n: np.empty((n, n)).tolist(),
    ])
    def test_bad_buffer_rejected(self, n, k, d, out):
        # a non-contiguous buffer would flatten into a copy and stay unwritten
        m = generate_regular(make_spec(n, k, d, seed=7))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            m.gram(out(n))

    def test_large_matrices_are_never_densified(self, monkeypatch):
        m = generate_regular(make_spec(520, 1560, 4, seed=5))
        expected = dense_gram(m)

        def refuse(self):
            raise AssertionError("to_dense called above the crossover")

        monkeypatch.setattr(SparseSignatureMatrix, "to_dense", refuse)
        assert m.gram().tobytes() == expected.tobytes()


class TestStream:
    def test_deterministic_per_index(self):
        a = stream(123, 7).random(5)
        b = stream(123, 7).random(5)
        c = stream(123, 8).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_is_the_spawned_child_of_the_seed(self):
        child = np.random.SeedSequence(123).spawn(8)[7]
        assert np.array_equal(stream(123, 7).random(5),
                              np.random.Generator(np.random.PCG64(child)).random(5))

