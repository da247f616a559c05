"""Ensemble specs, samplers and their random streams."""

import hashlib

import numpy as np
import pytest
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

    def test_generation_failure_reports_cap(self, monkeypatch):
        # with a zero switch budget any realization containing a parallel
        # edge must report failure instead of looping
        monkeypatch.setattr(ensembles, "REPAIR_CAP_FACTOR", 0)
        spec = make_spec(6, 9, 4, seed=0)
        with pytest.raises(GenerationError, match="switch attempts"):
            for t in range(50):
                generate_regular(spec, realization=t)


# SHA-256 over (rows, cols, values) of every draw for seeds DIGEST_SEEDS and
# realizations DIGEST_REALIZATIONS, recorded from the tuple-keyed repair the
# sampler used before its integer-keyed rewrite; every spec needs repair
DIGEST_SEEDS = (0, 7, 2**32)
DIGEST_REALIZATIONS = range(4)
DRAW_DIGESTS = {
    (10, 15, 2, EntryMode.ONES):
        "b929ba6817986cc4ad6794e71bdbc8e1a889cfbcb2a55c2ab1b44f3a11d206f1",
    (10, 15, 2, EntryMode.RADEMACHER):
        "180c5688449a8f94d9049f2d607b35eeecd181b7582e0f7db3648355d5fac9e8",
    (30, 45, 2, EntryMode.ONES):
        "35868d716714132c08ed292f5cfd2498055f77adff8ccedddba963db78583022",
    (30, 45, 2, EntryMode.RADEMACHER):
        "d7420047edf46ac35af8c3043aa129833c96c364430fd2462ec738bd13c52d0e",
    (100, 300, 4, EntryMode.ONES):
        "a08d68cdd346c2cd70e80cd71ed60923da72266ba4b5ce568f0b0deb728d3abc",
    (100, 300, 4, EntryMode.RADEMACHER):
        "6ac9aab83894f4c227ba31805d926a407e4906af914584102ae51dcc3a36203c",
    (520, 1560, 4, EntryMode.ONES):
        "23a8ca5faf8b00f725ea4d387022880a0714a17ea56290250aee4520daad9117",
    (520, 1560, 4, EntryMode.RADEMACHER):
        "2e5a291fbb161cbc09b445e1cb9e8334faac9a901a0b6e08377c6a7a2628ef4b",
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


class TestGenerateIrregular:
    def test_degree_moments_near_poisson(self):
        spec = make_spec(1000, 1500, 2, seed=2)
        degs = np.concatenate([generate_irregular(spec, realization=t).column_degrees()
                               for t in range(100)])
        assert abs(degs.mean() - 2.0) < 0.1
        assert abs(degs.var(ddof=1) - 2.0) < 0.2

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


def dense_gram(m):
    a = m.to_dense()
    return (a @ a.T) / m.spec.col_degree


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

