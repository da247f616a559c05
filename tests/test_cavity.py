"""Scalar cavity fixed point on the tree, per-graph messages, and their densities."""

import cmath
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from regnoma import cavity
from regnoma.cavity import (GRAPH_EPSILON, ITER_TOL, _iterate, cavity_on_graph,
                            cavity_on_tree, check_epsilon)
from regnoma.ensembles import (EnsembleSpec, EntryMode, GenerationError,
                               SparseSignatureMatrix, generate_irregular,
                               generate_regular)
from regnoma.spectra import (DensityParams, analytic_density, gram_transform,
                             kesten_mckay_density)

P_DEFAULT = DensityParams(beta=1.5, d=2.0)

# the scalar route and the closed form, each as (p, w) -> (delta, gram_transform)
PAIRS = pytest.mark.parametrize("pair", [cavity_on_tree, lambda p, w: gram_transform(w, p)],
                                ids=["tree", "closed_form"])


def tree_density(grid, p, epsilon):
    """The scalar route's density on a real grid, as the CLI reads it."""
    _, gram = cavity_on_tree(p, np.asarray(grid) + 1j * epsilon)
    return -gram.imag / np.pi


def sample_matrix(n, k, d, mode=EntryMode.RADEMACHER, seed=0, realization=0):
    spec = EnsembleSpec(n_resources=n, n_users=k, col_degree=d,
                        entry_mode=mode, seed=seed)
    return generate_regular(spec, realization=realization)


# random admissible (beta, d): d lies 0.01 to 50 above the boundary 1 + 1/beta
admissible = st.builds(
    lambda beta, log_gap: DensityParams(beta, 1.0 + 1.0 / beta + 10.0 ** log_gap),
    st.floats(1.0, 8.0), st.floats(-2.0, 1.7))


def masked_iterate(z, p):
    """Reference damped iteration that gathers and scatters through a mask.

    Every step updates the still-active points in place in full-size
    arrays.  Stops by ``cavity.ITER_TOL`` and ``cavity.MAX_ITER`` as read
    at call time; returns (delta, residual) as ``_iterate`` does.
    """
    delta = np.zeros(z.shape, dtype=complex)
    residual = np.full(z.shape, np.inf)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(cavity.MAX_ITER):
        if not active.any():
            break
        za, da = z[active], delta[active]
        prop = 1.0 / (za - p.gamma / (1.0 - p.alpha * da))
        new = (1.0 - cavity.DAMPING) * da + cavity.DAMPING * prop
        res = np.abs(new - da)
        delta[active] = new
        residual[active] = res
        idx = np.flatnonzero(active)
        active[idx[~(res >= cavity.ITER_TOL)]] = False
    return delta, residual


class TestSolveFixedPoint:
    """The scalar fixed point as the inversion solves it, over a grid of z."""

    @PAIRS
    def test_resolvent_asymptotics_at_large_z(self, pair):
        z = 1e6 + 1j
        delta, gram = pair(P_DEFAULT, z)
        assert delta.shape == gram.shape == ()
        assert abs(delta * z - 1.0) < 1e-4
        assert abs(gram * z - 1.0) < 1e-4

    @PAIRS
    @settings(max_examples=100, deadline=None)
    @given(p=admissible)
    def test_series_expansion_carries_first_two_moments(self, pair, p):
        # z G(z) = 1 + beta/z + m2/z^2 + ..., with the exact second moment
        m2 = p.beta * (p.beta + p.alpha)
        z = np.array([1e3 + 1j, 1e4 + 1j])
        _, gram = pair(p, z)
        assert not np.isnan(gram).any()
        resid = np.abs(z * gram - 1.0 - p.beta / z)
        assert np.all(resid < 2.0 * m2 / np.abs(z) ** 2)

    def test_boundary_density_matches_closed_form(self):
        _, gram = cavity_on_tree(P_DEFAULT, 1.5 + 1e-6j)
        dens = -gram.imag / math.pi
        assert abs(dens - analytic_density(1.5, P_DEFAULT)) < 1e-3

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0, 7.5])
    def test_converged_iteration_is_the_physical_root(self, beta):
        # the damped iteration and the closed-form fallback pick one branch
        for gap in (0.01, 0.3, 1.0, 3.0, 30.0):
            p = DensityParams(beta=beta, d=1.0 + 1.0 / beta + gap)
            lam = np.linspace(p.lambda_minus - 0.5, p.lambda_plus + 0.5, 25)
            for eps in (1e-6, 1e-4, 1e-2, 1.0):
                z = lam + 1j * eps
                delta, residual = _iterate(z, p)
                converged = residual < ITER_TOL
                assert converged.any()
                root = gram_transform(z[converged], p)[0]
                assert np.all(np.abs(delta[converged] - root) < 1e-8 * np.abs(root))

    @PAIRS
    @settings(max_examples=100, deadline=None)
    @given(p=admissible, log_eps=st.floats(-6.0, 0.0))
    def test_herglotz_branch(self, pair, p, log_eps):
        lam = np.linspace(p.lambda_minus - 1.0, p.lambda_plus + 1.0, 50)
        delta, gram = pair(p, lam + 1j * 10.0 ** log_eps)
        assert not np.isnan(delta).any() and not np.isnan(gram).any()
        assert np.all(delta.imag <= 1e-12)
        assert np.all(gram.imag <= 1e-12)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=admissible, log_eps=st.floats(-8.0, -3.0),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=17),
           max_iter=st.one_of(st.sampled_from([0, 1]), st.integers(0, 3000)))
    def test_compact_loop_equals_masked_loop(self, p, log_eps, u, max_iter):
        # a small step budget makes some or all points stall, so both the
        # stalled and the converged write-back run
        lam = p.lambda_minus - 1.0 + np.array(u) * (p.lambda_plus - p.lambda_minus + 2.0)
        z = lam + 1j * 10.0 ** log_eps
        with patch.object(cavity, "MAX_ITER", max_iter):
            want = masked_iterate(z, p)
            got = _iterate(z, p)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("bad", [
        1.0 - 0.1j, 1.0 + 0.0j, 1.0 - 1e-6j, complex(math.nan, 1e-6),
        complex(math.inf, 1e-6), complex(-math.inf, 1e-6), complex(1.0, math.nan),
        complex(1.0, math.inf)])
    def test_rejects_points_off_the_open_upper_half_plane(self, bad, monkeypatch):
        def no_work(*args):
            raise AssertionError("iterated before the points were checked")

        # the finite point before the bad one does not run either
        monkeypatch.setattr(cavity, "_iterate", no_work)
        with pytest.raises(ValueError, match="finite w with Im w > 0"):
            cavity_on_tree(P_DEFAULT, np.array([1.0 + 0.1j, bad]))
        with pytest.raises(ValueError, match="Im w > 0"):
            cavity_on_tree(P_DEFAULT, bad)

    def test_a_bad_grid_names_one_point(self):
        # the whole 512-point grid below the axis, but one point in the message
        grid = np.linspace(P_DEFAULT.lambda_minus, P_DEFAULT.lambda_plus, 512)
        with pytest.raises(ValueError, match="Im w > 0") as info:
            cavity_on_tree(P_DEFAULT, grid - 1e-6j)
        assert len(str(info.value)) < 100

    def test_results_take_the_shape_of_w(self):
        w = (np.linspace(0.5, 3.0, 6) + 1j * np.array([1e-6, 1e-2])[:, None]).reshape(2, 3, 2)
        flat = cavity_on_tree(P_DEFAULT, w.ravel())
        for got, want in zip(cavity_on_tree(P_DEFAULT, w), flat):
            assert got.shape == w.shape
            assert np.array_equal(got.ravel(), want)


class TestTreeDensity:
    """The scalar route's density -Im gram_transform(lam + i eps) / pi."""

    def test_vanishes_outside_support(self):
        val = tree_density(np.array([P_DEFAULT.lambda_plus + 0.5]), P_DEFAULT, 1e-6)
        assert val[0] < 10.0 * 1e-6

    def test_full_grid_matches_closed_form(self):
        grid = np.linspace(P_DEFAULT.lambda_minus, P_DEFAULT.lambda_plus, 512)
        est = tree_density(grid, P_DEFAULT, 1e-6)
        interior = ((grid > P_DEFAULT.lambda_minus + 1e-3)
                    & (grid < P_DEFAULT.lambda_plus - 1e-3))
        err = np.abs(est - analytic_density(grid, P_DEFAULT))[interior]
        assert not np.isnan(err).any()
        assert err.max() < 1e-3

    def test_unit_load_matches_kesten_mckay_away_from_origin(self):
        p = DensityParams(beta=1.0, d=2.0)
        grid = np.linspace(0.1, p.lambda_plus - 1e-3, 256)
        est = tree_density(grid, p, 1e-6)
        assert np.abs(est - kesten_mckay_density(grid, 2.0)).max() < 1e-3

    def test_epsilon_sensitivity_is_linear(self):
        grid = np.linspace(P_DEFAULT.lambda_minus + 1e-3,
                           P_DEFAULT.lambda_plus - 1e-3, 128)
        a = tree_density(grid, P_DEFAULT, 1e-4)
        b = tree_density(grid, P_DEFAULT, 1e-5)
        assert np.abs(a - b).max() < 10.0 * 1e-4

    @pytest.mark.parametrize("epsilon", [2e-3, 1.0, 1e308])
    def test_any_finite_positive_offset_runs(self, epsilon):
        # no upper bound on the offset, as on the graph route
        dens = tree_density(np.array([0.5, 1.0, 2.0]), P_DEFAULT, epsilon)
        assert np.isfinite(dens).all() and (dens >= 0.0).all()

    def test_empty_grid(self):
        dens = tree_density(np.array([]), P_DEFAULT, 1e-6)
        assert dens.shape == (0,) and dens.dtype == np.float64

    @pytest.mark.parametrize("failure", ["no_root", "wrong_branch"])
    def test_failed_points_are_nan(self, monkeypatch, failure):
        grid = np.linspace(P_DEFAULT.lambda_minus + 0.1, P_DEFAULT.lambda_plus - 0.1, 8)
        fail = np.arange(grid.size) % 2 == 0

        def closed_form(w, p):
            delta, gram = gram_transform(w, p)
            bad = (np.conj(delta) if failure == "wrong_branch"
                   else np.full(delta.shape, complex(np.nan, np.nan)))
            return np.where(fail, bad, delta), gram

        # one update stalls every point, so each takes the (patched) closed form
        monkeypatch.setattr(cavity, "MAX_ITER", 1)
        monkeypatch.setattr(cavity, "gram_transform", closed_form)
        for v in cavity_on_tree(P_DEFAULT, grid + 1e-6j):
            assert np.isnan(v.real[fail]).all() and np.isnan(v.imag[fail]).all()
            assert np.isfinite(v[~fail]).all()
        dens = tree_density(grid, P_DEFAULT, 1e-6)
        assert np.isnan(dens[fail]).all()
        np.testing.assert_allclose(dens[~fail], analytic_density(grid[~fail], P_DEFAULT),
                                   atol=1e-3)


def tree_matrix():
    spec = EnsembleSpec(n_resources=2, n_users=3, col_degree=2,
                        entry_mode=EntryMode.ONES, seed=0)
    return SparseSignatureMatrix(
        spec=spec,
        rows=np.array([0, 0, 1, 1]),
        cols=np.array([0, 1, 1, 2]),
        values=np.ones(4))


def dense_resolvent_diagonal(matrix, w):
    """Diagonal of H^-1, H = [[w I_N, -S / sqrt(d)], [-S^T / sqrt(d), I_K]], S = |A|."""
    n, k = matrix.spec.n_resources, matrix.spec.n_users
    support = np.abs(matrix.to_dense()) / np.sqrt(matrix.spec.col_degree)
    h = np.eye(n + k, dtype=complex)
    h[:n, :n] *= w
    h[:n, n:] = -support
    h[n:, :n] = -support.T
    return np.diag(np.linalg.inv(h))


def node_values(run):
    """All node values of a run, resources first, as the per-edge reference orders them."""
    return np.concatenate([run.resource_values, run.user_values], axis=-1)


class TestCavityOnGraph:
    def test_message_count_and_branch(self):
        m = sample_matrix(30, 45, 2)
        msgs = cavity_on_graph(m, 1.5 + 0.05j)
        assert msgs.messages.shape == (2, m.nnz)
        assert (msgs.messages.imag <= 1e-12).all()
        assert (node_values(msgs).imag <= 1e-12).all()

    def test_entry_mode_independence(self):
        ones = sample_matrix(30, 45, 2, EntryMode.ONES, seed=4)
        rad = sample_matrix(30, 45, 2, EntryMode.RADEMACHER, seed=4)
        z = 1.2 + 0.1j
        a = cavity_on_graph(ones, z)
        b = cavity_on_graph(rad, z)
        assert np.array_equal(a.messages, b.messages)

    @pytest.mark.parametrize("w", [1.0 + 0.05j, 0.3 + 1e-3j, -0.7 + 0.4j, 5.0 + 2.0j])
    def test_exact_on_trees(self, w, monkeypatch):
        # the node values are the diagonal of H^-1, and the resource values
        # that of the Gram resolvent (w - S S^T / d)^-1, its Schur complement
        monkeypatch.setattr(cavity, "GRAPH_TOL", 1e-14)
        m = tree_matrix()
        msgs = cavity_on_graph(m, w)
        assert np.abs(node_values(msgs) - dense_resolvent_diagonal(m, w)).max() < 1e-12
        support = np.abs(m.to_dense())
        gram = support @ support.T / m.spec.col_degree
        gram = np.diag(np.linalg.inv(w * np.eye(2) - gram))
        assert np.abs(msgs.resource_values - gram).max() < 1e-12
        assert abs(msgs.gram_transform - gram.mean()) < 1e-12

    def test_large_w_carries_unit_mass_and_trace(self):
        # w G(w) = 1 + beta / w + m2 / w^2 + ..., m2 the second moment of
        # the sampled Gram spectrum
        m = sample_matrix(40, 60, 2, seed=2)
        m2 = float(np.mean(np.linalg.eigvalsh(m.gram()) ** 2))
        for w in (1e3 + 1j, 1e4 + 1j):
            g = cavity_on_graph(m, w).gram_transform
            assert abs(w * g - 1.0 - 1.5 / w) < 2.0 * m2 / abs(w) ** 2

    def test_small_loopy_instance_against_dense_resolvent(self):
        # the 3x3, d=2 ensemble is a single 6-cycle; away from its spectrum
        # the tree approximation is within 1e-2 (ONES mode keeps the signed
        # and support matrices identical)
        m = sample_matrix(3, 3, 2, EntryMode.ONES, seed=1)
        w = 4.5 + 0.15j
        msgs = cavity_on_graph(m, w)
        diag = dense_resolvent_diagonal(m, w)
        assert np.abs(node_values(msgs) - diag).max() < 1e-2

    def test_orientation_classes_are_symmetric_on_biregular_graphs(self):
        # all user-side degrees equal, so synchronous updates keep each
        # directed-edge class at a single common value
        for n in (100, 1000):
            m = sample_matrix(n, int(1.5 * n), 2, seed=11)
            msgs = cavity_on_graph(m, 1.5 + 0.05j)
            resource_to_user, user_to_resource = msgs.messages
            assert np.std(user_to_resource) < 1e-10
            assert np.std(resource_to_user) < 1e-10

    def test_stalled_run_is_nan(self, monkeypatch):
        # one sweep from uniform messages converges nowhere; the run keeps its
        # last messages and reports NaN variances instead of raising
        monkeypatch.setattr(cavity, "MAX_SWEEPS", 1)
        msgs = cavity_on_graph(sample_matrix(30, 45, 2), 1.5 + 0.05j)
        assert msgs.sweeps == 1 and msgs.max_change >= cavity.GRAPH_TOL
        assert np.isfinite(msgs.messages).all()
        assert np.isnan(node_values(msgs).real).all()
        assert np.isnan(node_values(msgs).imag).all()
        assert cmath.isnan(msgs.gram_transform)

    def test_scalar_point_reads_a_0d_density_and_failure_count(self, monkeypatch):
        m = sample_matrix(30, 45, 2)
        run = cavity_on_graph(m, 1.5 + 0.05j)
        assert np.ndim(run.density) == 0
        assert run.density == -run.gram_transform.imag / math.pi > 0.0
        assert run.n_failed == 0 and type(run.n_failed) is int
        monkeypatch.setattr(cavity, "MAX_SWEEPS", 1)
        stalled = cavity_on_graph(m, 1.5 + 0.05j)
        assert np.ndim(stalled.density) == 0 and math.isnan(stalled.density)
        assert stalled.n_failed == 1 and type(stalled.n_failed) is int

    @pytest.mark.parametrize("w", [1.5 - 0.05j, 1.5 + 0.0j, complex(math.nan, 1.0),
                                   complex(1.0, math.nan), complex(math.inf, 1.0),
                                   complex(1.0, math.inf)])
    @pytest.mark.parametrize("regular", [True, False])
    def test_rejects_points_off_the_open_upper_half_plane(self, w, regular, monkeypatch):
        def no_work(*args):
            raise AssertionError("swept before the point was checked")

        monkeypatch.setattr(cavity, "_sweep", no_work)
        m = (sample_matrix(30, 45, 2) if regular
             else generate_irregular(EnsembleSpec(30, 45, 2, seed=0)))
        with pytest.raises(ValueError, match="Im w > 0"):
            cavity_on_graph(m, w)
        # one bad point stops the whole array before its good points run
        with pytest.raises(ValueError, match="Im w > 0"):
            cavity_on_graph(m, np.array([1.0 + 0.5j, w, 2.0 + 0.1j]))

    @pytest.mark.parametrize("regular", [True, False])
    def test_empty_array_of_points(self, regular):
        m = (sample_matrix(30, 45, 2) if regular
             else generate_irregular(EnsembleSpec(30, 45, 2, seed=0)))
        run = cavity_on_graph(m, np.array([], dtype=complex))
        assert run.sweeps == 0 and isinstance(run.sweeps, int)
        assert run.messages.shape == (0, 2, m.nnz)
        assert run.resource_values.shape == (0, 30) and run.user_values.shape == (0, 45)
        assert (run.point_sweeps.shape == run.max_change.shape
                == run.gram_transform.shape == (0,))

    @pytest.mark.parametrize("regular", [True, False])
    def test_array_run_counts_its_slowest_point(self, regular):
        m = (sample_matrix(30, 45, 2) if regular
             else generate_irregular(EnsembleSpec(30, 45, 2, seed=0)))
        run = cavity_on_graph(m, np.array([0.5 + 0.01j, 1.5 + 0.05j, 9.0 + 1.0j]))
        assert isinstance(run.sweeps, int)
        assert run.sweeps == run.point_sweeps.max() > run.point_sweeps.min()
        assert run.messages.shape == (3, 2, m.nnz)
        assert run.resource_values.shape == (3, 30) and run.user_values.shape == (3, 45)
        assert run.gram_transform.shape == run.max_change.shape == (3,)

    @pytest.mark.parametrize("w", [1.5 + 0.05j, np.linspace(0.5, 2.5, 7) + 0.01j])
    def test_regular_fields_hold_one_value_per_class(self, w):
        # stride 0 on the last axis: O(points) memory, not O(points x (edges + nodes))
        run = cavity_on_graph(sample_matrix(100, 150, 2), w)
        for field in (run.messages, run.resource_values, run.user_values):
            assert field.strides[-1] == 0
            assert not field.flags.writeable


def node_recursion(matrix, c, scale, damping=0.5):
    """Reference message passing that updates every directed edge per sweep.

    Node v has the diagonal entry ``c[v]``; the message along an edge is
    1 / (c_tail - (sum in - reverse) * scale), started at 1 / c_tail.
    Stops by ``cavity.GRAPH_TOL`` and ``cavity.MAX_SWEEPS`` as read at call
    time.  Returns (messages, node values, sweeps, max change); a run that
    does not converge keeps its last messages and has NaN node values.
    """
    n = matrix.spec.n_resources
    n_nodes = c.size
    n_edges = matrix.nnz
    src = np.concatenate([matrix.rows, matrix.cols + n]).astype(np.int64)
    dst = np.concatenate([matrix.cols + n, matrix.rows]).astype(np.int64)
    rev = np.concatenate([np.arange(n_edges, 2 * n_edges), np.arange(n_edges)])
    msg = 1.0 / c[src]
    for sweep in range(1, cavity.MAX_SWEEPS + 1):
        incoming = (np.bincount(dst, weights=msg.real, minlength=n_nodes)
                    + 1j * np.bincount(dst, weights=msg.imag, minlength=n_nodes))
        prop = 1.0 / (c[src] - (incoming[src] - msg[rev]) * scale)
        new = (1.0 - damping) * msg + damping * prop
        change = float(np.max(np.abs(new - msg), initial=0.0))
        msg = new
        if change < cavity.GRAPH_TOL:
            incoming = (np.bincount(dst, weights=msg.real, minlength=n_nodes)
                        + 1j * np.bincount(dst, weights=msg.imag, minlength=n_nodes))
            return msg, 1.0 / (c - incoming * scale), sweep, change
    return msg, np.full(n_nodes, complex(np.nan, np.nan)), sweep, change


def per_edge_sweep(matrix, w):
    """The reference recursion on H: w on a resource, 1 on a user, scale 1/d."""
    n, k = matrix.spec.n_resources, matrix.spec.n_users
    c = np.concatenate([np.full(n, w, dtype=complex), np.ones(k, dtype=complex)])
    return node_recursion(matrix, c, 1.0 / matrix.spec.col_degree)


def assert_matches_reference(matrix, w):
    """One run at ``w``, a point or an array, against a per-edge run at each point."""
    got = cavity_on_graph(matrix, w)
    sweeps = []
    for i in np.ndindex(np.shape(w)):
        want = per_edge_sweep(matrix, np.asarray(w)[i])
        # edge e < nnz runs resource -> user, edge nnz + e the other way
        assert np.array_equal(got.messages[i].ravel(), want[0])
        assert np.array_equal(node_values(got)[i], want[1], equal_nan=True)
        assert got.point_sweeps[i] == want[2]
        assert got.max_change[i] == want[3]
        sweeps.append(want[2])
    assert got.sweeps == max(sweeps, default=0)


def mixed_degree_matrix():
    # resource degrees 4, 3, 2, 3 and user degrees 1 to 3
    rows, cols = np.array([(0, 0), (0, 1), (0, 2), (0, 5), (1, 0), (1, 3), (1, 4),
                           (2, 1), (2, 5), (3, 2), (3, 4), (3, 5)]).T
    return SparseSignatureMatrix(spec=EnsembleSpec(4, 6, 2, EntryMode.ONES, 0),
                                 rows=rows, cols=cols, values=np.ones(rows.size))


def column_regular_matrix():
    # every user has degree 2, as the spec asks, but the resources have
    # degrees 4, 3, 3, 2 instead of 3
    rows, cols = np.array([(0, 0), (1, 0), (0, 1), (2, 1), (0, 2), (3, 2), (0, 3),
                           (1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]).T
    return SparseSignatureMatrix(spec=EnsembleSpec(4, 6, 2, EntryMode.ONES, 0),
                                 rows=rows, cols=cols, values=np.ones(rows.size))


ORACLE_W = (1.5 + 0.05j, 0.4 + 0.01j, 2.2 + 0.3j, -1.0 + 0.2j)


class TestLiftedMessagePassing:
    @pytest.mark.parametrize("n,k,d", [(30, 45, 2), (100, 300, 4), (200, 300, 2),
                                       (60, 60, 3)])
    @pytest.mark.parametrize("w", ORACLE_W)
    def test_biregular_graphs_match_per_edge_sweep(self, n, k, d, w):
        assert_matches_reference(sample_matrix(n, k, d, seed=5), w)

    @pytest.mark.parametrize("n,k", [(50, 75), (200, 300)])
    @pytest.mark.parametrize("w", ORACLE_W)
    def test_bernoulli_graphs_match_per_edge_sweep(self, n, k, w):
        spec = EnsembleSpec(n, k, 2, EntryMode.RADEMACHER, seed=5)
        assert_matches_reference(generate_irregular(spec), w)

    @pytest.mark.parametrize("w", ORACLE_W)
    def test_tree_and_mixed_degree_file_match_per_edge_sweep(self, w, monkeypatch):
        with monkeypatch.context() as tight:
            tight.setattr(cavity, "GRAPH_TOL", 1e-14)
            assert_matches_reference(tree_matrix(), w)
        assert_matches_reference(mixed_degree_matrix(), w)

    def test_stall_matches_per_edge_sweep(self, monkeypatch):
        monkeypatch.setattr(cavity, "MAX_SWEEPS", 3)
        assert_matches_reference(sample_matrix(30, 45, 2), 1.5 + 0.05j)

    def test_unit_load_stall_matches_per_edge_sweep(self, monkeypatch):
        # at beta = 1 both sides have one degree but differ in their diagonal entry
        monkeypatch.setattr(cavity, "MAX_SWEEPS", 3)
        m = sample_matrix(60, 60, 3)
        assert_matches_reference(m, 1.5 + 0.05j)
        run = cavity_on_graph(m, 1.5 + 0.05j)
        assert run.sweeps == 3 and run.max_change >= cavity.GRAPH_TOL

    @pytest.mark.parametrize("w", ORACLE_W)
    def test_column_regular_row_irregular_matrix_matches_per_edge_sweep(self, w):
        assert_matches_reference(column_regular_matrix(), w)

    @pytest.mark.parametrize("bernoulli", [False, True])
    def test_chunked_runs_match_per_edge_sweep(self, bernoulli, monkeypatch):
        # chunks of one point and of three, the last one short; the small
        # budget stalls the points inside the support but not those outside
        spec = EnsembleSpec(30, 45, 2, EntryMode.ONES, seed=5)
        m = generate_irregular(spec) if bernoulli else generate_regular(spec)
        w = np.array([-1.0, 0.3, 1.0, 1.5, 2.2, 3.0, 6.0]) + 0.05j
        monkeypatch.setattr(cavity, "MAX_SWEEPS", 60)
        n_classes = cavity_on_graph(m, w[0]).n_classes
        for points in (1, 3):
            monkeypatch.setattr(cavity, "_CHUNK", points * n_classes)
            run = cavity_on_graph(m, w)
            assert (run.point_sweeps == 60).any() and (run.point_sweeps < 60).any()
            assert_matches_reference(m, w)

    def test_matrix_without_entries_gives_isolated_node_variances(self):
        empty = np.zeros(0, dtype=np.int64)
        m = SparseSignatureMatrix(EnsembleSpec(200, 300, 2), rows=empty, cols=empty,
                                  values=np.zeros(0))
        w = 1.0 + 0.1j
        run = cavity_on_graph(m, w)
        assert run.sweeps == 1 and run.max_change == 0.0
        assert np.all(run.resource_values == 1.0 / w)
        assert np.all(run.user_values == 1.0)
        # the mean of 200 equal values may round in its last bit
        assert run.gram_transform == pytest.approx(1.0 / w, rel=1e-15)
        assert_matches_reference(m, w)

    def test_list_built_matrix_without_entries(self):
        m = SparseSignatureMatrix(EnsembleSpec(200, 300, 2), [], [], [])
        w = 1.0 + 0.1j
        run = cavity_on_graph(m, w)
        assert run.sweeps == 1 and run.messages.size == 0
        assert np.all(run.resource_values == 1.0 / w)
        assert np.all(run.user_values == 1.0)

    @pytest.mark.parametrize("n,k,d", [
        (1000, 1500, 2),   # beta = 1.5
        (100, 300, 4),     # beta = 3
        (60, 60, 3),       # beta = 1: both sides have one degree, but w against 1
    ])
    def test_class_counts_on_biregular_graphs(self, n, k, d):
        run = cavity_on_graph(sample_matrix(n, k, d, seed=2), 1.0 + 1j * GRAPH_EPSILON)
        assert run.n_classes == 2

    @pytest.mark.parametrize("matrix", [
        generate_irregular(EnsembleSpec(200, 300, 2, EntryMode.ONES, seed=1)),
        mixed_degree_matrix(),
        column_regular_matrix(),
    ], ids=["bernoulli", "mixed_degree", "column_regular"])
    def test_other_graphs_run_one_class_per_directed_edge(self, matrix):
        assert not matrix.regular
        run = cavity_on_graph(matrix, 1.0 + 1j * GRAPH_EPSILON)
        assert run.n_classes == 2 * matrix.nnz

    @pytest.mark.parametrize("matrix", [
        sample_matrix(1000, 1500, 2, seed=2),
        sample_matrix(60, 60, 3, seed=2),
    ], ids=["two_orientations", "unit_load"])
    def test_regular_graphs_never_build_edge_arrays(self, matrix, monkeypatch):
        def no_edges(matrix):
            raise AssertionError("built the per-edge arrays")

        monkeypatch.setattr(cavity, "_edges", no_edges)
        run = cavity_on_graph(matrix, np.linspace(0.5, 2.5, 4) + 1j * GRAPH_EPSILON)
        assert run.n_failed == 0
        with pytest.raises(AssertionError, match="per-edge"):
            cavity_on_graph(mixed_degree_matrix(), 1.0 + 1j * GRAPH_EPSILON)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(d=st.integers(2, 8), extra=st.integers(0, 6), t=st.integers(1, 8),
           bernoulli=st.booleans(), seed=st.integers(0, 2**32),
           points=st.lists(st.builds(complex, st.floats(-4.0, 4.0), st.floats(1e-3, 2.0)),
                           min_size=1, max_size=3))
    def test_lifted_equals_per_edge_sweep(self, d, extra, t, bernoulli, seed, points):
        # n = t d resources and k = t r users give row degree r = d + extra
        spec = EnsembleSpec(t * d, t * (d + extra), d, EntryMode.ONES, seed)
        if bernoulli:
            assume(spec.n_resources > d)
            m = generate_irregular(spec)
        else:
            try:
                m = generate_regular(spec)
            except GenerationError:
                assume(False)
        with patch.object(cavity, "MAX_SWEEPS", 2000):
            assert_matches_reference(m, points[0])
            assert_matches_reference(m, np.array(points))


class TestGraphRouteDensity:
    """The graph route's density on a real grid, read at w = lam + i eps."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(d=st.integers(2, 4), extra=st.integers(0, 4), t=st.integers(2, 15),
           bernoulli=st.booleans(), seed=st.integers(0, 2**32),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           log_eps=st.floats(-3.0, 0.5), max_sweeps=st.integers(1, 300))
    def test_one_run_equals_per_point_runs(self, d, extra, t, bernoulli, seed, u,
                                           log_eps, max_sweeps):
        # points outside the support converge in a few sweeps and points
        # inside it in hundreds, so the small budget stalls some but not all
        spec = EnsembleSpec(t * d, t * (d + extra), d, EntryMode.ONES, seed)
        if bernoulli:
            assume(spec.n_resources > d)
            m = generate_irregular(spec)
        else:
            try:
                m = generate_regular(spec)
            except GenerationError:
                assume(False)
        p = DensityParams.from_ensemble(spec)
        grid = p.lambda_minus - 1.0 + np.array(u) * (p.lambda_plus - p.lambda_minus + 2.0)
        eps = 10.0 ** log_eps
        with patch.object(cavity, "MAX_SWEEPS", max_sweeps):
            run = cavity_on_graph(m, grid + 1j * eps)
            for i, lam in enumerate(grid):
                one = cavity_on_graph(m, complex(lam, eps))
                assert np.array_equal(run.density[i], -one.gram_transform.imag / math.pi,
                                      equal_nan=True)
                assert run.point_sweeps[i] == one.sweeps
                assert run.max_change[i] == one.max_change
                assert np.array_equal(run.messages[i], one.messages)
                assert np.array_equal(node_values(run)[i], node_values(one), equal_nan=True)
        assert run.sweeps == run.point_sweeps.max()

    def test_one_run_mixes_fast_slow_and_stalled_points(self, monkeypatch):
        m = sample_matrix(100, 150, 2, seed=3)
        grid = np.array([9.0, 1.5, 0.5, 20.0, 2.5])
        free = cavity_on_graph(m, grid + 1e-2j)
        budget = int(np.median(free.point_sweeps))
        monkeypatch.setattr(cavity, "MAX_SWEEPS", budget)
        capped = cavity_on_graph(m, grid + 1e-2j)
        fast = free.point_sweeps < budget
        assert fast.any() and (~fast).any()
        assert np.array_equal(capped.density[fast], free.density[fast])
        assert np.array_equal(capped.point_sweeps, np.minimum(free.point_sweeps, budget))
        assert capped.n_failed == (free.point_sweeps > budget).sum() > 0

    def test_recovers_closed_form_on_moderate_instance(self):
        m = sample_matrix(200, 300, 2, seed=4)
        width = P_DEFAULT.lambda_plus - P_DEFAULT.lambda_minus
        grid = np.linspace(P_DEFAULT.lambda_minus + 0.05 * width,
                           P_DEFAULT.lambda_plus - 0.05 * width, 32)
        est = cavity_on_graph(m, grid + 1j * GRAPH_EPSILON)
        assert np.abs(est.density - analytic_density(grid, P_DEFAULT)).max() < 0.05
        assert est.n_failed == 0
        assert est.n_classes == 2

    def test_diagnostics_match_per_point_runs(self):
        m = sample_matrix(100, 150, 2, seed=3)
        grid = np.linspace(0.5, 2.5, 5)
        est = cavity_on_graph(m, grid + 1e-2j)
        for lam, rho, sweeps in zip(grid, est.density, est.point_sweeps):
            run = cavity_on_graph(m, complex(lam, 1e-2))
            assert rho == -run.gram_transform.imag / math.pi
            assert sweeps == run.sweeps

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("regular", [True, False])
    def test_huge_epsilon_stays_finite(self, regular):
        # w = 1 + 1e308 i is finite; the sweep divides by it and nothing else
        m = (sample_matrix(30, 45, 2) if regular
             else generate_irregular(EnsembleSpec(30, 45, 2, seed=0)))
        run = cavity_on_graph(m, np.array([1.0]) + 1j * 1e308)
        assert run.n_failed == 0 and np.isfinite(run.density).all()
        assert 0.0 <= run.density[0] < 1e-300

    def test_stalled_points_are_nan_and_the_batch_continues(self, monkeypatch):
        # one sweep from uniform messages converges nowhere; with the default
        # budget the same grid converges everywhere
        m = sample_matrix(30, 45, 2)
        grid = np.linspace(0.5, 2.5, 4)
        with monkeypatch.context() as short:
            short.setattr(cavity, "MAX_SWEEPS", 1)
            stalled = cavity_on_graph(m, grid + 1j * GRAPH_EPSILON)
        assert np.isnan(stalled.density).all()
        assert stalled.n_failed == 4
        assert (stalled.point_sweeps == 1).all()
        ok = cavity_on_graph(m, grid + 1j * GRAPH_EPSILON)
        assert ok.n_failed == 0 and np.isfinite(ok.density).all()

    def test_empty_grid(self):
        run = cavity_on_graph(sample_matrix(30, 45, 2), np.array([]) + 1j * GRAPH_EPSILON)
        assert run.density.shape == run.point_sweeps.shape == (0,)
        assert run.n_failed == 0 and run.n_classes == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_point_is_rejected(self, bad, monkeypatch):
        def no_work(*args):
            raise AssertionError("swept before the grid was checked")

        # the finite point before the bad one does not run either
        monkeypatch.setattr(cavity, "_sweep", no_work)
        with pytest.raises(ValueError, match="finite"):
            cavity_on_graph(sample_matrix(30, 45, 2),
                            np.array([1.0, bad]) + 1j * GRAPH_EPSILON)

    @pytest.mark.parametrize("eps", [0.0, -5e-3, math.nan, math.inf])
    def test_epsilon_domain(self, eps, monkeypatch):
        # a negative epsilon would map to the conjugate point and mirror the density
        with pytest.raises(ValueError, match="epsilon"):
            check_epsilon(eps)

        def no_work(*args):
            raise AssertionError("swept before the points were checked")

        monkeypatch.setattr(cavity, "_sweep", no_work)
        with pytest.raises(ValueError, match="Im w > 0"):
            cavity_on_graph(sample_matrix(30, 45, 2), np.array([1.0, 2.0]) + 1j * eps)


# points off the real axis near the support of the law at (1.5, 2)
OFF_AXIS = np.array([0.5 + 0.5j, 2.0 + 0.05j, 6.0 + 1j, 1.0 + 0.001j, 3.0 + 0.2j])


class TestRoutesMatchClosedForm:
    """Both routes against :func:`~regnoma.spectra.gram_transform` off the real axis."""

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0, 10.0])
    def test_tree_route(self, beta, d):
        p = DensityParams(beta, d)
        lam = np.linspace(p.lambda_minus - 1.0, p.lambda_plus + 1.0, 41)
        w = np.concatenate([(lam[:, None] + 1j * np.array([1e-3, 1e-2, 0.1, 1.0])).ravel(),
                            OFF_AXIS])
        # at (1, 2) the upper edge is an inverse square root (Kesten-McKay,
        # d = 2): the iteration contracts slowly there, and its absolute
        # stopping rule leaves 9.5e-10 relative at 2 + 0.001i
        bound = 1e-8 if (beta, d) == (1.0, 2.0) else 1e-10
        for got, want in zip(cavity_on_tree(p, w), gram_transform(w, p)):
            assert np.all(np.abs(got - want) < bound * np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(p=admissible, log_eps=st.floats(-6.0, 0.0))
    def test_tree_route_over_the_admissible_domain(self, p, log_eps):
        # the grid above gates 16 (beta, d); this holds the whole domain
        lam = np.linspace(p.lambda_minus - 1.0, p.lambda_plus + 1.0, 50)
        w = lam + 1j * 10.0 ** log_eps
        got, want = cavity_on_tree(p, w)[1], gram_transform(w, p)[1]
        assert not np.isnan(got).any()
        assert np.all(np.abs(got - want) < 1e-8 * np.abs(want))

    def test_graph_route_on_a_regular_draw(self):
        run = cavity_on_graph(sample_matrix(1000, 1500, 2, mode=EntryMode.ONES), OFF_AXIS)
        want = gram_transform(OFF_AXIS, P_DEFAULT)[1]
        assert run.n_failed == 0
        assert np.all(np.abs(run.gram_transform - want) < 1e-6 * np.abs(want))
