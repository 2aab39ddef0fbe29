import math

import numpy as np
import pytest

from windfreq import collocation as coll
from windfreq import trajopt as to

from reference import solve_lti_collocation


def time_map(tau, t_f):
    """Physical time t in [0, t_f] of tau in [-1, 1]."""
    return (t_f * np.asarray(tau) + t_f) / 2.0


def test_single_node_rule():
    nodes, weights = coll.legendre_gauss(1)
    assert nodes == pytest.approx([0.0])
    assert weights == pytest.approx([2.0])


def test_two_node_rule():
    nodes, weights = coll.legendre_gauss(2)
    assert nodes == pytest.approx([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], abs=1e-14)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_quadrature_of_tau8():
    nodes, weights = coll.legendre_gauss(5)
    assert abs(np.dot(weights, nodes ** 8) - 2.0 / 9.0) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 5, 20, 60, 100])
def test_rule_invariants(order):
    nodes, weights = coll.legendre_gauss(order)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert nodes == pytest.approx(-nodes[::-1], abs=1e-14)
    assert abs(weights.sum() - 2.0) < 1e-13
    # exact for polynomials up to degree 2K-1
    for deg in range(2 * order):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(np.dot(weights, nodes ** deg) - exact) < 1e-12


def test_order_validation():
    with pytest.raises(ValueError):
        coll.legendre_gauss(0)
    with pytest.raises(ValueError):
        coll.make_grid(0)


def test_time_map_endpoints_and_roundtrip():
    assert coll.inverse_time_map(0.0, 30.0) == pytest.approx(-1.0)
    assert coll.inverse_time_map(15.0, 30.0) == pytest.approx(0.0)
    assert coll.inverse_time_map(30.0, 30.0) == pytest.approx(1.0)
    taus = np.linspace(-1, 1, 11)
    back = coll.inverse_time_map(time_map(taus, 9.0), 9.0)
    assert np.max(np.abs(back - taus)) < 1e-15
    with pytest.raises(ValueError, match="horizon must be positive"):
        coll.make_grid(5, 0.0)


class TestDifferentiationMatrix:
    def test_constant_annihilated(self):
        g = coll.make_grid(20)
        assert np.max(np.abs(g.diff_matrix @ np.full(21, 3.7))) < 1e-13 * 3.7

    def test_linear(self):
        g = coll.make_grid(20)
        deriv = g.diff_matrix @ g.basis
        assert np.max(np.abs(deriv - 1.0)) < 1e-12

    def test_degree_k_monomial(self):
        g = coll.make_grid(20)
        deriv = g.diff_matrix @ g.basis ** 20
        assert np.max(np.abs(deriv - 20 * g.nodes ** 19)) < 1e-10

    def test_row_sums_vanish(self):
        g = coll.make_grid(60)
        assert np.max(np.abs(g.diff_matrix.sum(axis=1))) < 1e-12


class TestTerminalState:
    def test_zero_dynamics(self):
        g = coll.make_grid(12)
        x0 = np.array([1.5, -2.0])
        f = np.zeros((12, 2))
        assert coll.terminal_state(x0, f, g) == pytest.approx(x0)

    def test_constant_dynamics(self):
        g = coll.make_grid(12, 7.0)
        f = np.full((12, 1), 0.4)
        out = coll.terminal_state([1.0], f, g)
        assert out[0] == pytest.approx(1.0 + 0.4 * 7.0, abs=1e-12)

    def test_exponential_decay(self):
        g = coll.make_grid(20, 5.0)
        _, terminal = solve_lti_collocation(np.array([[-1.0]]), [1.0], g)
        assert abs(terminal[0] - np.exp(-5.0)) < 1e-8


def _full_scan_bary_matrix(points, bary, taus):
    """``_bary_matrix`` as it found its node hits before: by testing every
    cell of the (len(taus), len(points)) matrix."""
    w = taus[:, None] - points
    hit = np.abs(w) < 1e-14
    rows = np.nonzero(hit.any(axis=1))[0]
    if rows.size:
        w[hit] = 1.0
    np.divide(bary, w, out=w)
    if rows.size:
        w[rows] = 0.0
        w[rows, np.argmax(hit[rows], axis=1)] = 1.0
    w /= np.sum(w, axis=1, keepdims=True)
    return w


class TestInterpolation:
    def test_node_values_reproduced(self):
        g = coll.make_grid(15, 5.0)
        vals = np.sin(g.basis)
        for tau, v in zip(g.basis, vals):
            t = time_map(tau, 5.0)
            assert coll.interpolate(g, vals, t, "state") == pytest.approx(v, abs=1e-14)

    def test_polynomial_exactness(self):
        g = coll.make_grid(12, 4.0)
        rng = np.random.default_rng(7)
        coefs = rng.normal(size=12)  # degree 11 <= K
        vals = np.polyval(coefs, g.basis)
        tt = np.linspace(0.0, 4.0, 200)
        taus = coll.inverse_time_map(tt, 4.0)
        got = coll.interpolate(g, vals, tt, "state")
        assert np.max(np.abs(got - np.polyval(coefs, taus))) < 1e-11

    def test_exponential_accuracy(self):
        g = coll.make_grid(20, 5.0)
        states, _ = solve_lti_collocation(np.array([[-1.0]]), [1.0], g)
        vals = np.concatenate([[1.0], states[:, 0]])
        tt = np.linspace(0.0, 5.0, 1000)
        err = np.abs(coll.interpolate(g, vals, tt, "state") - np.exp(-tt))
        assert err.max() < 1e-9

    def test_out_of_horizon_rejected(self):
        g = coll.make_grid(5, 5.0)
        with pytest.raises(ValueError):
            coll.interpolate(g, np.zeros(6), 5.5, "state")

    def test_tau_outside_horizon_rejected(self):
        # the coefficients extrapolate beyond the basis: at tau = 5 on a
        # 10-point grid their weights reach 2.6e9
        g = coll.make_grid(10, 30.0)
        for kind in ("state", "control"):
            ends = coll.lagrange_coefficients(g, [-1.0, 1.0], kind)
            assert np.allclose(ends.sum(axis=1), 1.0)
            for bad in (5.0, -5.0, math.nextafter(1.0, 2.0), [0.0, 5.0]):
                with pytest.raises(ValueError, match="outside horizon"):
                    coll.lagrange_coefficients(g, bad, kind)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        g = coll.make_grid(10, 30.0)
        with pytest.raises(ValueError, match="outside horizon"):
            coll.interpolate(g, np.zeros(11), bad)
        with pytest.raises(ValueError, match="outside horizon"):
            coll.interpolate(g, np.zeros(11), [1.0, bad])
        with pytest.raises(ValueError, match="outside horizon"):
            coll.lagrange_coefficients(g, bad)
        with pytest.raises(ValueError, match="outside horizon"):
            coll.lagrange_coefficients(g, [0.0, bad], "control")

    def test_exact_basis_hits_in_a_vector(self):
        # basis points mixed with off-basis times: hits reproduce the data
        # bitwise, the rest follow the polynomial
        g = coll.make_grid(9, 3.0)
        vals = np.cos(3.0 * g.basis)
        hits = time_map(g.basis, 3.0)
        tt = np.sort(np.concatenate([hits, [0.1, 1.7, 3.0]]))
        got = coll.interpolate(g, vals, tt, "state")
        for tau, v in zip(g.basis, vals):
            j = int(np.argmin(np.abs(tt - time_map(tau, 3.0))))
            assert got[j] == v
        assert np.all(np.isfinite(got))
        ctrl = coll.interpolate(g, vals[1:], time_map(g.nodes, 3.0), "control")
        assert np.array_equal(ctrl, vals[1:])

    def test_scalar_time_gives_scalar(self):
        g = coll.make_grid(8, 2.0)
        vals = np.arange(9.0)
        out = coll.interpolate(g, vals, 0.7, "state")
        assert np.ndim(out) == 0
        assert out == pytest.approx(coll.interpolate(g, vals, [0.7], "state")[0], abs=0.0)
        two_d = coll.interpolate(g, np.column_stack([vals, -vals]), 0.7, "state")
        assert two_d.shape == (2,)

    def test_two_dimensional_values(self):
        # columns interpolate independently, as if passed one at a time
        g = coll.make_grid(11, 6.0)
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(12, 3))
        tt = np.linspace(0.0, 6.0, 37)
        got = coll.interpolate(g, vals, tt, "state")
        assert got.shape == (37, 3)
        for col in range(3):
            one = coll.interpolate(g, vals[:, col], tt, "state")
            assert np.max(np.abs(got[:, col] - one)) <= 1e-14 * np.max(np.abs(one))
        ctrl = coll.interpolate(g, vals[1:], tt, "control")
        assert ctrl.shape == (37, 3)

    def test_matches_pointwise_barycentric_formula(self):
        # the matrix form against the textbook loop it replaced
        g = coll.make_grid(25, 30.0)
        rng = np.random.default_rng(2)
        vals = rng.normal(size=26)
        tt = np.linspace(0.0, 30.0, 301)
        ref = []
        for tau in coll.inverse_time_map(tt, 30.0):
            diff = tau - g.basis
            exact = np.nonzero(np.abs(diff) < 1e-14)[0]
            if exact.size:
                ref.append(vals[exact[0]])
            else:
                w = g.basis_bary / diff
                ref.append(w @ vals / np.sum(w))
        got = coll.interpolate(g, vals, tt, "state")
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(vals))

    @pytest.mark.parametrize("order", [10, 40, 60, 200])
    def test_node_search_matches_full_scan_bitwise(self, order):
        g = coll.make_grid(order, 30.0)
        rng = np.random.default_rng(order)
        ends = np.concatenate([[-1.0, 1.0], -1.0 - rng.uniform(0.0, 1e-12, 20),
                               1.0 + rng.uniform(0.0, 1e-12, 20)])
        for points, bary in ((g.basis, g.basis_bary), (g.nodes, g.node_bary)):
            near = [points + off for off in (5e-15, -5e-15)]
            off = [points + off for off in (2e-14, -2e-14)]
            taus = np.concatenate([points, *near, *off, ends,
                                   rng.uniform(-1.0, 1.0, 1000), to._path_taus(g)])
            ref = _full_scan_bary_matrix(points, bary, taus)
            assert np.array_equal(coll._bary_matrix(points, bary, taus), ref)
            # the exact and the near points are hits, the off ones are not
            units = np.all((ref == 0.0) | (ref == 1.0), axis=1)
            assert units[:3 * points.size].all()
            assert not units[3 * points.size:5 * points.size].any()

    def test_unknown_kind_rejected(self):
        g = coll.make_grid(5, 5.0)
        with pytest.raises(ValueError):
            coll.interpolate(g, np.zeros(6), 1.0, "bogus")
        with pytest.raises(ValueError):
            coll.lagrange_coefficients(g, 0.0, "bogus")

    def test_lagrange_coefficients_match_interpolation(self):
        g = coll.make_grid(10, 1.0)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=11)
        for tau in (-0.613, 0.0, 0.997, 1.0):
            c = coll.lagrange_coefficients(g, tau, "state")
            t = time_map(tau, 1.0)
            assert c @ vals == pytest.approx(float(coll.interpolate(g, vals, t, "state")),
                                             abs=1e-12)
        taus = np.array([-0.613, 0.0, 0.997, 1.0, g.basis[3]])
        rows = coll.lagrange_coefficients(g, taus, "state")
        assert rows.shape == (5, 11)
        for tau, row in zip(taus, rows):
            assert np.array_equal(row, coll.lagrange_coefficients(g, tau, "state"))
        assert np.array_equal(rows[-1], np.eye(11)[3])


def test_collocation_matrix_and_per_node_forcing():
    # x' = -x + g(t) with g sampled per node; constant forcing is the special case
    g = coll.make_grid(16, 4.0)
    a = np.array([[-1.0]])
    block = coll.collocation_matrix(a, g)
    assert block.shape == (16, 16)
    const, term_c = solve_lti_collocation(a, [0.5], g, [2.0])
    per_node, term_p = solve_lti_collocation(a, [0.5], g, np.full((16, 1), 2.0))
    assert np.array_equal(const, per_node)
    assert np.array_equal(term_c, term_p)
    # x(t) = 2 + (x0 - 2) e^{-t}
    assert abs(term_c[0] - (2.0 - 1.5 * np.exp(-4.0))) < 1e-9
    # time-varying forcing g = t: x(t) = t - 1 + (x0 + 1) e^{-t}
    forcing = time_map(g.nodes, g.t_f)[:, None]
    _, term = solve_lti_collocation(a, [0.5], g, forcing)
    assert abs(term[0] - (3.0 + 1.5 * np.exp(-4.0))) < 1e-9


def test_spectral_convergence():
    errs = []
    for order in (5, 10, 20):
        g = coll.make_grid(order, 5.0)
        _, terminal = solve_lti_collocation(np.array([[-1.0]]), [1.0], g)
        errs.append(abs(terminal[0] - np.exp(-5.0)))
    # at least one decade per refinement until the rounding floor
    assert errs[1] < errs[0] / 10.0
    assert errs[2] < errs[1] / 10.0 or errs[2] < 1e-13


# ---------------------------------------------------------------------------
# the loop constructions that make_grid and the interpolation replaced
# ---------------------------------------------------------------------------

def loop_barycentric_weights(points):
    n = len(points)
    lam = np.ones(n)
    for i in range(n):
        diff = points[i] - np.delete(points, i)
        lam[i] = np.prod(np.sign(diff)) * np.exp(-np.sum(np.log(np.abs(diff))))
    return lam / np.max(np.abs(lam))


def loop_diff_matrix(basis, bary, order):
    d = np.zeros((order, order + 1))
    for row in range(order):
        k = row + 1
        for i in range(order + 1):
            if i != k:
                d[row, i] = (bary[i] / bary[k]) / (basis[k] - basis[i])
        d[row, k] = -np.sum(d[row, :])
    return d


def where_bary_matrix(points, bary, taus):
    diff = taus[:, None] - points[None, :]
    hit = np.abs(diff) < 1e-14
    w = bary / np.where(hit, 1.0, diff)
    rows = np.nonzero(hit.any(axis=1))[0]
    if rows.size:
        w[rows] = 0.0
        w[rows, np.argmax(hit[rows], axis=1)] = 1.0
    return w / np.sum(w, axis=1, keepdims=True)


def test_grid_matches_loop_construction_bitwise():
    for order in range(1, 201):
        g = coll.make_grid(order, 30.0)
        basis_bary = loop_barycentric_weights(g.basis)
        assert g.basis_bary.tobytes() == basis_bary.tobytes(), order
        assert g.node_bary.tobytes() == loop_barycentric_weights(g.nodes).tobytes(), order
        assert g.diff_matrix.tobytes() == \
            loop_diff_matrix(g.basis, basis_bary, order).tobytes(), order


@pytest.mark.parametrize("order", [1, 7, 40, 100])
def test_bary_matrix_matches_where_construction_bitwise(order):
    g = coll.make_grid(order, 30.0)
    # a uniform trace grid, every basis point (exact hits) and points within
    # the hit tolerance of a node
    taus = np.concatenate([np.linspace(-1.0, 1.0, 301), g.basis, g.nodes[::3] + 5e-15])
    for points, bary in ((g.basis, g.basis_bary), (g.nodes, g.node_bary)):
        assert coll._bary_matrix(points, bary, taus).tobytes() == \
            where_bary_matrix(points, bary, taus).tobytes()
