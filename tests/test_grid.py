import numpy as np
import pytest

from windfreq.grid import (
    GovernorSpec,
    GridParameters,
    ReheatSteam,
    aggregate_governors,
    governor_dc_gain_total,
    rebase_governors,
    reheat_governor,
    steady_state_deviation,
    tf_to_statespace,
)


def step_response(ss, t_end, dt):
    """Exact unit-step response D + C A^-1 (e^{At} - I) B on a uniform grid.

    e^{At} comes from the eigendecomposition of A, so the poles must be
    distinct; every realization tested here has distinct real poles.
    """
    t = np.arange(int(round(t_end / dt)) + 1) * dt
    lam, vec = np.linalg.eig(ss.a)
    weights = (ss.c @ vec)[0] * np.linalg.solve(vec, ss.b)[:, 0] / lam
    y = ss.d[0, 0] + (np.expm1(np.outer(t, lam)) @ weights).real
    return t, y


@pytest.fixture
def table_gov():
    return reheat_governor(ReheatSteam(0.85, 0.3, 8.0, 0.05), rated_mva=200.0, name="G1")


class TestReheatGovernor:
    def test_table_coefficients(self, table_gov):
        # -0.85 (1 + 2.4 s) / (0.05 (1 + 8 s))
        num = np.asarray(table_gov.num)
        den = np.asarray(table_gov.den)
        np.testing.assert_allclose(num / den[0], [-0.85 * 2.4 / 0.05 / 8.0, -0.85 / 0.05 / 8.0])
        np.testing.assert_allclose(den / den[0], [1.0, 1.0 / 8.0])

    def test_unit_first_order_lag(self):
        g = reheat_governor(ReheatSteam(1.0, 0.0, 1.0, 1.0), rated_mva=1.0)
        np.testing.assert_allclose(np.asarray(g.num) / g.den[0], [0.0, -1.0])
        np.testing.assert_allclose(np.asarray(g.den) / g.den[0], [1.0, 1.0])

    def test_dc_gain_magnitude(self, table_gov):
        assert abs(table_gov.dc_gain) == pytest.approx(17.0)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            reheat_governor(ReheatSteam(0.85, 0.3, -1.0, 0.05), rated_mva=1.0)
        with pytest.raises(ValueError):
            reheat_governor(ReheatSteam(0.85, 0.3, 8.0, 0.0), rated_mva=1.0)
        with pytest.raises(ValueError):
            reheat_governor(ReheatSteam(0.85, 1.5, 8.0, 0.05), rated_mva=1.0)


class TestGovernorSpecValidation:
    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            GovernorSpec(name="bad", rated_mva=1.0, num=(1.0, 0.0, 0.0), den=(1.0, 1.0))

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            GovernorSpec(name="bad", rated_mva=1.0, num=(1.0,), den=(1.0, -1.0))


class TestDcGainTotal:
    def test_single_on_own_base(self, table_gov):
        assert governor_dc_gain_total([table_gov], 200.0) == pytest.approx(17.0)

    def test_empty_fleet(self):
        assert governor_dc_gain_total([], 100.0) == 0.0

    def test_two_identical_double(self, table_gov):
        one = governor_dc_gain_total([table_gov], 200.0)
        two = governor_dc_gain_total([table_gov, table_gov], 200.0)
        assert two == pytest.approx(2.0 * one)


class TestSteadyState:
    def test_hand_value(self):
        grid = GridParameters(4.2, 1.0, 50.0, 200.0, 0.75)
        assert steady_state_deviation(0.1, grid, 17.0) == pytest.approx(-0.1 / 18.0)

    def test_zero_disturbance(self):
        grid = GridParameters(4.2, 1.0, 50.0, 200.0, 0.75)
        assert steady_state_deviation(0.0, grid, 17.0) == 0.0

    def test_linearity(self):
        grid = GridParameters(4.2, 1.0, 50.0, 200.0, 0.75)
        assert steady_state_deviation(0.2, grid, 17.0) == pytest.approx(
            2.0 * steady_state_deviation(0.1, grid, 17.0))

    def test_singular_plant(self):
        grid = GridParameters(4.2, 0.0, 50.0, 200.0, 0.75)
        with pytest.raises(ZeroDivisionError):
            steady_state_deviation(0.1, grid, 0.0)


class TestRealization:
    def test_first_order_lag_canonical(self):
        g = GovernorSpec(name="lag", rated_mva=1.0, num=(1.0,), den=(1.0, 1.0))
        ss = tf_to_statespace(g)
        np.testing.assert_allclose(ss.a, [[-1.0]])
        np.testing.assert_allclose(ss.b, [[1.0]])
        np.testing.assert_allclose(ss.c, [[1.0]])
        np.testing.assert_allclose(ss.d, [[0.0]])

    def test_reheat_feedthrough(self, table_gov):
        ss = tf_to_statespace(table_gov)
        assert ss.order == 1
        assert ss.d[0, 0] == pytest.approx(-0.85 * 0.3 / 0.05)  # -5.1

    def test_pure_gain(self):
        g = GovernorSpec(name="k", rated_mva=1.0, num=(3.5,), den=(1.0,))
        ss = tf_to_statespace(g)
        assert ss.order == 0
        assert ss.d[0, 0] == pytest.approx(3.5)

    def test_step_response_matches_analytic(self, table_gov):
        # -K_m F_H / R - K_m (1 - F_H)/R (1 - e^{-t/T_R}) for a unit step
        ss = tf_to_statespace(table_gov)
        t, y = step_response(ss, t_end=60.0, dt=0.001)
        analytic = -17.0 * (0.3 + 0.7 * (1.0 - np.exp(-t / 8.0)))
        assert np.max(np.abs(y - analytic)) < 1e-6

    def test_second_order_fidelity(self):
        # (s + 2) / (s^2 + 3 s + 2) = 1/(s+1): response checks the division path
        g = GovernorSpec(name="g2", rated_mva=1.0, num=(1.0, 2.0), den=(1.0, 3.0, 2.0))
        ss = tf_to_statespace(g)
        t, y = step_response(ss, t_end=20.0, dt=0.001)
        assert np.max(np.abs(y - (1.0 - np.exp(-t)))) < 1e-6


class TestAggregation:
    def test_single_identity(self, table_gov):
        ss = tf_to_statespace(table_gov)
        agg = aggregate_governors([ss])
        np.testing.assert_allclose(agg.a, ss.a)
        np.testing.assert_allclose(agg.d, ss.d)

    def test_two_single_state_block_diagonal(self, table_gov):
        ss = tf_to_statespace(table_gov)
        agg = aggregate_governors([ss, ss])
        assert agg.order == 2
        np.testing.assert_allclose(agg.a, np.diag([ss.a[0, 0], ss.a[0, 0]]))
        assert agg.d[0, 0] == pytest.approx(2.0 * ss.d[0, 0])

    def test_step_response_additivity(self, table_gov):
        lag = GovernorSpec(name="lag", rated_mva=1.0, num=(-4.0,), den=(2.0, 1.0))
        parts = [tf_to_statespace(table_gov), tf_to_statespace(lag)]
        agg = aggregate_governors(parts)
        t, y_agg = step_response(agg, t_end=40.0, dt=0.002)
        y_sum = np.zeros_like(y_agg)
        for p in parts:
            _, y = step_response(p, t_end=40.0, dt=0.002)
            y_sum += y
        assert np.max(np.abs(y_agg - y_sum)) < 1e-9

    def test_aggregate_stability(self, table_gov):
        gov2 = GovernorSpec(name="hydro", rated_mva=1.0,
                            num=(-100.0, -20.0), den=(38.0, 1.0))
        agg = aggregate_governors([tf_to_statespace(table_gov), tf_to_statespace(gov2)])
        assert np.all(np.linalg.eigvals(agg.a).real < 0)

    def test_dc_identity_matches_gain_total(self, table_gov):
        govs = [table_gov,
                GovernorSpec(name="lag", rated_mva=100.0, num=(-8.0,), den=(1.5, 1.0))]
        s_base = 200.0
        agg = aggregate_governors(rebase_governors(govs, s_base))
        # steady output for a constant unit frequency input: -C A^-1 B + D
        dc = float((-agg.c @ np.linalg.solve(agg.a, agg.b) + agg.d)[0, 0])
        assert dc == pytest.approx(-governor_dc_gain_total(govs, s_base), rel=1e-9)


class TestGridParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridParameters(-1.0, 1.0, 50.0, 200.0, 0.75)
        with pytest.raises(ValueError):
            GridParameters(4.2, 1.0, 45.0, 200.0, 0.75)
        with pytest.raises(ValueError):
            GridParameters(4.2, 1.0, 50.0, 200.0, 0.0)
