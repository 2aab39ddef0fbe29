from dataclasses import replace

import numpy as np
import pytest

from windfreq.grid import (
    GovernorSpec,
    GridParameters,
    aggregate_governors,
    governor_dc_gain_total,
    group_governors,
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
    return reheat_governor(0.85, 0.3, 8.0, 0.05, rated_mva=200.0, name="G1")


class TestReheatGovernor:
    def test_table_coefficients(self, table_gov):
        # -0.85 (1 + 2.4 s) / (0.05 (1 + 8 s))
        num = np.asarray(table_gov.num)
        den = np.asarray(table_gov.den)
        np.testing.assert_allclose(num / den[0], [-0.85 * 2.4 / 0.05 / 8.0, -0.85 / 0.05 / 8.0])
        np.testing.assert_allclose(den / den[0], [1.0, 1.0 / 8.0])

    def test_unit_first_order_lag(self):
        g = reheat_governor(1.0, 0.0, 1.0, 1.0, rated_mva=1.0)
        np.testing.assert_allclose(np.asarray(g.num) / g.den[0], [0.0, -1.0])
        np.testing.assert_allclose(np.asarray(g.den) / g.den[0], [1.0, 1.0])

    def test_dc_gain_magnitude(self, table_gov):
        assert abs(table_gov.dc_gain) == pytest.approx(17.0)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            reheat_governor(0.85, 0.3, -1.0, 0.05, rated_mva=1.0)
        with pytest.raises(ValueError):
            reheat_governor(0.85, 0.3, 8.0, 0.0, rated_mva=1.0)
        with pytest.raises(ValueError):
            reheat_governor(0.85, 1.5, 8.0, 0.05, rated_mva=1.0)


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
        # a shorter reheat time: two distinct dynamics, one block each
        ss = tf_to_statespace(table_gov)
        other = tf_to_statespace(replace(table_gov, den=(4.0, 1.0)))
        agg = aggregate_governors([ss, other])
        assert agg.order == 2
        np.testing.assert_allclose(agg.a, np.diag([ss.a[0, 0], other.a[0, 0]]))
        assert agg.d[0, 0] == pytest.approx(ss.d[0, 0] + other.d[0, 0])

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


def _reheat(name, hp_fraction=0.3, reheat_time_s=8.0, droop=0.05, rated_mva=200.0):
    return reheat_governor(0.85, hp_fraction, reheat_time_s, droop, rated_mva=rated_mva,
                           name=name)


class TestGrouping:
    def test_identical_units_share_one_state(self, table_gov):
        ss = tf_to_statespace(table_gov)
        agg = aggregate_governors([ss, ss])
        assert agg.order == 1
        assert agg.a.tobytes() == ss.a.tobytes() and agg.b.tobytes() == ss.b.tobytes()
        assert agg.c[0, 0] == 2.0 * ss.c[0, 0] and agg.d[0, 0] == 2.0 * ss.d[0, 0]

    def test_numerators_differ_denominator_shared(self):
        # droop, hp_fraction and rating only move the numerator: one group,
        # whose output sums the units' own rows
        govs = [_reheat("A"), _reheat("B", droop=0.04), _reheat("C", hp_fraction=0.5),
                _reheat("D", rated_mva=120.0)]
        parts = rebase_governors(govs, 200.0)
        groups, unit_group, unit_outputs = group_governors(parts)
        assert unit_group == [0, 0, 0, 0] and len(groups) == 1
        assert len({p.c.tobytes() for p in parts}) == 4
        for p, (c_u, d_u) in zip(parts, unit_outputs):
            assert c_u.tobytes() == p.c[0].tobytes() and d_u == p.d[0, 0]
        assert groups[0].c[0, 0] == ((parts[0].c[0, 0] + parts[1].c[0, 0])
                                     + parts[2].c[0, 0]) + parts[3].c[0, 0]
        assert groups[0].d[0, 0] == ((parts[0].d[0, 0] + parts[1].d[0, 0])
                                     + parts[2].d[0, 0]) + parts[3].d[0, 0]

    def test_reheat_times_differ(self):
        govs = [_reheat("A"), _reheat("B", reheat_time_s=6.0), _reheat("C"),
                _reheat("D", reheat_time_s=6.0), _reheat("E", reheat_time_s=10.0)]
        groups, unit_group, _ = group_governors(rebase_governors(govs, 200.0))
        assert unit_group == [0, 1, 0, 1, 2]
        assert [g.a[0, 0] for g in groups] == [-1.0 / 8.0, -1.0 / 6.0, -1.0 / 10.0]

    def test_scaled_denominator_groups(self):
        # the realization divides by the leading coefficient, so 2 s + 1 and
        # 4 s + 2 are one dynamics
        one = GovernorSpec(name="a", rated_mva=1.0, num=(-1.0,), den=(2.0, 1.0))
        two = GovernorSpec(name="b", rated_mva=1.0, num=(-3.0,), den=(4.0, 2.0))
        groups, unit_group, _ = group_governors(rebase_governors([one, two], 1.0))
        assert unit_group == [0, 0] and len(groups) == 1

    def test_multi_machine_has_three_dynamics(self, multi_machine_scenario):
        sc = multi_machine_scenario
        parts = rebase_governors(sc.governors, sc.grid.s_base_mva)
        groups, unit_group, _ = group_governors(parts)
        assert len(parts) == 10 and len(groups) == 3
        assert sorted(unit_group.count(g) for g in range(3)) == [1, 2, 7]
        assert aggregate_governors(parts).order == 3

    def test_lumped_response_equals_unit_sum(self):
        govs = [_reheat("A"), _reheat("B", droop=0.04), _reheat("C", reheat_time_s=5.0),
                GovernorSpec(name="g2", rated_mva=50.0, num=(-3.0, -6.0), den=(2.0, 3.0, 1.0)),
                GovernorSpec(name="g3", rated_mva=80.0, num=(-1.0, -6.0), den=(1.0, 1.5, 0.5))]
        parts = rebase_governors(govs, 200.0)
        agg = aggregate_governors(parts)
        assert agg.order == 1 + 1 + 2
        t, y_agg = step_response(agg, t_end=40.0, dt=0.01)
        y_sum = sum(step_response(p, t_end=40.0, dt=0.01)[1] for p in parts)
        assert np.max(np.abs(y_agg - y_sum)) < 1e-12

    def test_empty_and_pure_gains(self):
        assert group_governors([]) == ([], [], [])
        k1 = GovernorSpec(name="k1", rated_mva=1.0, num=(-2.0,), den=(1.0,))
        k2 = GovernorSpec(name="k2", rated_mva=1.0, num=(-3.0,), den=(1.0,))
        agg = aggregate_governors(rebase_governors([k1, k2], 1.0))
        assert agg.order == 0 and agg.d[0, 0] == -5.0


class TestGridParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridParameters(-1.0, 1.0, 50.0, 200.0, 0.75)
        with pytest.raises(ValueError):
            GridParameters(4.2, 1.0, 45.0, 200.0, 0.75)
        with pytest.raises(ValueError):
            GridParameters(4.2, 1.0, 50.0, 200.0, 0.0)
