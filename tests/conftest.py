import pytest

from windfreq import collocation as coll
from windfreq import trajopt as to
from windfreq.grid import GridParameters, reheat_governor
from windfreq.presets import load_preset
from windfreq.scenario import scenario_from_dict


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def two_machine_grid():
    return GridParameters(inertia_s=4.2, damping=1.0, f_base_hz=50.0,
                          s_base_mva=200.0, load_pu=0.75)


@pytest.fixture(scope="session")
def reheat_g1():
    return reheat_governor(mech_gain=0.85, hp_fraction=0.3, reheat_time_s=8.0, droop=0.05,
                           rated_mva=200.0, name="G1")


@pytest.fixture(scope="session")
def two_machine_problem(two_machine_grid, reheat_g1):
    return to.build_problem(two_machine_grid, [reheat_g1], p_d_pu=0.075, t_f=30.0)



@pytest.fixture(scope="session")
def grid_k60():
    return coll.make_grid(60, 30.0)


@pytest.fixture(scope="session")
def two_machine_solution(two_machine_problem, grid_k60):
    return to.solve_max_nadir(two_machine_problem, grid_k60)


@pytest.fixture(scope="session")
def two_machine_scenario():
    return scenario_from_dict(load_preset("two_machine"))


@pytest.fixture(scope="session")
def multi_machine_scenario():
    return scenario_from_dict(load_preset("multi_machine"))
