import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pipeline_outputs", Path(__file__).resolve().parents[1] / "tools" / "pipeline_outputs.py")
pipeline_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pipeline_outputs)


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def _run_diff(tmp_path, old: dict, new: dict, capsys):
    rc = pipeline_outputs.main(["--diff", str(_tree(tmp_path / "old", old)),
                                str(_tree(tmp_path / "new", new))])
    return rc, capsys.readouterr().out.splitlines()


def test_identical_trees_are_silent(tmp_path, capsys):
    files = {"a-solve/trajectory.csv": "t_s,df_pu\n0,0\n0.01,-1e-3\n",
             "a-solve/solve_metrics.json": json.dumps({"nadir_pu": -1e-3})}
    assert _run_diff(tmp_path, files, files, capsys) == (0, [])


def test_numeric_differences_sized_against_their_scale(tmp_path, capsys):
    old = {"p/trace.csv": "t_s,df_pu,dpe_pu\n0,0,2\n1,-4,1\n",
           "p/metrics.json": json.dumps({"nadir_pu": -4.0, "events": [{"t_e_s": 20.0}],
                                         "method": "collocation"})}
    new = {"p/trace.csv": "t_s,df_pu,dpe_pu\n0,0,2\n1,-4.000004,1.00000002\n",
           "p/metrics.json": json.dumps({"nadir_pu": -4.0, "events": [{"t_e_s": 20.00002}],
                                         "method": "collocation"})}
    rc, lines = _run_diff(tmp_path, old, new, capsys)
    assert rc == 0
    # df_pu: 4e-6 against a column maximum of 4.000004, dpe_pu: 2e-8 against
    # 2; the JSON leaf: 2e-5 against 20.00002
    assert lines == ["p/metrics.json: $.events[0].t_e_s 1.00e-06",
                     "p/trace.csv: df_pu 1.00e-06", "p/trace.csv: dpe_pu 1.00e-08"]


@pytest.mark.parametrize("old, new, expected", [
    ({"x.json": '{"method": "collocation"}'}, {"x.json": '{"method": "euler"}'},
     'x.json: $.method: "collocation" != "euler"'),
    ({"x.json": '{"n": [1, 2]}'}, {"x.json": '{"n": [1]}'}, "x.json: $.n: [1, 2] != [1]"),
    ({"x.csv": "a,b\n1,2\n"}, {"x.csv": "a,c\n1,2\n"}, "x.csv: header 'a,b' != 'a,c'"),
    ({"x.csv": "a\n1\n"}, {"x.csv": "a\n1\n", "y.csv": "a\n1\n"}, "y.csv: only in"),
])
def test_structural_differences_printed_verbatim(tmp_path, capsys, old, new, expected):
    rc, lines = _run_diff(tmp_path, old, new, capsys)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(expected)


def test_unshared_keys_listed_and_shared_leaves_sized(tmp_path, capsys):
    # differing key sets once printed both whole documents on one line
    old = {"m.json": json.dumps({"nadir_pu": -4.0, "zero_disturbance": False,
                                 "diagnostics": {"iterations": 40, "phase1": 3}})}
    new = {"m.json": json.dumps({"nadir_pu": -4.000004, "diagnostics": {"iterations": 40},
                                 "provenance": {"preset": "two_machine"}})}
    rc, lines = _run_diff(tmp_path, old, new, capsys)
    assert rc == 1
    assert lines == ["m.json: $.nadir_pu 1.00e-06",
                     "m.json: $.zero_disturbance: only in OLD",
                     "m.json: $.diagnostics.phase1: only in OLD",
                     "m.json: $.provenance: only in NEW"]
