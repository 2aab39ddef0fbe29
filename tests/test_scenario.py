import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from windfreq import trajopt
from windfreq.cli import main
from windfreq.grid import governor_dc_gain_total
from windfreq.presets import PRESET_NAMES, load_preset, preset_checksum
from windfreq.scenario import MAX_STEPS, ScenarioError, gas_governor, hydro_governor, \
    scenario_from_dict, scenario_to_dict


def _set_at(doc: dict, json_path: str, value) -> None:
    """Set the value at a JSON path such as ``$.turbines[0].count``."""
    *parents, leaf = [int(k) if k.isdigit() else k
                      for k in re.findall(r"\w+", json_path[1:])]
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


class TestPresets:
    def test_catalog(self):
        assert PRESET_NAMES == ("multi_machine", "two_machine")

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="multi_machine, two_machine"):
            load_preset("nope")

    def test_two_machine_values(self):
        doc = load_preset("two_machine")
        sc = scenario_from_dict(doc)
        assert governor_dc_gain_total(sc.governors, sc.grid.s_base_mva) == pytest.approx(17.0)
        assert sc.grid.load_pu * sc.grid.s_base_mva == pytest.approx(150.0)
        ev = sc.events[0]
        assert ev.magnitude_pu * sc.grid.s_base_mva == pytest.approx(15.0)
        assert ev.magnitude_pu == pytest.approx(0.1 * sc.grid.load_pu)

    def test_presets_validate(self):
        for name in PRESET_NAMES:
            sc = scenario_from_dict(load_preset(name))
            assert sc.validate() == []

    def test_checksum_stable(self):
        assert preset_checksum("two_machine") == preset_checksum("two_machine")
        assert preset_checksum("two_machine") != preset_checksum("multi_machine")

    def test_mutating_a_copy_is_safe(self):
        doc = load_preset("two_machine")
        doc["grid"]["inertia_s"] = 99.0
        assert load_preset("two_machine")["grid"]["inertia_s"] == 4.2


class TestSchema:
    def test_round_trip(self):
        for name in PRESET_NAMES:
            sc = scenario_from_dict(load_preset(name))
            doc = scenario_to_dict(sc)
            again = scenario_from_dict(json.loads(json.dumps(doc)))
            assert again == sc

    def test_round_trip_every_optional_key(self):
        doc = load_preset("two_machine")
        doc["turbines"][0].update(pitch_deg=2.0, spec={
            "rated_mva": 5.556, "rated_mw": 5.0, "p_max_mw": 5.0, "p_min_mw": 0.5,
            "rated_speed_rpm": 12.1, "min_speed_pu": 0.7, "inertia_kgm2": 16801544.0,
            "rotor_radius_m": 45.0, "air_density": 1.2})
        doc["turbines"].append({"name": "WF2", "count": 10, "wind_speed_ms": 10.0,
                                "controller": "classic_vic",
                                "spec": {"preset": "dfig5mw"}})
        doc["events"] = [{"time_s": 1.0, "kind": "generation_trip", "unit": "G1",
                          "fraction": 0.5, "magnitude_pu": 0.02}]
        doc["solver"] = {"nodes": 40, "t_f_s": 20.0, "hypothetical_p_d_pu": 0.05}
        doc["sim"] = {"duration_s": 40.0, "step_s": 0.005}
        doc["controllers"] = {"alpha": 1.25, "allocation": [1.0, 0.0],
                              "exit_strategy": False,
                              "vic": {"k_f": 15.0, "k_in": 8.0, "filter_s": 0.2}}
        sc = scenario_from_dict(doc)
        assert (sc.alpha, sc.allocation, sc.exit_enabled) == (1.25, (1.0, 0.0), False)
        assert sc.turbines[0].pitch_deg == 2.0 and sc.turbines[0].spec.air_density == 1.2
        assert (sc.events[0].unit, sc.events[0].fraction) == ("G1", 0.5)
        assert sc.vic.filter_s == 0.2
        again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
        assert again == sc

    def test_null_optional_key_takes_default(self):
        doc = load_preset("two_machine")
        doc["solver"]["nodes"] = None
        doc["controllers"]["exit_strategy"] = None
        sc = scenario_from_dict(doc)
        assert sc.solver.nodes == 60 and sc.exit_enabled is True

    def test_readme_example_parses(self):
        # the schema example in the README, comments and trailing commas stripped
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"## Scenario schema.*?```jsonc\n(.*?)```", readme, re.S).group(1)
        text = re.sub(r",(\s*[}\]])", r"\1", re.sub(r"//[^\n]*", "", example))
        sc = scenario_from_dict(json.loads(text))
        assert sc.name == "two_machine" and sc.turbines[0].spec.rotor_radius_m == 45.0

    def test_unknown_key_rejected_with_location(self):
        doc = load_preset("two_machine")
        doc["grid"]["mystery"] = 1.0
        with pytest.raises(ScenarioError, match=r"\$\.grid\.mystery: unknown key"):
            scenario_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = load_preset("two_machine")
        doc["turbines"][0]["spec"]["blade_count"] = 3
        with pytest.raises(ScenarioError, match=r"\$\.turbines\[0\]\.spec"):
            scenario_from_dict(doc)

    def test_missing_required_key(self):
        doc = load_preset("two_machine")
        del doc["grid"]["inertia_s"]
        with pytest.raises(ScenarioError, match=r"\$\.grid\.inertia_s: missing"):
            scenario_from_dict(doc)

    def test_explicit_spec_names_missing_key(self):
        # a spec without a preset needs every constant that has no default
        doc = load_preset("two_machine")
        doc["turbines"][0]["spec"] = {"rated_mva": 5.556, "rotor_radius_m": 45.0}
        with pytest.raises(ScenarioError,
                           match=r"\$\.turbines\[0\]\.spec\.inertia_kgm2: missing required key"):
            scenario_from_dict(doc)

    def test_multiple_errors_reported_together(self):
        doc = load_preset("two_machine")
        doc["governors"][0]["params"]["bogus"] = 1
        doc["events"][0]["oops"] = 2
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        msg = str(err.value)
        assert "bogus" in msg and "oops" in msg

    def test_unknown_governor_kind(self):
        doc = load_preset("two_machine")
        doc["governors"][0]["kind"] = "steam_magic"
        with pytest.raises(ScenarioError, match="steam_magic"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [0.0, -0.05])
    def test_nonpositive_hypothetical_deficit_rejected(self, value):
        # alpha is a nadir per unit deficit; a zero deficit leaves it undefined
        doc = load_preset("two_machine")
        doc["solver"]["hypothetical_p_d_pu"] = value
        with pytest.raises(ScenarioError, match=r"\$\.solver\.hypothetical_p_d_pu: must be > 0"):
            scenario_from_dict(doc)

    def test_non_finite_numbers_named_together(self):
        doc = load_preset("multi_machine")
        doc["grid"]["load_mw"] = float("nan")
        doc["governors"][1]["params"]["droop"] = float("inf")
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == ("$.grid.load_mw: must be a finite number; "
                                  "$.governors[1].params.droop: must be a finite number")

    def test_integer_beyond_float_range_named(self):
        # JSON integers are unbounded; this one overflowed float() uncaught
        doc = load_preset("two_machine")
        doc["grid"]["inertia_s"] = 10 ** 400
        with pytest.raises(ScenarioError, match=r"\$\.grid\.inertia_s: must be a finite number"):
            scenario_from_dict(doc)

    def test_nan_step_named_by_validate(self):
        # a NaN that reaches the runtime objects from the library, not a file
        sc = scenario_from_dict(load_preset("two_machine"))
        bad = replace(sc, sim=replace(sc.sim, step_s=float("nan")))
        assert "$.sim.step_s: must be in (0, 0.02], got nan" in bad.validate()

    def test_every_validate_message_leads_with_its_path(self):
        sc = scenario_from_dict(load_preset("two_machine"))
        surge, = sc.events
        bad = replace(
            sc,
            sim=replace(sc.sim, step_s=0.5, duration_s=20.0),
            solver=replace(sc.solver, t_f=0.0, nodes=5, hypothetical_p_d_pu=0.0),
            events=(replace(surge, time_s=30.0, magnitude_pu=0.0),
                    replace(surge, time_s=0.3, kind="eclipse"),
                    replace(surge, kind="generation_trip", unit="nope", fraction=2.0)),
            turbines=tuple(replace(t, controller="magic", wind_speed_ms=0.5, pitch_deg=-1.0)
                           for t in sc.turbines),
            alpha=0.5,
            allocation=(0.5, 0.5),
        )
        short = replace(sc, sim=replace(sc.sim, duration_s=10.0))
        problems = bad.validate() + short.validate()
        assert len(problems) == 17
        assert [p for p in problems if not p.startswith("$.")] == []

    def test_absent_hypothetical_deficit_accepted(self):
        doc = load_preset("two_machine")
        del doc["solver"]["hypothetical_p_d_pu"]
        assert scenario_from_dict(doc).solver.hypothetical_p_d_pu is None

    def test_surrogate_governor_gains(self):
        hydro = hydro_governor(0.05, 0.38, 5.0, rated_mva=800.0, name="G3")
        assert hydro.dc_gain == pytest.approx(-20.0)
        gas = gas_governor(0.05, 1.0, rated_mva=700.0, name="G4")
        assert gas.dc_gain == pytest.approx(-20.0)
        # transient droop: the fast gain is the temporary-droop one
        fast = hydro.num[0] / hydro.den[0]
        assert fast == pytest.approx(-1.0 / 0.38, rel=1e-12)


class TestCli:
    def test_dump_preset(self, tmp_path, capsys):
        rc = main(["--dump-preset", "two_machine", "--out", str(tmp_path)])
        assert rc == 0
        written = json.loads((tmp_path / "two_machine.json").read_text())
        assert written["grid"]["s_base_mva"] == 200.0

    def test_dump_preset_to_stdout(self, tmp_path, monkeypatch, capsys):
        # without --out the document goes to stdout and nothing is written
        monkeypatch.chdir(tmp_path)
        assert main(["--dump-preset", "two_machine"]) == 0
        assert json.loads(capsys.readouterr().out) == load_preset("two_machine")
        assert list(tmp_path.iterdir()) == []

    def test_solve_runs_one_lp(self, tmp_path, monkeypatch, capsys):
        # the convergence figure is the error against the closed-form
        # step-and-hold optimum, so no second LP runs at any order
        calls = []
        real = trajopt.solve_lp

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return real(*args, **kwargs)

        monkeypatch.setattr(trajopt, "solve_lp", counting)
        for nodes in (10, 60):
            calls.clear()
            out = tmp_path / str(nodes)
            assert main(["solve", "--preset", "two_machine", "--nodes", str(nodes),
                         "--out", str(out)]) == 0
            assert calls == [nodes + 1]
            doc = json.loads((out / "solve_metrics.json").read_text())
            conv = doc["convergence"]
            assert sorted(conv) == ["exact_alpha", "exact_nadir_pu", "nodes",
                                    "step_hold_margin", "transcription_error_rel"]
            assert conv["nodes"] == nodes
            assert conv["transcription_error_rel"] == pytest.approx(
                abs(doc["nadir_pu"] - conv["exact_nadir_pu"]) / abs(conv["exact_nadir_pu"]),
                rel=1e-12)
            assert f"(transcription error {conv['transcription_error_rel']:.2e})" \
                in capsys.readouterr().out

    @pytest.mark.parametrize("argv, written", [
        (["--out", "top", "synthesize"], "top"),
        (["--out", "top", "synthesize", "--out", "sub"], "sub"),
        (["synthesize"], "out"),
    ], ids=["top", "sub_wins", "default"])
    def test_out_default_and_overrides(self, tmp_path, monkeypatch, argv, written):
        # a top-level --out reaches the subcommand, whose own --out wins
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--preset", "two_machine", "--nodes", "10"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [written]
        assert (tmp_path / written / "controller.json").is_file()

    def test_solve_on_file_scenario(self, tmp_path):
        doc = load_preset("two_machine")
        doc["solver"]["nodes"] = 30
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        metrics = json.loads((tmp_path / "out" / "solve_metrics.json").read_text())
        assert metrics["alpha"] == pytest.approx(1.19, abs=0.01)
        trace = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert trace[0] == "t_s,df_pu,dpe_pu,denergy_pu_s,dpm_pu"
        assert len(trace) == 3002

    def test_validation_exit_code(self, tmp_path, capsys):
        doc = load_preset("two_machine")
        doc["grid"]["mystery"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err

    def test_zero_hypothetical_deficit_exit_code(self, tmp_path, capsys):
        doc = load_preset("two_machine")
        doc["solver"]["hypothetical_p_d_pu"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        rc = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "$.solver.hypothetical_p_d_pu" in capsys.readouterr().err

    def test_multi_machine_solves_at_k60(self, tmp_path, capsys):
        # the uncondensed LP exited 3 here (basis lost primal feasibility)
        rc = main(["solve", "--preset", "multi_machine", "--nodes", "60",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "solve_metrics.json").read_text())
        assert doc["diagnostics"]["primal_eq_residual"] <= 1e-8
        assert doc["diagnostics"]["lp_meta"]["n_vars"] == 61
        assert doc["convergence"]["transcription_error_rel"] <= 5.0 / 60**2

    @pytest.mark.parametrize("pitch", [-1.0, -0.5])
    def test_negative_pitch_exit_code(self, tmp_path, capsys, pitch):
        # -1 deg put a pole in the C_p model and crashed the closed loop
        doc = load_preset("two_machine")
        doc["turbines"][0]["pitch_deg"] = pitch
        path = tmp_path / "pitch.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "pitch" in capsys.readouterr().err

    @pytest.mark.parametrize("pitch", [16.0, 45.0, 60.0])
    def test_steep_pitch_exit_code(self, tmp_path, capsys, pitch):
        # the C_p optimum's tip-speed ratio falls with pitch: 4.33 at 16 deg puts
        # WF1 under its 0.887 rad/s floor, and it is negative from about 44.9 deg
        doc = load_preset("two_machine")
        doc["turbines"][0]["pitch_deg"] = pitch
        path = tmp_path / "pitch.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "$.turbines[0].pitch_deg" in err and "below the floor" in err
        doc["turbines"][0]["pitch_deg"] = 15.0  # the last degree above the floor
        assert scenario_from_dict(doc).validate() == []

    @pytest.mark.parametrize("section", ["governors", "turbines"])
    def test_duplicate_name_exit_code(self, tmp_path, capsys, section):
        # a trip of G1 would trip only the first of two units named G1, and
        # the trace would get two WT1_pe_mw columns
        doc = load_preset("multi_machine")
        doc[section][1]["name"] = doc[section][0]["name"]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"$.{section}[1].name: " in err and f"$.{section}[0]" in err
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value).startswith(f"$.{section}[1].name: ")
        assert ";" not in str(exc.value)  # the one problem

    @pytest.mark.parametrize("json_path, value", [
        ("$.sim.step_s", "NaN"),
        ("$.sim.duration_s", "NaN"),
        ("$.sim.duration_s", "Infinity"),
        ("$.turbines[0].count", "NaN"),
        ("$.turbines[0].count", "Infinity"),
        ("$.turbines[0].wind_speed_ms", "NaN"),
        ("$.turbines[0].wind_speed_ms", "Infinity"),
        ("$.grid.load_mw", "NaN"),
        ("$.grid.load_mw", "Infinity"),
        ("$.grid.inertia_s", "NaN"),
        ("$.grid.inertia_s", "Infinity"),
        ("$.grid.damping_pu", "NaN"),
        ("$.grid.damping_pu", "-Infinity"),
        ("$.solver.t_f_s", "NaN"),
        ("$.solver.hypothetical_p_d_pu", "Infinity"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, json_path, value):
        # JSON readers accept NaN and Infinity; each of these crashed, ran
        # silently or failed without naming its field
        doc = load_preset("two_machine")
        _set_at(doc, json_path, float(value.replace("Infinity", "inf")))
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert value in path.read_text()
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{json_path}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("json_path, value", [
        ("$.controllers.alpha", "1.2"),
        ("$.governors[0].rated_mva", "200"),
        ("$.governors[0].params.droop", "0.05"),
        ("$.turbines[0].spec.rotor_radius_m", "45"),
        ("$.grid", None),
        ("$.controllers.exit_strategy", "false"),
        ("$.turbines[0].count", 20.7),
        ("$.turbines[0].name", 7),
        ("$.solver.nodes", True),
    ])
    def test_wrong_type_exit_code(self, tmp_path, capsys, json_path, value):
        # the strings and the null grid crashed with a TypeError; the string
        # "false" read as true, 20.7 turbines as 20, true as 1 node, and a
        # number passed as a name
        doc = load_preset("two_machine")
        _set_at(doc, json_path, value)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{json_path}: must be " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("governors", [
        [],
        [{"name": "G1", "rated_mva": 200.0, "kind": "transfer_function",
          "params": {"num": [-20.0, 0.0], "den": [1.0, 1.0]}}],
    ], ids=["no_governor", "zero_dc_gain"])
    def test_no_restoring_feedback_exit_code(self, tmp_path, capsys, command, governors):
        # D + K_g = 0 raised an uncaught ZeroDivisionError (exit 1)
        doc = load_preset("two_machine")
        doc["grid"]["damping_pu"] = 0.0
        doc["governors"] = governors
        path = tmp_path / "free.json"
        path.write_text(json.dumps(doc))
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "$.grid.damping_pu: " in capsys.readouterr().err

    def test_allocation_to_a_vic_turbine_exit_code(self, tmp_path, capsys):
        # the AAPC turbine of an AAPC + VIC fleet delivered a quarter of the
        # aggregate command; a VIC turbine never reads a share
        doc = load_preset("two_machine")
        doc["turbines"].append({"name": "WF2", "count": 10, "wind_speed_ms": 10.0,
                                "controller": "classic_vic",
                                "spec": {"preset": "dfig5mw"}})
        doc["controllers"]["allocation"] = [0.25, 0.75]
        path = tmp_path / "shares.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "$.controllers.allocation: " in capsys.readouterr().err

    def test_zero_power_base_exit_code(self, tmp_path, capsys):
        # the load in MW was divided by the base before the base was checked
        doc = load_preset("two_machine")
        doc["grid"]["s_base_mva"] = 0.0
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "$.grid: power base must be positive" in capsys.readouterr().err

    def test_nodes_override_after_parsing(self, tmp_path, capsys):
        # a null solver section is the default one; --nodes wrote into it
        doc = load_preset("two_machine")
        doc["solver"] = None
        path = tmp_path / "null_solver.json"
        path.write_text(json.dumps(doc))
        argv = ["synthesize", "--scenario", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + ["--nodes", "10"]) == 0
        assert main(argv + ["--nodes", "5"]) == 2
        assert "$.solver.nodes: must be >= 10, got 5" in capsys.readouterr().err

    def test_nodes_upper_bound(self, tmp_path, capsys):
        # the condensing block grows as (n K)^2; 200 is the highest order
        # accepted
        out = tmp_path / "o"
        argv = ["solve", "--preset", "multi_machine", "--out", str(out), "--nodes"]
        assert main(argv + ["200"]) == 0
        doc = json.loads((out / "solve_metrics.json").read_text())
        assert doc["diagnostics"]["warm_start"] == "hit"
        assert doc["diagnostics"]["primal_ub_residual"] <= 1e-9
        capsys.readouterr()
        assert main(argv + ["201"]) == 2
        assert capsys.readouterr().err.startswith(
            "scenario error: $.solver.nodes: must be <= 200, got 201")

    @pytest.mark.parametrize("json_path, value", [
        ("$.controllers.allocation", [-1.0]),
        ("$.controllers.allocation", [5.0]),
        ("$.controllers.allocation", [0.5, 0.5]),
        ("$.controllers.alpha", 0.5),
        ("$.solver.t_f_s", 0.0),
    ])
    def test_range_error_exit_code_names_path(self, tmp_path, capsys, json_path, value):
        # a negated or fivefold allocation ran to exit 0; alpha < 1 and a zero
        # horizon exited 2 with messages that named no field
        doc = load_preset("two_machine")
        _set_at(doc, json_path, value)
        path = tmp_path / "range.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{json_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "synthesize"])
    def test_solved_alpha_below_one_names_governors(self, tmp_path, capsys, command):
        # without governors the optimum holds the frequency above its settling
        # level (alpha 0.78); the synthesis then refused it without a path
        doc = load_preset("two_machine")
        doc["governors"] = []
        path = tmp_path / "no_governors.json"
        path.write_text(json.dumps(doc))
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: $.governors: ")
        assert re.search(r"\$\.governors: the solved alpha 0\.78\d* is below 1", err)
        assert "pin $.controllers.alpha" in err and "add a governor" in err

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["simulate", "--scenario", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_outputs_byte_reproducible(self, tmp_path):
        doc = load_preset("two_machine")
        doc["solver"]["nodes"] = 24
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        for d in ("a", "b"):
            rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / d)])
            assert rc == 0
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert (tmp_path / "a" / "solve_metrics.json").read_bytes() == \
            (tmp_path / "b" / "solve_metrics.json").read_bytes()

    @pytest.mark.parametrize("alpha", [None, 1.19])
    def test_compare_reports_alpha_for_aapc_only(self, tmp_path, alpha):
        # the pinned or solved alpha belongs to the run whose turbines use it
        doc = load_preset("two_machine")
        doc["controllers"]["alpha"] = alpha
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        for strat in ("none", "classic_vic"):
            metrics = json.loads((tmp_path / "o" / f"compare_{strat}_metrics.json").read_text())
            assert (metrics["alpha"], metrics["gain_kw"]) == (None, None), strat
        aapc = json.loads((tmp_path / "o" / "compare_optimal_aapc_metrics.json").read_text())
        assert aapc["alpha"] == (1.19 if alpha else pytest.approx(1.187, abs=1e-3))
        assert aapc["gain_kw"] < 0.0

    def test_synthesize_reports_gain(self, tmp_path):
        rc = main(["synthesize", "--preset", "two_machine",
                   "--out", str(tmp_path / "o"), "--nodes", "40"])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "controller.json").read_text())
        assert -14.6 < doc["gain_kw"] < -13.6
        assert doc["allocation"] == [1.0]
        assert len(doc["mirror"]["a"]) == 1

    @pytest.mark.parametrize("value", ["0:0.2:3", "-0.1:0.2:3", "0.02:0:3", "0.02:-0.2:3",
                                       "0.02:0.2:0", "0.02:0.2:-1"])
    def test_range_rejects_what_it_mishandled(self, tmp_path, capsys, value):
        # a zero lo exited 2 blaming $.events[0].magnitude_pu, a zero count
        # wrote an empty sweep and exited 0, a negative one met numpy's message
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "two_machine", f"--range={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --range: " in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "synthesize", "simulate", "compare", "sweep"])
    def test_invalid_scenario_creates_no_output(self, tmp_path, capsys, command):
        # the scenario is loaded before the output directory is made
        doc = load_preset("two_machine")
        doc["sim"]["step_s"] = 0.05
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "$.sim.step_s: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_length_bound(self, tmp_path, capsys):
        # the traces are preallocated: 1e6 s at 10 ms asked for about 12.5 GB
        assert MAX_STEPS >= 100 * 30_000  # 100 times the longest tested run
        doc = load_preset("multi_machine")
        doc["sim"]["duration_s"] = 1e6
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("scenario error: $.sim.duration_s, $.sim.step_s: 1000000.0 s at 0.01 s is "
                f"100000000 steps, more than the {MAX_STEPS} a run may take") \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("step_s", [0.01, 0.005])
    def test_run_length_bound_edge(self, step_s):
        # validated only: a run at the bound would take minutes
        sc = scenario_from_dict(load_preset("two_machine"))
        at = replace(sc, sim=replace(sc.sim, duration_s=MAX_STEPS * step_s, step_s=step_s))
        assert at.validate() == []
        over = replace(at, sim=replace(at.sim, duration_s=(MAX_STEPS + 1) * step_s))
        assert over.validate() == [
            f"$.sim.duration_s, $.sim.step_s: {(MAX_STEPS + 1) * step_s} s at {step_s} s is "
            f"{MAX_STEPS + 1} steps, more than the {MAX_STEPS} a run may take"]
