import json
import re
from dataclasses import replace

import pytest

from windfreq import cli
from windfreq.cli import main
from windfreq.grid import governor_dc_gain_total
from windfreq.presets import PRESET_NAMES, load_preset, preset_checksum
from windfreq.scenario import gas_governor, hydro_governor, scenario_from_dict, \
    scenario_to_dict
from windfreq.simulator import ScenarioError


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

    def test_nan_step_named_by_validate(self):
        # a NaN that reaches the runtime objects from the library, not a file
        sc = scenario_from_dict(load_preset("two_machine"))
        bad = replace(sc, sim=replace(sc.sim, step_s=float("nan")))
        assert "sim.step_s must be in (0, 0.02], got nan" in bad.validate()

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

    def test_solve_at_smallest_order_solves_once(self, tmp_path, monkeypatch, capsys):
        # the coarse order max(10, K // 2) is K itself at K = 10
        calls = []
        real = cli.solve_hypothetical

        def counting(sc, nodes=None):
            calls.append(nodes)
            return real(sc, nodes)

        monkeypatch.setattr(cli, "solve_hypothetical", counting)
        assert main(["solve", "--preset", "two_machine", "--nodes", "10",
                     "--out", str(tmp_path)]) == 0
        assert calls == [None]
        doc = json.loads((tmp_path / "solve_metrics.json").read_text())
        assert doc["convergence"] == {"nodes": 10, "coarse_nodes": None,
                                      "nadir_rel_diff": None}
        assert "coarse-grid" not in capsys.readouterr().out

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
        assert doc["convergence"]["nadir_rel_diff"] <= 0.005

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
        *parents, leaf = [int(k) if k.isdigit() else k
                          for k in re.findall(r"\w+", json_path[1:])]
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = float(value.replace("Infinity", "inf"))
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert value in path.read_text()
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{json_path}: must be a finite number" in capsys.readouterr().err

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

    def test_synthesize_reports_gain(self, tmp_path):
        rc = main(["synthesize", "--preset", "two_machine",
                   "--out", str(tmp_path / "o"), "--nodes", "40"])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "controller.json").read_text())
        assert -14.6 < doc["gain_kw"] < -13.6
        assert doc["allocation"] == [1.0]
        assert len(doc["mirror"]["a"]) == 1
