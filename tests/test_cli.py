"""Command line behavior: outputs, diagnostics, exit codes."""

import json
import math
from importlib import resources

import pytest

from covacc.cli import bundled_scenarios, main


@pytest.fixture(autouse=True)
def quiet_topology_warning(recwarn):
    # the bundled scenarios carry a directed edge on purpose; every CLI
    # invocation in here would otherwise print the warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def broken_doc():
    return {
        "name": "broken",
        "horizon": 10,
        "subsystems": [
            {"index": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
        ],
        "topology": {"neighbors": {"1": [1]}, "coupling": {"default": [[0.1]]}},
    }


# (path into the bundled fullrank document, malformed value)
MALFORMED = {
    "nan_in_A": (("subsystems", 0, "A"), [[math.nan, 0.2], [0.0, 0.3]]),
    "ragged_A": (("subsystems", 0, "A"), [[0.4, 0.2], [0.0]]),
    "horizon_not_int": (("horizon",), "abc"),
    "neighbor_not_int": (("topology", "neighbors", "1"), ["x"]),
    "neighbors_as_list": (("topology", "neighbors"), [[2, 3]]),
    "inf_attack_value": (("attack", "signal", "value"), [math.inf]),
    "horizon_fractional": (("horizon",), 100.7),
    "onset_fractional": (("attack", "onset"), 20.9),
    "onset_bool": (("attack", "onset"), False),
    "index_bool": (("subsystems", 0, "index"), True),
    "A_bool": (("subsystems", 0, "A"), [[True, 0.2], [0.0, 0.3]]),
    "attack_value_bool": (("attack", "signal", "value"), [True]),
    "arm_step_negative": (("arm_step",), -1),
    "reconstruction_window_zero": (("reconstruction_window",), 0),
    "factor_zero": (("thresholds", "factor"), 0),
    "floor_negative": (("thresholds", "floor"), -1),
    "window_one_bound": (("thresholds", "window"), [5]),
    "period_zero": (("attack", "signal"), {"kind": "sinusoid", "amplitude": [1.0], "period": 0}),
    "table_empty": (("attack", "signal"), {"kind": "table", "values": []}),
    # 2 pi / period overflows to inf one step after the onset, and sin(inf) has no value
    "period_subnormal": (("attack", "signal"),
                         {"kind": "sinusoid", "amplitude": [1.0], "period": 1e-320}),
}


class TestBundled:
    def test_both_scenarios_ship(self):
        assert bundled_scenarios() == ["five_node_fullrank", "five_node_lowrank"]


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", "--scenario", "five_node_fullrank"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: five_node_fullrank")
        assert "5 nodes" in out and "horizon 100" in out and "thresholds calibrate" in out
        assert "attack on node 3 at step 20" in out

    def test_broken_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken_doc()))
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:")

    @pytest.mark.parametrize("path, value", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_scenario_exits_2(self, capsys, tmp_path, path, value):
        text = resources.files("covacc").joinpath("scenarios/five_node_fullrank.json").read_text()
        doc = json.loads(text)
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        src = tmp_path / "malformed.json"
        src.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(src), "--out", str(tmp_path / "trace.csv")]) == 2
        assert capsys.readouterr().err.startswith("config:")

    def test_unknown_name_exits_2(self, capsys):
        assert main(["validate", "--scenario", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "bundled" in err and "five_node_fullrank" in err


class TestDesigns:
    @pytest.mark.parametrize("name", ["five_node_fullrank", "five_node_lowrank"])
    def test_reports_stable_radii(self, capsys, name):
        assert main(["designs", "--scenario", name]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[-1] == "all stable: yes"
        assert len(lines) == 6  # five nodes plus the verdict
        for line in lines[:5]:
            for token in line.split("radius ")[1:]:
                assert float(token.split(",")[0].split(";")[0]) < 1.0

    def test_accommodation_summary_on_target_node(self, capsys):
        main(["designs", "--scenario", "five_node_lowrank"])
        out = capsys.readouterr().out
        node3 = next(ln for ln in out.splitlines() if ln.startswith("node 3"))
        assert "regime low" in node3
        assert "hidden directions 1" in node3
        assert "input delay 3" in node3


class TestRun:
    def test_writes_csv_and_reports_decision(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        assert main(["run", "--scenario", "five_node_fullrank", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote 500 rows" in out
        assert "node 3 decided 'attacked' at step 22" in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["step", "node"]
        assert len(lines) == 501

    @pytest.mark.parametrize("where, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where, reason):
        out_path = tmp_path / "no_such_dir" / "trace.csv" if where == "missing" else tmp_path
        assert main(["run", "--scenario", "five_node_fullrank", "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config: --out: cannot write {out_path}: {reason}")

    def test_horizon_override(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        assert main([
            "run", "--scenario", "five_node_fullrank",
            "--out", str(out_path), "--horizon", "40",
        ]) == 0
        assert "wrote 200 rows" in capsys.readouterr().out

    def test_horizon_conflicting_with_onset_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code = main([
            "run", "--scenario", "five_node_fullrank",
            "--out", str(out_path), "--horizon", "15",
        ])
        assert code == 2
        assert "onset" in capsys.readouterr().err

    def test_synthesis_failure_exits_3(self, capsys, tmp_path):
        # single output row cannot see the state coordinate the coupling
        # writes, so the decoupled observer for node 1 does not exist
        doc = {
            "name": "blind",
            "horizon": 10,
            "subsystems": [
                {"index": 1, "A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]},
                {"index": 2, "A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]},
            ],
            "topology": {
                "neighbors": {"1": [2], "2": [1]},
                "coupling": {"default": [[0.0, 0.0], [0.0, 1.0]]},
            },
        }
        path = tmp_path / "blind.json"
        path.write_text(json.dumps(doc))
        assert main(["designs", "--scenario", str(path)]) == 3
        assert capsys.readouterr().err.startswith("synthesis:")

    @pytest.mark.parametrize("edges, neighbors", [
        ([], {"1": [], "2": [1]}),
        ([{"i": 1, "j": 2, "matrix": [[0.0, 0.0], [0.0, 0.0]]}], {"1": [2], "2": [1]}),
    ], ids=["no_outbound_edge", "zero_outbound_block"])
    def test_unwitnessed_target_exits_3(self, capsys, tmp_path, edges, neighbors):
        # no neighbor receives node 2's state through a nonzero block, so
        # no alarm can witness the attack on it
        sub = {"A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]}
        doc = {
            "name": "unwitnessed",
            "horizon": 40,
            "subsystems": [dict(sub, index=i) for i in (1, 2)],
            "topology": {
                "neighbors": neighbors,
                "coupling": {"default": [[0.1, 0.0], [0.0, -0.01]], "edges": edges},
            },
            "attack": {"target": 2, "onset": 20, "signal": {"kind": "constant", "value": [1.0]}},
        }
        path = tmp_path / "unwitnessed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "trace.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("synthesis: attacked node 2:")
        assert "no nonzero row" in err

    def test_two_simultaneous_decisions_exit_4(self, capsys, tmp_path):
        # nodes 3 and 4 share the watcher pair {1, 2}, so an attack on 3
        # makes both decide on the same step and accommodation refuses
        sub = {"A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]}
        doc = {
            "name": "ambiguous",
            "horizon": 60,
            "subsystems": [dict(sub, index=i) for i in (1, 2, 3, 4)],
            "topology": {
                "neighbors": {"1": [3], "2": [3], "3": [1, 2], "4": [1, 2]},
                "coupling": {"default": [[0.1, 0.0], [0.0, -0.01]]},
            },
            "attack": {"target": 3, "onset": 20, "signal": {"kind": "constant", "value": [1.0]}},
        }
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "trace.csv"
        assert main(["run", "--scenario", str(path), "--out", str(out_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime:")
        assert "superpose" in err

    def test_calibrate_flag_overrides_explicit_thresholds(self, capsys, tmp_path):
        doc = {
            "name": "explicit",
            "horizon": 60,
            "subsystems": [
                {"index": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
                {"index": 2, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
            ],
            "topology": {
                "neighbors": {"1": [2], "2": [1]},
                "coupling": {"default": [[0.1]]},
            },
            # absurdly tight: any startup noise would trip it
            "thresholds": {"mode": "explicit", "values": {"1": 1e-300, "2": 1e-300}},
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "trace.csv"
        assert main(["run", "--scenario", str(path), "--out", str(out_path), "--calibrate"]) == 0
        assert "no node decided" in capsys.readouterr().out

    def test_file_path_scenario(self, capsys, tmp_path):
        doc = {
            "name": "tiny",
            "horizon": 12,
            "subsystems": [
                {"index": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
                {"index": 2, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
            ],
            "topology": {
                "neighbors": {"1": [2], "2": [1]},
                "coupling": {"default": [[0.1]]},
            },
        }
        src = tmp_path / "tiny.json"
        src.write_text(json.dumps(doc))
        out_path = tmp_path / "tiny.csv"
        assert main(["run", "--scenario", str(src), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote 24 rows" in out
        assert "no node decided" in out
