"""Scenario loading, validation diagnostics, and trace output format."""

import copy
import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest

from covacc import ConfigurationError, load_scenario, run


def bundled_doc(name):
    text = resources.files("covacc").joinpath(f"scenarios/{name}.json").read_text()
    return json.loads(text)


def minimal_doc():
    """Two symmetric nodes, no attack: loads without warnings."""
    return {
        "name": "pair",
        "horizon": 30,
        "subsystems": [
            {"index": 1, "A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]},
            {"index": 2, "A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]},
        ],
        "topology": {
            "neighbors": {"1": [2], "2": [1]},
            "coupling": {"default": [[0.1, 0.0], [0.0, -0.01]]},
        },
    }


class TestLoadScenario:
    def test_bundled_fullrank_structure(self, fullrank_config):
        cfg = fullrank_config
        assert cfg.name == "five_node_fullrank"
        assert cfg.horizon == 100
        assert len(cfg.subsystems) == 5
        topo = cfg.topology
        assert topo.inbound(1) == (2, 3)
        assert topo.inbound(2) == (1, 3, 4)
        assert topo.inbound(3) == (1, 2)
        assert topo.inbound(4) == (1, 2, 5)
        assert topo.inbound(5) == (4,)
        assert cfg.attack.target == 3
        assert cfg.attack.onset == 20
        assert cfg.thresholds.mode == "calibrate"

    def test_bundled_scenarios_differ_only_in_coupling(self, fullrank_config, lowrank_config):
        full_block = fullrank_config.topology.coupling[(1, 3)]
        low_block = lowrank_config.topology.coupling[(1, 3)]
        np.testing.assert_array_equal(full_block, np.diag([0.1, -0.01]))
        np.testing.assert_array_equal(low_block, [[0.1, 0.0], [-0.1, 0.0]])
        assert np.linalg.matrix_rank(full_block) == 2
        assert np.linalg.matrix_rank(low_block) == 1

    def test_minimal_doc_loads(self):
        cfg = load_scenario(minimal_doc())
        assert cfg.attack is None
        assert cfg.horizon == 30

    def test_wrong_shape_coupling_names_the_edge(self):
        doc = minimal_doc()
        doc["topology"]["coupling"] = {
            "default": [[0.1, 0.0], [0.0, -0.01]],
            "edges": [{"i": 2, "j": 1, "matrix": [[0.1], [0.0]]}],
        }
        with pytest.raises(ConfigurationError, match=r"\(2,1\)"):
            load_scenario(doc)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_onset_at_horizon_rejected(self):
        doc = bundled_doc("five_node_fullrank")
        doc["attack"]["onset"] = 100
        with pytest.raises(ConfigurationError, match="onset"):
            load_scenario(doc)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unknown_attack_target_rejected(self):
        doc = bundled_doc("five_node_fullrank")
        doc["attack"]["target"] = 9
        with pytest.raises(ConfigurationError, match="target"):
            load_scenario(doc)

    def test_missing_subsystem_matrix_rejected(self):
        doc = minimal_doc()
        del doc["subsystems"][0]["B"]
        with pytest.raises(ConfigurationError, match="B"):
            load_scenario(doc)

    def test_one_way_edge_warns(self):
        doc = minimal_doc()
        doc["topology"]["neighbors"] = {"1": [2], "2": []}
        with pytest.warns(RuntimeWarning, match="reverse"):
            load_scenario(doc)

    def test_explicit_thresholds_require_all_nodes(self):
        doc = minimal_doc()
        doc["thresholds"] = {"mode": "explicit", "values": {"1": 0.1}}
        with pytest.raises(ConfigurationError):
            load_scenario(doc)

    def test_signal_kinds(self):
        doc = bundled_doc("five_node_fullrank")
        doc["attack"]["signal"] = {"kind": "sinusoid", "amplitude": [0.5], "period": 12}
        with pytest.warns(RuntimeWarning):
            cfg = load_scenario(doc)
        assert cfg.attack.signal(20) == pytest.approx(0.0)
        assert cfg.attack.signal(23)[0] == pytest.approx(0.5)

        doc["attack"]["signal"] = {"kind": "table", "values": [[1.0], [2.0]], "after": "zero"}
        with pytest.warns(RuntimeWarning):
            cfg = load_scenario(doc)
        assert cfg.attack.signal(21)[0] == 2.0
        assert cfg.attack.signal(25)[0] == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bad_signal_kind_rejected(self):
        doc = bundled_doc("five_node_fullrank")
        doc["attack"]["signal"] = {"kind": "noise"}
        with pytest.raises(ConfigurationError, match="kind"):
            load_scenario(doc)

    def test_from_file_path(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(minimal_doc()))
        cfg = load_scenario(path)
        assert cfg.name == "pair"


class TestRunBasics:
    def test_attack_free_network_decays_to_rest(self, fullrank_config):
        doc = bundled_doc("five_node_fullrank")
        del doc["attack"]
        for sub in doc["subsystems"]:
            sub["x0"] = [0.5, -0.5]
        with pytest.warns(RuntimeWarning):
            cfg = load_scenario(doc)
        trace = run(cfg, detect=False)
        for i in range(1, 6):
            final = trace.series(i, "x")[-1]
            assert np.linalg.norm(final) < 1e-8

    def test_rerun_is_deterministic(self, fullrank_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(fullrank_config).to_csv(a)
        run(fullrank_config).to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_detection_means_no_decision(self, fullrank_blind_trace):
        assert all(s is None for s in fullrank_blind_trace.decision_steps.values())
        for i in range(1, 6):
            assert sum(int(v) for v in fullrank_blind_trace.series(i, "alarm_on")) == 0

    def test_decisions_latch(self, fullrank_trace):
        decided = [int(v) for v in fullrank_trace.series(3, "decided")]
        kd = fullrank_trace.decision_steps[3]
        assert all(v == 0 for v in decided[:kd])
        assert all(v == 1 for v in decided[kd:])


class TestDetectOff:
    @pytest.mark.parametrize("name", ["fullrank", "lowrank"])
    def test_same_trajectory_until_compensation(self, request, name):
        config = request.getfixturevalue(f"{name}_config")
        detected = request.getfixturevalue(f"{name}_trace")
        blind = run(config, detect=False)
        assert all(t == math.inf for t in blind.thresholds.values())
        assert blind.arm_step == 0
        # the first step whose control law carries the attack corrections
        phase = detected.series(config.attack.target, "phase")
        first = int(np.argmax(phase == 2))
        assert phase[first] == 2 and first > config.attack.onset
        for fieldname in ("x", "xa", "xhat_loc", "xhat_coop", "ymeas", "u", "u_applied",
                          "inj", "resid_loc", "resid_coop"):
            for i in blind.nodes:
                np.testing.assert_array_equal(
                    blind.series(i, fieldname)[:first], detected.series(i, fieldname)[:first]
                )


class TestTraceFormat:
    def test_row_count_and_header(self, fullrank_trace, tmp_path):
        path = tmp_path / "trace.csv"
        fullrank_trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == fullrank_trace.column_names()
        assert header[:2] == ["step", "node"]
        assert len(lines) - 1 == fullrank_trace.horizon * 5

    def test_rows_ordered_step_major(self, fullrank_trace, tmp_path):
        path = tmp_path / "trace.csv"
        fullrank_trace.to_csv(path)
        lines = path.read_text().strip().splitlines()[1:]
        pairs = [tuple(int(v) for v in ln.split(",")[:2]) for ln in lines]
        assert pairs == [(k, i) for k in range(100) for i in range(1, 6)]

    def test_floats_roundtrip_binary64(self, fullrank_trace, tmp_path):
        path = tmp_path / "trace.csv"
        fullrank_trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        cols = lines[0].split(",")
        x1 = cols.index("x1")
        # compare a mid-run row against the in-memory trace bit for bit
        row = lines[1 + 40 * 5 + 2].split(",")  # step 40, node 3
        assert float(row[x1]) == fullrank_trace.series(3, "x")[40][0]

    def test_series_fields_exist(self, fullrank_trace):
        for name in ("x", "xa", "xhat_loc", "xhat_coop", "ymeas", "u", "u_applied",
                     "inj", "inj_hat", "xa_ls", "xa_pub", "xa_fwd", "alarm",
                     "resid_loc", "resid_coop", "alarm_on", "decided", "phase"):
            series = fullrank_trace.series(3, name)
            assert len(series) == fullrank_trace.horizon
