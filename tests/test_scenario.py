"""Scenario loading, validation diagnostics, and trace output format."""

import copy
import dataclasses
import importlib.util
import json
import math
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from covacc import (
    ConfigurationError,
    ProtocolError,
    ThresholdPolicy,
    Topology,
    calibrate_thresholds,
    load_scenario,
    run,
    scenario,
)
from covacc.cli import main

from reference import SCALAR_FIELDS, VECTOR_FIELDS, blind, csv_writer_oracle, reference_run


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


def mixed_doc():
    """Three nodes of state dimensions 2, 1 and 2; node 2 is attacked and accommodated."""
    return {
        "name": "mixed",
        "horizon": 40,
        "subsystems": [
            {"index": 1, "A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "x0": [0.5, -0.5]},
            {"index": 2, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "x0": [0.25]},
            {"index": 3, "A": [[0.3, 0.1], [0.0, 0.2]], "B": [[1.0], [0.5]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "x0": [0.1, 0.2]},
        ],
        "topology": {
            "neighbors": {"1": [2, 3], "2": [1, 3], "3": [1, 2]},
            "coupling": {"edges": [
                {"i": 1, "j": 2, "matrix": [[0.1], [0.05]]},
                {"i": 1, "j": 3, "matrix": [[0.1, 0.0], [0.0, -0.05]]},
                {"i": 2, "j": 1, "matrix": [[0.1, 0.05]]},
                {"i": 2, "j": 3, "matrix": [[0.05, 0.1]]},
                {"i": 3, "j": 1, "matrix": [[0.1, 0.0], [0.0, 0.1]]},
                {"i": 3, "j": 2, "matrix": [[0.1], [0.1]]},
            ]},
        },
        "attack": {"target": 2, "onset": 15, "signal": {"kind": "constant", "value": [1.0]}},
    }


def stopping_doc():
    """``five_node_lowrank`` with an attack that stops: 1.0 for 15 steps, then zero."""
    doc = bundled_doc("five_node_lowrank")
    doc["attack"]["signal"] = {"kind": "table", "values": [1.0] * 15, "after": "zero"}
    return doc


def resuming_doc():
    """``five_node_lowrank`` whose attack pauses: the sources go quiet at step 51
    and loud again at 78, and the window is full again at step 80."""
    doc = bundled_doc("five_node_lowrank")
    doc["horizon"] = 120
    doc["attack"]["signal"] = {"kind": "table", "values": [1.0] * 15 + [0.0] * 40 + [1.0],
                               "after": "hold"}
    return doc


def corner_doc():
    """The grid-corner shape: node 4's inbound pair {1, 2} lies inside the target 3's
    inbound set {1, 2, 5}, and node 2 weighs node 3 twice as much as node 4."""
    sub = {"A": [[0.4, 0.2], [0.0, 0.3]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]}
    return {
        "name": "corner",
        "horizon": 60,
        "subsystems": [dict(sub, index=i) for i in range(1, 6)],
        "topology": {
            "neighbors": {"1": [3, 4], "2": [3, 4], "3": [1, 2, 5], "4": [1, 2], "5": [3]},
            "coupling": {"default": [[0.1, 0.0], [0.0, -0.01]],
                         "edges": [{"i": 2, "j": 3, "matrix": [[0.2, 0.0], [0.0, -0.02]]}]},
        },
        "attack": {"target": 3, "onset": 20, "signal": {"kind": "constant", "value": [1.0]}},
    }


def grid_doc(seed):
    """The benchmark's seeded 10x10 grid scenario (``bench/gen_grid.py``)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen_grid.py"
    spec = importlib.util.spec_from_file_location("gen_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed)


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
        assert cfg.thresholds.values is None

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

    @pytest.mark.parametrize("coupling, message", [
        ({"edges": [{"i": 1, "j": 2, "matrix": [[0.1, 0.0], [0.0, 0.1]]}]},
         r"no block for edge \(2,1\)"),
        ({"default": [[0.1, 0.0], [0.0, -0.01]],
          "edges": [{"i": 1, "j": 1, "matrix": [[0.1, 0.0], [0.0, 0.1]]}]},
         r"\(1,1\) is not an edge"),
    ], ids=["edge_without_block", "block_on_non_edge"])
    def test_coupling_must_match_the_edges(self, coupling, message):
        doc = minimal_doc()
        doc["topology"]["coupling"] = coupling
        with pytest.raises(ConfigurationError, match=message):
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

    @pytest.mark.parametrize("spelling", [30.0, "30"])
    def test_integral_horizon_spellings_load(self, spelling):
        doc = minimal_doc()
        doc["horizon"] = spelling
        assert load_scenario(doc).horizon == 30

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
        trace = run(blind(cfg))
        for i in range(1, 6):
            final = trace.series(i, "x")[-1]
            assert np.linalg.norm(final) < 1e-8

    @pytest.mark.parametrize("name", ["fullrank", "lowrank", "grid0"])
    def test_rerun_is_deterministic(self, request, name, tmp_path):
        if name == "grid0":
            config = load_scenario(grid_doc(0))
        else:
            config = request.getfixturevalue(f"{name}_config")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(config).to_csv(a)
        run(config).to_csv(b)
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


class TestAttackSignal:
    """A caller-built ``AttackSpec``: the signal is checked and logged per step."""

    def test_wrong_length_signal_names_the_step(self, fullrank_config):
        attack = dataclasses.replace(fullrank_config.attack, signal=lambda k: np.ones(2))
        config = dataclasses.replace(fullrank_config, attack=attack)
        with pytest.raises(ConfigurationError, match=rf"attacker signal at step {attack.onset}: "
                                                     r"expected length 1, got shape \(2,\)"):
            run(config)

    def test_negative_onset_rejected(self, fullrank_config):
        attack = dataclasses.replace(fullrank_config.attack, onset=-1)
        with pytest.raises(ConfigurationError, match=r"^attack\.onset: must be non-negative, got -1$"):
            run(dataclasses.replace(fullrank_config, attack=attack))

    def test_injection_log_follows_the_signal(self, fullrank_config):
        def signal(k):
            return np.array([0.5 + 0.1 * (k % 7)])

        attack = dataclasses.replace(fullrank_config.attack, signal=signal)
        trace = run(dataclasses.replace(fullrank_config, attack=attack))
        onset = attack.onset
        inj = trace.series(attack.target, "inj")
        assert not inj[:onset].any()
        np.testing.assert_array_equal(inj[onset:], [signal(k) for k in range(onset, trace.horizon)])
        for i in trace.nodes:
            if i != attack.target:
                assert not trace.series(i, "inj").any()


class TestAccommodationWindow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_quiet_sources_empty_the_window(self):
        # the target decides at step 23; once the attack stops, its sources
        # go quiet at step 51 and the window must start over
        trace = run(load_scenario(stopping_doc()))
        assert trace.decision_steps == {1: None, 2: None, 3: 23, 4: None, 5: None}
        for j in (1, 2):
            alarm_on = trace.series(j, "alarm_on")
            assert alarm_on[50] == 1 and not alarm_on[51:].any()
        phase = trace.series(3, "phase")
        assert phase[50] == 2
        assert (phase[51:] == 1).all()
        assert trace.series(3, "xa_ls")[50].any()
        for fieldname in ("xa_ls", "xa_pub", "xa_fwd", "inj_hat"):
            assert not trace.series(3, fieldname)[51:].any(), fieldname


class TestDetectOff:
    @pytest.mark.parametrize("name", ["fullrank", "lowrank"])
    def test_same_trajectory_until_compensation(self, request, name):
        config = request.getfixturevalue(f"{name}_config")
        detected = request.getfixturevalue(f"{name}_trace")
        blind_trace = run(blind(config))
        assert all(t == math.inf for t in blind_trace.thresholds.values())
        assert blind_trace.arm_step == 0
        # the first step whose control law carries the attack corrections
        phase = detected.series(config.attack.target, "phase")
        first = int(np.argmax(phase == 2))
        assert phase[first] == 2 and first > config.attack.onset
        for fieldname in ("x", "xa", "xhat_loc", "xhat_coop", "ymeas", "u", "u_applied",
                          "inj", "resid_loc", "resid_coop"):
            for i in blind_trace.nodes:
                np.testing.assert_array_equal(
                    blind_trace.series(i, fieldname)[:first], detected.series(i, fieldname)[:first]
                )


class TestRehearsal:
    """The calibration rehearsal stops at the window end without changing a threshold."""

    @pytest.mark.filterwarnings("ignore:.*directed topology:RuntimeWarning")
    @pytest.mark.parametrize("name", ["fullrank", "lowrank", "grid0", "lowrank_window45"])
    def test_thresholds_match_full_horizon_rehearsal(self, request, name):
        if name == "grid0":
            config = load_scenario(grid_doc(0))
        elif name == "lowrank_window45":
            # the one case whose rehearsal runs past the onset (20): thresholds
            # read off the attacked states would differ
            doc = bundled_doc("five_node_lowrank")
            doc["thresholds"]["window"] = [10, 45]
            config = load_scenario(doc)
        else:
            config = request.getfixturevalue(f"{name}_config")
        policy = config.thresholds
        assert policy.window[1] < config.horizon
        with warnings.catch_warnings():
            # a rehearsal cut short of the window end would warn here
            warnings.simplefilter("error")
            trace = run(config)
        full = run(blind(dataclasses.replace(config, attack=None)))
        assert full.horizon == config.horizon
        want = calibrate_thresholds(
            {i: full.series(i, "resid_coop") for i in full.nodes},
            factor=policy.factor, floor=policy.floor, window=policy.window,
        )
        assert trace.thresholds == want
        assert trace.arm_step == policy.window[1]
        if name == "lowrank_window45":
            assert trace.decision_steps[config.attack.target] == 45

    @pytest.mark.parametrize("explicit", [False, True])
    def test_one_operator_per_run(self, monkeypatch, fullrank_config, explicit):
        calls = []
        build = scenario._operator
        monkeypatch.setattr(scenario, "_operator", lambda *args: calls.append(args) or build(*args))
        run(blind(fullrank_config) if explicit else fullrank_config)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_onset_zero_gives_floor_thresholds(self):
        doc = bundled_doc("five_node_fullrank")
        doc["attack"]["onset"] = 0
        doc["thresholds"] = {"mode": "calibrate"}
        config = load_scenario(doc)
        assert config.thresholds.window == (0, 0)
        trace = run(config)
        assert trace.thresholds == {i: config.thresholds.floor for i in trace.nodes}
        assert trace.arm_step == 0

    def test_window_past_horizon_warns(self):
        doc = minimal_doc()
        doc["thresholds"] = {"mode": "calibrate", "window": [10, 40]}
        config = load_scenario(doc)
        with pytest.warns(RuntimeWarning, match="exceeds the recorded 30 steps"):
            trace = run(config)
        assert trace.arm_step == 40


def _wrong_shape_block(config):
    topology = config.topology
    coupling = {**topology.coupling, (1, 2): np.ones((1, 2))}
    return {"topology": Topology(topology.n_nodes, topology.neighbors, coupling)}


def _one_node_fewer(config):
    return {"subsystems": {i: sub for i, sub in config.subsystems.items() if i != 5}}


# (change to the bundled fullrank config, the field the error names)
INVALID = {
    "horizon_0": (lambda c: {"horizon": 0}, "horizon"),
    "horizon_below_onset": (lambda c: {"horizon": 15}, "attack.onset"),
    "arm_step_negative": (lambda c: {"arm_step": -3}, "arm_step"),
    "reconstruction_window_0": (lambda c: {"reconstruction_window": 0}, "reconstruction_window"),
    "observer_radius_1.5": (lambda c: {"observer_radius": 1.5}, "observer_spectral_radius"),
    "factor_negative": (lambda c: {"thresholds": ThresholdPolicy(factor=-1)}, "thresholds.factor"),
    "window_reversed": (lambda c: {"thresholds": ThresholdPolicy(window=(15, 5))}, "thresholds.window"),
    "values_nan": (lambda c: {"thresholds": ThresholdPolicy(values=dict.fromkeys(c.subsystems, math.nan))},
                   "thresholds.values[1]"),
    "values_zero": (lambda c: {"thresholds": ThresholdPolicy(values=dict.fromkeys(c.subsystems, 0.0))},
                    "thresholds.values[1]"),
    "target_9": (lambda c: {"attack": dataclasses.replace(c.attack, target=9)}, "attack.target"),
    "coupling_shape": (_wrong_shape_block, "topology.coupling[(1,2)]"),
    "size_mismatch": (_one_node_fewer, "subsystems"),
    # types, worded as the loader words them
    "horizon_fractional": (lambda c: {"horizon": 40.5}, "horizon"),
    "horizon_past_float_range": (lambda c: {"horizon": 10**400}, "horizon"),
    "arm_step_fractional": (lambda c: {"arm_step": 3.5}, "arm_step"),
    "onset_fractional": (lambda c: {"attack": dataclasses.replace(c.attack, onset=20.5)}, "attack.onset"),
    "signal_none": (lambda c: {"attack": dataclasses.replace(c.attack, signal=None)}, "attack.signal"),
    "window_one_bound": (lambda c: {"thresholds": ThresholdPolicy(window=(5,))}, "thresholds.window"),
    "values_strings": (lambda c: {"thresholds": ThresholdPolicy(values=dict.fromkeys(c.subsystems, "high"))},
                       "thresholds.values[1]"),
}


class TestScenarioContract:
    """``ScenarioConfig`` checks itself, so ``dataclasses.replace`` meets the loader's checks."""

    @pytest.mark.parametrize("change, field", INVALID.values(), ids=INVALID.keys())
    def test_replace_refuses_invalid_scenario(self, fullrank_config, change, field):
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(field)}: "):
            dataclasses.replace(fullrank_config, **change(fullrank_config))

    def test_default_window_follows_the_onset(self, fullrank_config):
        attack = dataclasses.replace(fullrank_config.attack, onset=30)
        config = dataclasses.replace(fullrank_config, attack=attack, thresholds=ThresholdPolicy())
        assert config.thresholds.window == (10, 30)
        config = dataclasses.replace(config, attack=None, horizon=12, thresholds=ThresholdPolicy())
        assert config.thresholds.window == (10, 12)

    def test_integral_numbers_are_stored_typed(self, fullrank_config):
        attack = dataclasses.replace(fullrank_config.attack, onset=20.0)
        config = dataclasses.replace(fullrank_config, horizon=40.0, arm_step=22.0, attack=attack,
                                     thresholds=ThresholdPolicy(factor=3, window=[5.0, 15]))
        assert (config.horizon, config.arm_step, config.attack.onset) == (40, 22, 20)
        assert all(type(v) is int for v in (config.horizon, config.arm_step, config.attack.onset))
        assert config.thresholds.window == (5, 15) and type(config.thresholds.factor) is float


class TestIsolation:
    """A node that meets unanimity decides only if its sources' payloads fit it."""

    def test_inbound_subset_decides_on_the_target_only(self):
        trace = run(load_scenario(corner_doc()))
        assert trace.decision_steps == {1: None, 2: None, 3: 22, 4: None, 5: None}
        assert trace.series(3, "phase").max() == 2


class TestThresholdPolicy:
    """A policy is explicit exactly when it holds values, and then names every node."""

    def test_infinite_values_are_explicit(self, fullrank_config):
        policy = ThresholdPolicy(values=dict.fromkeys(fullrank_config.subsystems, math.inf))
        trace = run(dataclasses.replace(fullrank_config, thresholds=policy))
        assert trace.thresholds == dict.fromkeys(trace.nodes, math.inf)
        assert trace.arm_step == 0
        assert set(trace.decision_steps.values()) == {None}

    @pytest.mark.parametrize("mode", ["explicit", "Explicit"])
    def test_mode_is_not_a_field(self, mode):
        with pytest.raises(TypeError):
            ThresholdPolicy(mode=mode)

    def test_values_missing_a_node_are_refused(self, fullrank_config):
        policy = ThresholdPolicy(values={i: 1.0 for i in fullrank_config.subsystems if i != 2})
        with pytest.raises(ConfigurationError, match=r"^thresholds\.values: missing nodes \[2\]$"):
            run(dataclasses.replace(fullrank_config, thresholds=policy))

    def test_explicit_thresholds_keep_node_order(self, fullrank_config):
        values = {i: 10.0 + i for i in sorted(fullrank_config.subsystems, reverse=True)}
        trace = run(dataclasses.replace(fullrank_config, thresholds=ThresholdPolicy(values=values)))
        assert list(trace.thresholds.items()) == [(i, 10.0 + i) for i in trace.nodes]


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("detect", [True, False])
    def test_diverging_run_raises(self, detect):
        # with detection on, nodes decide on the diverged values: the
        # divergence is still what gets reported
        doc = bundled_doc("five_node_fullrank")
        doc["attack"]["signal"]["value"] = [1e308]
        config = load_scenario(doc)
        if not detect:
            config = blind(config)
        with pytest.raises(ProtocolError, match="non-finite resid_loc on node 1 at step 22"):
            run(config)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_rehearsal_exits_4(self, capsys, tmp_path):
        # node 1's first received-error norm overflows, so the rehearsal stops the run
        doc = bundled_doc("five_node_fullrank")
        assert doc["subsystems"][0]["index"] == 1
        doc["subsystems"][0]["x0"] = [1e300, 1e300]
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "trace.csv")]) == 4
        err = capsys.readouterr().err
        assert err == "runtime: non-finite resid_coop on node 1 at step 0; the run diverged\n"

    @pytest.mark.parametrize("name", ["fullrank", "lowrank"])
    def test_bundled_runs_stay_finite(self, request, name):
        trace = request.getfixturevalue(f"{name}_trace")
        assert np.isfinite(trace.table).all()


class TestStackedRunner:
    """The stacked tick against the per-node reference loop, to 1e-12."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "case", ["fullrank", "lowrank", "lowrank_long", "lowrank_window4", "stopping", "resuming",
                 "blind", "attack_free", "mixed", "mixed_explicit", "leaf", "grid0", "corner"]
    )
    def test_matches_per_node_reference(self, request, case):
        if case.startswith("mixed"):
            doc = mixed_doc()
            if case == "mixed_explicit":
                # armed from step 0: node 1's first residual (0.71) is past its threshold
                doc["thresholds"] = {"mode": "explicit", "values": {"1": 0.3, "2": 0.3, "3": 0.3}}
            config = load_scenario(doc)
        elif case == "leaf":
            # node 3 has no inbound neighbour, so its sums over neighbours are empty;
            # node 2 still decides (at step 23)
            doc = mixed_doc()
            doc["topology"]["neighbors"] = {"1": [2, 3], "2": [1], "3": []}
            edges = doc["topology"]["coupling"]["edges"]
            edges[:] = [e for e in edges if (e["i"], e["j"]) in {(1, 2), (1, 3), (2, 1)}]
            config = load_scenario(doc)
        elif case == "grid0":
            config = load_scenario(grid_doc(0))
        elif case == "corner":
            # node 4 meets unanimity with the target; only the fit tells them apart
            config = load_scenario(corner_doc())
        elif case == "lowrank_long":
            # long enough for regrouped sums to drift if they were going to
            config = dataclasses.replace(request.getfixturevalue("lowrank_config"), horizon=2000)
        elif case == "stopping":
            config = load_scenario(stopping_doc())
        elif case == "resuming":
            # the window refills over stale samples while the forward state persists
            config = load_scenario(resuming_doc())
        elif case == "lowrank_window4":
            # a register longer than n, loaded from the document with an explicit arm step
            doc = bundled_doc("five_node_lowrank")
            doc.update(reconstruction_window=4, arm_step=22)
            config = load_scenario(doc)
            assert (config.reconstruction_window, config.arm_step) == (4, 22)
        else:
            config = request.getfixturevalue(f"{'lowrank' if case == 'lowrank' else 'fullrank'}_config")
            if case == "attack_free":
                config = dataclasses.replace(config, attack=None)
            elif case == "blind":
                config = blind(config)
        trace = run(config)
        series, thresholds, arm_step, decided = reference_run(config)
        assert trace.decision_steps == decided
        assert trace.arm_step == arm_step
        assert trace.thresholds == pytest.approx(thresholds, rel=0, abs=1e-12)
        for i in trace.nodes:
            for fieldname in VECTOR_FIELDS + SCALAR_FIELDS:
                np.testing.assert_allclose(
                    trace.series(i, fieldname), series[i][fieldname], rtol=0, atol=1e-12,
                    err_msg=f"node {i}, {fieldname}",
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

    def test_series_views_are_read_only(self, fullrank_trace):
        for name in VECTOR_FIELDS + SCALAR_FIELDS:
            series = fullrank_trace.series(3, name)
            assert not series.flags.writeable
            with pytest.raises(ValueError):
                series[0] = 0.0

    def test_mixed_dimension_series_shapes(self):
        trace = run(load_scenario(mixed_doc()))
        assert trace.series(2, "x").shape == (40, 1)
        assert trace.series(1, "x").shape == (40, 2)
        assert trace.series(2, "u").shape == (40, 1)
        assert trace.series(2, "resid_coop").shape == (40,)
        assert trace.series(2, "phase").max() == 2

    def test_csv_matches_csv_writer(self, fullrank_trace, tmp_path):
        fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        fullrank_trace.to_csv(fast)
        csv_writer_oracle(fullrank_trace, oracle)
        assert fast.read_bytes() == oracle.read_bytes()

    def test_mixed_dimension_csv_matches_csv_writer(self, tmp_path):
        trace = run(load_scenario(mixed_doc()))
        fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        trace.to_csv(fast)
        csv_writer_oracle(trace, oracle)
        assert fast.read_bytes() == oracle.read_bytes()
        # node 2's rows pad its one-coordinate vectors with empty cells
        assert b"\r\n0,2,0.25,,0,," in fast.read_bytes()
