"""Self-tests of the benchmark itself.

    python -m pytest bench -q          # from the checkout root

They check that the generator is deterministic, that tracing leaves the
CSV unchanged, that the output checks catch a wrong CSV, and that every
workload completes at a tiny horizon with every named metric present.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import covacc  # noqa: E402
from covacc import cli  # noqa: E402

import gen_grid  # noqa: E402
import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_HORIZON = 40


@pytest.fixture
def work(request):
    path = ROOT / "bench" / ".work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_generator_is_deterministic_and_accepted(work, capsys):
    first = gen_grid.dumps(gen_grid.generate(3))
    assert gen_grid.dumps(gen_grid.generate(3)) == first
    assert gen_grid.dumps(gen_grid.generate(4)) != first
    assert gen_grid.dumps(gen_grid.generate(gen_grid.HELD_OUT_SEED)) != first

    path = work / "grid.json"
    assert gen_grid.main(["--seed", "3", "--out", str(path)]) == 0
    assert path.read_text() == first
    assert cli.main(["validate", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok: grid10x10_seed3: 100 nodes")

    config = covacc.load_scenario(path)
    assert {len(config.topology.inbound(i)) for i in config.subsystems} == {2, 3, 4}
    assert len(config.topology.inbound(config.attack.target)) == 4


def _bundled(work, name="five_node_fullrank"):
    src = Path(covacc.__file__).parent / "scenarios" / f"{name}.json"
    doc = json.loads(src.read_text())
    doc["horizon"] = TINY_HORIZON
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_tracing_leaves_csv_unchanged_and_restores_functions(work, capsys):
    scenario = _bundled(work)
    plain, traced = work / "plain.csv", work / "traced.csv"
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(plain)]) == 0
    original = covacc.scenario.step_plant
    with Tracer() as tracer:
        assert covacc.scenario.step_plant is not original
        assert cli.main(["run", "--scenario", str(scenario), "--out", str(traced)]) == 0
    assert covacc.scenario.step_plant is original is covacc.model.step_plant
    assert not hasattr(covacc.ScenarioTrace.to_csv, "__wrapped__")
    assert traced.read_bytes() == plain.read_bytes()

    summary = tracer.summary()
    # Main run plus calibration rehearsal advance the plant once per step each.
    assert summary["model.step_plant.calls"] == 2 * TINY_HORIZON
    assert summary["cli.main.calls"] == 1
    assert summary["scenario.calibration_s"] > 0 and summary["scenario.simulate_s"] > 0
    assert all(v >= 0 for k, v in summary.items() if k.endswith("_s"))


def test_function_never_called_reports_zero(work, capsys):
    config = covacc.load_scenario(_bundled(work))
    quiet = harness.dataclasses.replace(config, attack=None)
    with Tracer() as tracer:
        covacc.run(quiet)
    summary = tracer.summary()
    assert summary["accommodation.ls_estimate.calls"] == 0
    assert summary["accommodation.ls_estimate_s"] == 0.0
    assert summary["detection.emit_alarm.hits"] == 0


def test_csv_check_catches_reordered_bytes_and_drift(work):
    path = _bundled(work)
    scenario = harness.Scenario(path=path, config=covacc.load_scenario(path))
    scenario.reference = covacc.run(scenario.config)
    out = work / "trace.csv"
    scenario.reference.to_csv(out)
    text = out.read_text()
    assert harness._csv_problems(scenario, out) == []
    assert harness._csv_problems(scenario, out) == []

    lines = text.splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    out.write_text("".join(lines[:-1]) + ",".join(cells))
    assert harness._csv_problems(scenario, out) == ["CSV bytes differ from the first run's"]
    scenario.csv_digest = None
    assert harness._csv_problems(scenario, out) == [
        "CSV values differ from the warm run beyond tolerance"]

    scenario.csv_digest = None
    out.write_text("".join(lines[:-1]))
    assert "rows, expected" in harness._csv_problems(scenario, out)[0]


def test_host_speed_scales_each_sample_by_the_readings_taken_during_it(work):
    path = _bundled(work)
    scenarios = [harness.Scenario(path=path, config=covacc.load_scenario(path))]
    samples = harness._untraced_pass(scenarios, work, 0, harness.Ledger())
    # One cycle: a warm batch, a `covacc run` and a `covacc designs`, in that order.
    slowness = samples["slowness"]
    assert len(slowness) == 3 and all(x > 0 for x in slowness)
    assert samples["node_steps_per_s"] == pytest.approx([samples["node_steps_per_s.raw"][0] * slowness[0]])
    assert samples["cli_s"] == pytest.approx([samples["cli_s.raw"][0] / slowness[1]])
    assert samples["setup_s"] == pytest.approx([samples["setup_s.raw"][0] / slowness[2]])


def test_host_speed_reads_while_a_child_runs(work):
    host = harness.HostSpeed()
    child = harness._child(["-c", "import time; time.sleep(0.5)"], work, host)
    assert child.code == 0
    assert len(host.during(child.start, child.end)) >= 5


def test_benchmark_json_names_what_the_harness_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_workload_completes_at_tiny_horizon(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--horizon", str(TINY_HORIZON)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = harness.per_layer_units() if trace else harness.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        for name in harness.OUTCOMES:
            assert f"  {name} " in proc.stdout
