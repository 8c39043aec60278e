"""Workloads, measurement, output checks and reporting behind ``bench/run.py``.

Everything is measured from outside the program: fresh ``covacc``
processes (``python -m covacc.cli``, the module behind the ``covacc``
console script) and calls into covacc's public functions.  One process,
one child at a time, BLAS threads pinned to 1; nothing waits on another
thread, process or queue, so there is no waiting-time metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import covacc
from covacc import cli as covacc_cli

import gen_grid
from tracer import LABELS, MODULES, Tracer

WORKLOADS = ("bundled", "lowrank_long", "grid_attacked")
LONG_HORIZON = 2000
DETECT_WITHIN = 15      # acceptance criterion 4: decision within 15 steps of onset
VALUE_TOL = 1e-12       # the reordering drift a faster runner may introduce
MIN_ROUNDS = 2
WARM_BATCH_S = 1.5      # repeat warm run() until this much time passes; the batch is one sample
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150
REF_ITERATIONS = 150    # one reading of the host-speed kernel, about 1 ms
REF_NOMINAL_S = 0.001   # a reading's time at the nominal host speed (see NOTES.md)
READ_EVERY_S = 0.05     # how often the kernel is read during a timed measurement
SPAWN = Path(__file__).resolve().parent / "spawn.py"

# name -> unit; what --trace 0 emits.  The outcome statistics ride along in
# the report but not in the emitted metrics (see NOTES.md).
END_TO_END = {
    "cli_s": "s",
    "setup_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The timings among them, scaled to the nominal host speed (HostSpeed); the
# report also gives each as measured, under "<name>.raw".
TIMINGS = ("cli_s", "setup_s", "node_steps_per_s")
OUTCOMES = {
    "fail_ratio": "1",
    "detect_delay_steps": "steps",
    "recovery_dev": "1",
}


def per_layer_units() -> dict:
    """name -> unit of every metric --trace 1 emits."""
    units = {"import.covacc_s": "s", "import.scipy_signal_s": "s"}
    for label in LABELS:
        units[f"{label}_s"] = "s"
        units[f"{label}.calls"] = "count"
    units.update({f"module.{module}_s": "s" for module in MODULES})
    units.update({
        "scenario.calibration_s": "s",
        "scenario.simulate_s": "s",
        "scenario.csv_bytes": "bytes",
        "detection.alarm_active_ratio": "1",
        "accommodation.reconstruct_input.ready_ratio": "1",
        "detection.detect_delay_steps": "steps",
        "accommodation.recovery_dev": "1",
        "trace.overhead_ratio": "1",
    })
    return units


@dataclasses.dataclass
class Scenario:
    path: Path
    config: covacc.ScenarioConfig
    reference: covacc.ScenarioTrace = None  # first warm run, the yardstick for every later output
    csv_digest: str = None                  # first CSV written, so reruns can be compared byte for byte

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def node_steps(self) -> int:
        return self.config.horizon * self.config.topology.n_nodes


class Ledger:
    """Counts operations and the ones whose outputs did not check out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @contextlib.contextmanager
    def operation(self, label: str):
        """Body appends problem strings to the yielded list; a raise is a failure too."""
        self.attempted += 1
        problems = []
        try:
            yield problems
        except Exception:  # keep measuring; the failure is counted and reported
            problems.append(traceback.format_exc(limit=4).strip())
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _scenario_documents(workload: str, seed: int) -> list:
    """(file name, bytes) of every scenario the workload runs, from the seed alone."""
    shipped = Path(covacc.__file__).parent / "scenarios"
    if workload == "bundled":
        # The shipped files as they are; the seed does not enter.
        names = ("five_node_fullrank", "five_node_lowrank")
        return [(f"{n}.json", (shipped / f"{n}.json").read_bytes()) for n in names]
    if workload == "lowrank_long":
        doc = json.loads((shipped / "five_node_lowrank.json").read_text())
        doc["horizon"] = LONG_HORIZON
        return [("five_node_lowrank_long.json", json.dumps(doc).encode())]
    return [(f"grid_seed{seed}.json", gen_grid.dumps(gen_grid.generate(seed)).encode())]


def prepare(workload: str, seed: int, work: Path, horizon: int = None) -> list:
    scenarios = []
    for filename, data in _scenario_documents(workload, seed):
        if horizon is not None:
            doc = json.loads(data)
            doc["horizon"] = horizon
            data = json.dumps(doc).encode()
        path = work / filename
        path.write_bytes(data)
        scenarios.append(Scenario(path=path, config=covacc.load_scenario(path)))
    return scenarios


@dataclasses.dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float
    start: float  # perf_counter() at the start and end of the child, as spawn.py saw them
    end: float


def _child(args: list, work: Path, host: "HostSpeed" = None) -> Child:
    """Run one fresh interpreter on covacc from source, through ``spawn.py``.

    With ``host``, reads the host's speed every READ_EVERY_S while the child runs."""
    env = dict(os.environ, PYTHONPATH=str(Path(covacc.__file__).parent.parent))
    out_path, err_path, report = work / "child.out", work / "child.err", work / "child.json"
    report.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(SPAWN), str(report), sys.executable, *args],
                                cwd=work, env=env, stdout=out, stderr=err, start_new_session=True)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(READ_EVERY_S)
                if host:
                    host.read()
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py exited with {proc.returncode}: {err_path.read_text()[-400:]}")
    done = json.loads(report.read_text())
    return Child(done["code"], out_path.read_text(), err_path.read_text(), done["wall_s"],
                 done["maxrss_kb"] / 1024.0, done["start"], done["end"])


def _cli_args(command: str, scenario: Scenario, out_csv: Path = None) -> list:
    args = [command, "--scenario", str(scenario.path)]
    return args if out_csv is None else args + ["--out", str(out_csv)]


class HostSpeed:
    """Reads how slow the host runs during a measurement, to scale it to a nominal speed.

    The shared host this benchmark was built on runs up to 1.7x slower for
    tens of seconds at a time, and flickers between a fast and a slow speed
    within a second.  CPU time follows wall time, so every timing moves with
    it.  A reference kernel of about 1 ms (small numpy products and Python
    loops like covacc's per-step work, none of covacc's code) is timed every
    READ_EVERY_S *during* each measurement, on the same CPU: by a timer
    signal inside warm calls, and by this process, which preempts the child
    it waits for, during fresh processes.  The median of those readings over
    REF_NOMINAL_S is the host's slowness during that measurement.  The time
    the readings themselves take is taken out of the measurement.
    """

    def __init__(self):
        self.readings = []  # (start, seconds)
        self._kernel()      # warm-up: first-call costs stay out of the readings

    @staticmethod
    def _kernel():
        a, b = np.eye(4) * 0.5, np.ones((4, 2))
        x, u = np.ones(4), np.ones(2)
        total, kept = 0.0, {}
        for i in range(REF_ITERATIONS):
            x = a @ x + b @ u
            total += float(np.abs(x).max())
            kept[i % 17] = [x, total]
            total += sum(j * j for j in range(8))
        return total

    def read(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._kernel()
        self.readings.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def sampling(self):
        """Read every READ_EVERY_S while the body runs in this process."""
        previous = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def during(self, start: float, end: float) -> list:
        """Durations of the readings taken between ``start`` and ``end``."""
        return [s for t, s in self.readings if start <= t < end]

    @staticmethod
    def slowness(readings: list) -> float:
        return statistics.median(readings) / REF_NOMINAL_S


# ---------------------------------------------------------------- output checks

def _decision_problems(config, decision_steps: dict) -> list:
    """The decision lands on the target only, within DETECT_WITHIN steps of onset."""
    target, onset = config.attack.target, config.attack.onset
    decided = {i: s for i, s in decision_steps.items() if s is not None}
    if set(decided) != {target}:
        return [f"decided on nodes {sorted(decided)}, expected node {target} only"]
    if not 0 <= decided[target] - onset <= DETECT_WITHIN:
        return [f"decision at step {decided[target]}, onset {onset}, limit {DETECT_WITHIN} steps"]
    return []


def _trace_problems(trace, reference) -> list:
    """A warm rerun agrees with the reference to VALUE_TOL on every logged field."""
    if trace.decision_steps != reference.decision_steps:
        return [f"decisions {trace.decision_steps} differ from {reference.decision_steps}"]
    if not np.allclose(_trace_matrix(trace), _trace_matrix(reference),
                       rtol=VALUE_TOL, atol=VALUE_TOL, equal_nan=True):
        return ["rerun values differ from the first run beyond tolerance"]
    return []


def _trace_matrix(trace) -> np.ndarray:
    """The trace laid out as the CSV body, NaN where the CSV pads a short vector."""
    per_node = []
    for i in trace.nodes:
        cols = []
        for column in trace.column_names():
            if column == "step":
                cols.append(np.arange(trace.horizon, dtype=float))
            elif column == "node":
                cols.append(np.full(trace.horizon, float(i)))
            else:
                field, index = re.fullmatch(r"(.*?)(\d*)", column).groups()
                values = np.asarray(trace.series(i, field), dtype=float)
                if not index:
                    cols.append(values)
                elif int(index) <= values.shape[1]:
                    cols.append(values[:, int(index) - 1])
                else:
                    cols.append(np.full(trace.horizon, np.nan))
        per_node.append(np.column_stack(cols))
    return np.stack(per_node, axis=1).reshape(trace.horizon * len(trace.nodes), -1)


def _csv_problems(scenario: Scenario, path: Path) -> list:
    """Checks every CSV written for a scenario: the first in full, reruns byte for byte."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if scenario.csv_digest is not None:
        return [] if digest == scenario.csv_digest else ["CSV bytes differ from the first run's"]
    scenario.csv_digest = digest
    ref = scenario.reference
    rows = list(csv.reader(io.StringIO(data.decode())))
    want_rows = ref.horizon * len(ref.nodes) + 1
    if len(rows) != want_rows:
        return [f"CSV has {len(rows)} rows, expected {want_rows}"]
    if rows[0] != ref.column_names():
        return ["CSV header differs from ScenarioTrace.column_names()"]
    empty = np.array([[cell == "" for cell in row] for row in rows[1:]])
    values = np.array([[float(cell) if cell else np.nan for cell in row] for row in rows[1:]])
    problems = []
    if not np.all(np.isfinite(values[~empty])):
        problems.append("CSV holds non-finite values")
    expected = _trace_matrix(ref)
    if not np.array_equal(empty, np.isnan(expected)):
        problems.append("CSV padding differs from the trace's vector sizes")
    elif not np.allclose(values[~empty], expected[~empty], rtol=VALUE_TOL, atol=VALUE_TOL):
        problems.append("CSV values differ from the warm run beyond tolerance")
    return problems


def _run_stdout_problems(scenario: Scenario, text: str, out_csv: Path) -> list:
    ref = scenario.reference
    lines = text.splitlines()
    want = f"{scenario.name}: wrote {scenario.node_steps} rows to {out_csv}"
    if not lines or lines[0] != want:
        return [f"unexpected first line {lines[:1]}"]
    decided = {int(i): int(s) for i, s in re.findall(r"^node (\d+) decided 'attacked' at step (\d+)$",
                                                     text, re.M)}
    if decided != {i: s for i, s in ref.decision_steps.items() if s is not None}:
        return [f"reported decisions {decided} differ from the warm run's"]
    return []


# ---------------------------------------------------------------- operations

def _warm_runs(scenario: Scenario, ledger: Ledger, samples: dict, host: HostSpeed = None) -> None:
    """Time covacc.run in this (warm) process for at least WARM_BATCH_S; the batch's
    node-steps per second is one sample, scaled by the host speed read during it."""
    steps = busy = 0.0
    during = []
    stop = time.perf_counter() + WARM_BATCH_S
    while time.perf_counter() < stop:
        with ledger.operation(f"warm run {scenario.name}") as problems:
            with host.sampling() if host else contextlib.nullcontext():
                start = time.perf_counter()
                trace = covacc.run(scenario.config)
                end = time.perf_counter()
            readings = host.during(start, end) if host else []
            during += readings
            busy += end - start - sum(readings)
            steps += scenario.node_steps
            if scenario.reference is None:
                scenario.reference = trace
                problems += _decision_problems(scenario.config, trace.decision_steps)
            else:
                problems += _trace_problems(trace, scenario.reference)
    if host and busy > 0:  # a batch whose every call raised has no sample; the ledger counts it
        _record(samples, "node_steps_per_s", steps / busy, host, during)


def _record(samples: dict, name: str, raw: float, host: HostSpeed, readings: list) -> None:
    """One sample, as measured and scaled to the nominal host speed."""
    if not readings:  # too short to be read during; read right after instead
        host.read()
        readings = [host.readings[-1][1]]
    slowness = host.slowness(readings)
    samples[f"{name}.raw"].append(raw)
    samples["slowness"].append(slowness)
    samples[name].append(raw * slowness if name == "node_steps_per_s" else raw / slowness)


def _timed_child(args: list, work: Path, host: HostSpeed) -> tuple:
    """A child and its wall time without the host-speed readings taken during it."""
    child = _child(args, work, host)
    readings = host.during(child.start, child.end)
    return child, child.wall_s - sum(readings), readings


def _designs_child(scenario: Scenario, work: Path, ledger: Ledger, samples: dict, host: HostSpeed) -> None:
    with ledger.operation(f"designs {scenario.name}") as problems:
        child, wall, readings = _timed_child(["-m", "covacc.cli", *_cli_args("designs", scenario)],
                                             work, host)
        _record(samples, "setup_s", wall, host, readings)
        lines = child.stdout.splitlines()
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr[-400:]}")
        elif lines[-1:] != ["all stable: yes"] or len(lines) != scenario.config.topology.n_nodes + 1:
            problems.append(f"unexpected designs output ending {lines[-1:]}")


def _run_child(scenario: Scenario, work: Path, ledger: Ledger, samples: dict, host: HostSpeed) -> None:
    out_csv = work / "trace.csv"
    with ledger.operation(f"cli run {scenario.name}") as problems:
        child, wall, readings = _timed_child(["-m", "covacc.cli", *_cli_args("run", scenario, out_csv)],
                                             work, host)
        _record(samples, "cli_s", wall, host, readings)
        samples["peak_rss_mb"].append(child.peak_rss_mb)
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr[-400:]}")
        elif scenario.reference is None:
            problems.append("no warm reference run to check against")
        else:
            problems += _run_stdout_problems(scenario, child.stdout, out_csv)
            problems += _csv_problems(scenario, out_csv)


def _cli_in_process(scenario: Scenario, work: Path, ledger: Ledger, tracer: Tracer = None):
    """covacc.cli.main in this process, optionally traced; returns (wall seconds, CSV bytes)."""
    out_csv = work / "trace.csv"
    with ledger.operation(f"in-process cli run {scenario.name}") as problems:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), (tracer or contextlib.nullcontext()):
            start = time.perf_counter()
            code = covacc_cli.main(_cli_args("run", scenario, out_csv))
            wall = time.perf_counter() - start
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            problems += _run_stdout_problems(scenario, captured.getvalue(), out_csv)
            problems += _csv_problems(scenario, out_csv)
        return wall, out_csv.stat().st_size
    return None


_IMPORT_METRICS = {"covacc": "import.covacc_s", "scipy.signal": "import.scipy_signal_s"}


def _import_probe(work: Path, ledger: Ledger) -> dict:
    """Cumulative import times from `python -X importtime -c "import covacc"`."""
    with ledger.operation("import probe") as problems:
        child = _child(["-X", "importtime", "-c", "import covacc"], work)
        found = {}
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in _IMPORT_METRICS:
                found[_IMPORT_METRICS[parts[2].strip()]] = int(parts[1]) / 1e6
        if child.code != 0 or len(found) != len(_IMPORT_METRICS):
            problems.append(f"exit code {child.code}, found {sorted(found)}")
        return found
    return {}


def _twin(scenario: Scenario, ledger: Ledger):
    """Attack-free twin: must decide nowhere.  Returns the network's final-state gap."""
    with ledger.operation(f"attack-free twin {scenario.name}") as problems:
        twin = covacc.run(dataclasses.replace(scenario.config, attack=None))
        decided = {i: s for i, s in twin.decision_steps.items() if s is not None}
        if decided:
            problems.append(f"attack-free twin decided at {decided}")
        ref = scenario.reference
        return max(float(np.max(np.abs(ref.series(i, "x")[-1] - twin.series(i, "x")[-1])))
                   for i in twin.nodes)
    return float("nan")


# ---------------------------------------------------------------- the two passes

def _untraced_pass(scenarios, work, seconds, ledger) -> dict:
    """Samples of every end-to-end metric, each timing scaled to the nominal host
    speed; also each timing as measured, under "<name>.raw", and the host's
    slowness during each sample.

    Cycles through warm runs, ``covacc run`` and ``covacc designs`` for each
    scenario.  After the first cycle it stops before the first measurement
    that, at its last duration, would end after ``seconds``."""
    samples = {name: [] for name in (*END_TO_END, *(f"{n}.raw" for n in TIMINGS), "slowness")}
    host = HostSpeed()
    steps = [step for scenario in scenarios for step in (
        lambda s=scenario: _warm_runs(s, ledger, samples, host),
        lambda s=scenario: _run_child(s, work, ledger, samples, host),
        lambda s=scenario: _designs_child(s, work, ledger, samples, host))]
    took = [None] * len(steps)
    start = time.perf_counter()
    done = 0
    while True:
        k = done % len(steps)
        began = time.perf_counter()
        if took[k] is not None and began - start + took[k] > seconds:
            break
        steps[k]()
        took[k] = time.perf_counter() - began
        done += 1
    samples["cycles"] = done / len(steps)
    samples["elapsed_s"] = time.perf_counter() - start
    return samples


def _another_round(rounds: int, start: float, seconds: float) -> bool:
    """At least MIN_ROUNDS; beyond that, whichever of stopping now or after one more
    round of average length ends nearer to ``seconds``."""
    if rounds < MIN_ROUNDS:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 < seconds


def _traced_pass(scenarios, work, seconds, ledger, spans_path: Path) -> dict:
    """Alternates untraced and traced in-process `covacc run`, then probes import times.

    Layer values are medians over rounds of per-round totals."""
    rounds = []
    start = time.perf_counter()
    last = None
    while _another_round(len(rounds), start, seconds):
        plain_wall = traced_wall = csv_bytes = 0.0
        layers = {}
        for scenario in scenarios:
            for traced in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
                tracer = Tracer() if traced else None
                wall, size = _cli_in_process(scenario, work, ledger, tracer) or (float("nan"), 0)
                if not traced:
                    plain_wall += wall
                    continue
                traced_wall += wall
                csv_bytes += size
                for key, value in tracer.summary().items():
                    layers[key] = layers.get(key, 0) + value
                last = tracer
        layers["scenario.csv_bytes"] = csv_bytes
        layers["trace.overhead_ratio"] = traced_wall / plain_wall
        rounds.append(layers)
    if last is not None:
        last.save(spans_path)
    values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    probes = [_import_probe(work, ledger) for _ in range(IMPORT_PROBES)]
    for key in _IMPORT_METRICS.values():
        values[key] = statistics.median([p[key] for p in probes if key in p] or [float("nan")])
    for ratio, label in (("detection.alarm_active_ratio", "detection.emit_alarm"),
                         ("accommodation.reconstruct_input.ready_ratio", "accommodation.reconstruct_input")):
        calls = values[f"{label}.calls"]
        values[ratio] = values[f"{label}.hits"] / calls if calls else 0.0
    values["rounds"] = len(rounds)
    return values


# ---------------------------------------------------------------- reporting

def _tail(values: list, higher_is_better: bool):
    """The worst-side percentile with at least ten samples beyond it, as (p, value), or None."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            q = 100 - p if higher_is_better else p
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _source_digest(root: Path) -> str:
    """Digest of the program's sources, which identifies it where git does not."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload: str, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),  # run.py pins the benchmark to one CPU
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "workload": workload,
        "seed": seed,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description="covacc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, default=None,
                        help="override every scenario's horizon (self-tests use a tiny one)")
    return parser.parse_args(argv)


def main(argv, root: Path) -> int:
    args = _parse(argv)
    src = (root / "src").resolve()
    if src not in Path(covacc.__file__).resolve().parents:
        print(f"bench: covacc imported from {covacc.__file__}, not from {src}", file=sys.stderr)
        return 2
    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    work = root / "bench" / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ledger = Ledger()
    try:
        scenarios = prepare(args.workload, args.seed, work, args.horizon)
        if args.trace:
            for scenario in scenarios:
                _warm_runs(scenario, ledger, {})  # untimed: sets the reference trace
            layers = _traced_pass(scenarios, work, args.seconds, ledger, out_dir / f"spans-{label}.npz")
        else:
            samples = _untraced_pass(scenarios, work, args.seconds, ledger)
        deviation = max((_twin(s, ledger) for s in scenarios if s.reference is not None),
                        default=float("nan"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A missing decision already failed its check; -1 marks it in the report.
    delay = max((s.reference.decision_steps[s.config.attack.target] - s.config.attack.onset
                 for s in scenarios
                 if s.reference is not None and s.reference.decision_steps[s.config.attack.target] is not None),
                default=-1)
    outcomes = {
        "fail_ratio": ledger.failed / ledger.attempted,
        "detect_delay_steps": delay,
        "recovery_dev": deviation,
    }
    report = {}
    if args.trace:
        values = {**layers, "detection.detect_delay_steps": delay, "accommodation.recovery_dev": deviation}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
        print(f"{label}: {layers['rounds']} traced rounds")
        for name, m in metrics.items():
            print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    else:
        # No samples only when every operation behind them failed; NaN marks it.
        metrics = {name: {"value": statistics.median(samples[name] or [float("nan")]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"{label}: {samples['cycles']:.3g} cycles in {samples['elapsed_s']:.1f} s")
        for name, m in metrics.items():
            n = len(samples[name])
            tail = _tail(samples[name], higher_is_better=name == "node_steps_per_s")
            spread = (f"p{tail[0]} {tail[1]:.6g}" if tail else
                      "no tail percentile: fewer than ten samples beyond any")
            report[name] = {**m, "samples": samples[name], "tail": tail}
            print(f"  {name:20s} {m['value']:.6g} {m['unit']}  (median of {n}; {spread})")
        for name in TIMINGS:
            raw = samples[f"{name}.raw"]
            value = statistics.median(raw or [float("nan")])
            report[f"{name}.raw"] = {"value": value, "unit": END_TO_END[name], "samples": raw}
            print(f"  {name + '.raw':20s} {value:.6g} {END_TO_END[name]}  "
                  "(as measured, not scaled to the nominal host speed)")
        slowness = samples["slowness"]
        value = statistics.median(slowness or [float("nan")])
        report["host_slowness"] = {"value": value, "unit": "1", "samples": slowness,
                                   "nominal_s": REF_NOMINAL_S}
        print(f"  {'host_slowness':20s} {value:.6g}  (median over samples of the "
              f"reference kernel's time during each, over {REF_NOMINAL_S} s)")
    for name, unit in OUTCOMES.items():
        report[name] = {"value": outcomes[name], "unit": unit}
        print(f"  {name:20s} {outcomes[name]:.6g} {unit}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    prov = provenance(root, args.workload, args.seed)
    print("provenance: " + json.dumps(prov))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    (out_dir / f"result-{label}.json").write_text(json.dumps(
        {**result, "report": report, "problems": ledger.problems, "provenance": prov,
         "seconds": args.seconds, "horizon_override": args.horizon}, indent=1) + "\n")
    print(json.dumps(result))
    return 0
