"""Command line front end.

Three subcommands: ``run`` simulates a scenario and writes the CSV trace,
``validate`` loads and checks a scenario file, ``designs`` synthesizes all
gains and prints their stability margins without simulating.

Scenario arguments take either a file path or the name of a bundled
scenario.  Errors print as ``<category>: <message>`` on standard error and
map to exit codes: 2 configuration, 3 synthesis, 4 runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, CovaccError
from .numerics import spectral_radius
from .scenario import (
    ScenarioConfig,
    ThresholdPolicy,
    build_designs,
    default_calibration_window,
    load_scenario,
    run,
)


def bundled_scenarios() -> list:
    """Names of the scenarios shipped inside the package."""
    root = resources.files("covacc") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _load(token: str) -> ScenarioConfig:
    path = Path(token)
    if path.exists():
        return load_scenario(path)
    candidate = resources.files("covacc") / "scenarios" / f"{token}.json"
    if candidate.is_file():
        doc = json.loads(candidate.read_text())
        return load_scenario(doc)
    raise ConfigurationError(
        f"scenario {token!r} is neither a file nor a bundled name "
        f"(bundled: {', '.join(bundled_scenarios())})"
    )


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "horizon", None) is not None:
        if args.horizon < 1:
            raise ConfigurationError(f"--horizon: must be at least 1, got {args.horizon}")
        if config.attack is not None and config.attack.onset >= args.horizon:
            raise ConfigurationError(
                f"--horizon {args.horizon} does not leave room for the attack onset "
                f"{config.attack.onset}"
            )
        config = replace(config, horizon=args.horizon)
    if getattr(args, "calibrate", False) and config.thresholds.values is not None:
        window = default_calibration_window(config.attack, config.horizon)
        config = replace(config, thresholds=ThresholdPolicy(window=window))
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(_load(args.scenario), args)
    trace = run(config)
    try:
        trace.to_csv(args.out)
    except OSError as exc:
        raise ConfigurationError(f"--out: cannot write {args.out}: {exc.strerror}") from exc
    rows = trace.horizon * len(trace.nodes)
    print(f"{config.name}: wrote {rows} rows to {args.out}")
    decided = {i: s for i, s in trace.decision_steps.items() if s is not None}
    if decided:
        for i, s in sorted(decided.items()):
            print(f"node {i} decided 'attacked' at step {s}")
    else:
        print("no node decided 'attacked'")
    return 0


def _cmd_validate(args) -> int:
    config = _load(args.scenario)
    parts = [
        f"{config.topology.n_nodes} nodes",
        f"horizon {config.horizon}",
        "thresholds " + ("calibrate" if config.thresholds.values is None else "explicit"),
    ]
    if config.attack is not None:
        parts.append(f"attack on node {config.attack.target} at step {config.attack.onset}")
    else:
        parts.append("no attack")
    print(f"ok: {config.name}: " + ", ".join(parts))
    return 0


def _cmd_designs(args) -> int:
    config = _load(args.scenario)
    designs = build_designs(config)
    all_stable = True
    for i in sorted(designs):
        d = designs[i]
        sub = config.subsystems[i]
        r_loc = spectral_radius(d.uio.F)
        r_coop = spectral_radius(d.coop_transition)
        r_ctrl = spectral_radius(sub.A + sub.B @ d.feedback_gain)
        all_stable = all_stable and max(r_loc, r_coop, r_ctrl) < 1.0
        line = (
            f"node {i}: decoupled observer radius {r_loc:.6g}, "
            f"cooperative observer radius {r_coop:.6g}, closed loop radius {r_ctrl:.6g}"
        )
        if d.ls is not None:
            line += (
                f"; accommodation regime {d.ls.regime}, hidden directions "
                f"{d.ls.projection.kernel_dim}, window {d.recon.window}, "
                f"input delay {d.recon.output_delay + 1}"
            )
        print(line)
    print(f"all stable: {'yes' if all_stable else 'NO'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covacc",
        description="Simulate covert injection attacks on networked linear systems "
        "and the observer-based detection and accommodation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write the CSV trace")
    p_run.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--horizon", type=int, default=None, help="override the horizon")
    p_run.add_argument(
        "--calibrate",
        action="store_true",
        help="force threshold calibration even if the file fixes explicit values",
    )
    p_run.set_defaults(handler=_cmd_run)

    p_val = sub.add_parser("validate", help="load and check a scenario file")
    p_val.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p_val.set_defaults(handler=_cmd_validate)

    p_des = sub.add_parser("designs", help="synthesize all gains and print their margins")
    p_des.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p_des.set_defaults(handler=_cmd_designs)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CovaccError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
