"""Seeded generator for the ``grid_attacked`` benchmark scenario.

A ``SIDE`` x ``SIDE`` grid of two-state nodes with four-neighbour coupling
in both directions, so in-degrees are 2 (corners), 3 (edges) and 4
(interior).  The seed varies each node's ``A`` and ``x0``, each directed
edge's coupling scale, the attacked interior node and its signal (constant
or sinusoid).  Same seed, same bytes.

    python3 bench/gen_grid.py --seed 3 --out grid.json
    python3 bench/gen_grid.py --held-out --out grid.json

``HELD_OUT_SEED`` was never used while the benchmark was built or tuned;
re-check a performance claim on it before trusting the claim.
"""

from __future__ import annotations

import argparse
import json
import random

HELD_OUT_SEED = 20070275

SIDE = 10
HORIZON = 200
ONSET = 20


def _u(rng: random.Random, lo: float, hi: float) -> float:
    # Six decimals keep the file short and the bytes independent of float repr quirks.
    return round(rng.uniform(lo, hi), 6)


def generate(seed: int) -> dict:
    """Scenario document for one seed, ready for ``covacc.load_scenario``."""
    rng = random.Random(seed)
    n_nodes = SIDE * SIDE

    def node(r: int, c: int) -> int:
        return r * SIDE + c + 1

    subsystems = []
    for idx in range(1, n_nodes + 1):
        subsystems.append({
            "index": idx,
            "A": [[_u(rng, 0.30, 0.45), _u(rng, 0.10, 0.30)], [0.0, _u(rng, 0.20, 0.40)]],
            "B": [[0.0], [1.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
            "x0": [_u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0)],
        })

    neighbors = {}
    edges = []
    for r in range(SIDE):
        for c in range(SIDE):
            i = node(r, c)
            inbound = [node(rr, cc) for rr, cc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
                       if 0 <= rr < SIDE and 0 <= cc < SIDE]
            neighbors[str(i)] = inbound
            for j in inbound:
                s = _u(rng, 0.5, 1.0)
                edges.append({"i": i, "j": j,
                              "matrix": [[round(0.1 * s, 6), 0.0], [0.0, round(-0.01 * s, 6)]]})

    target = node(rng.randrange(1, SIDE - 1), rng.randrange(1, SIDE - 1))
    if rng.random() < 0.5:
        signal = {"kind": "constant", "value": [_u(rng, 0.5, 1.5)]}
    else:
        signal = {"kind": "sinusoid", "amplitude": [_u(rng, 0.5, 1.5)],
                  "period": _u(rng, 20.0, 60.0), "phase": _u(rng, 0.5, 1.0)}

    return {
        "name": f"grid{SIDE}x{SIDE}_seed{seed}",
        "horizon": HORIZON,
        "control_spectral_radius": 0.5,
        "observer_spectral_radius": 0.2,
        "subsystems": subsystems,
        "topology": {"neighbors": neighbors, "coupling": {"edges": edges}},
        "attack": {"target": target, "onset": ONSET, "signal": signal},
        "thresholds": {"mode": "calibrate", "factor": 2.0, "floor": 1e-06, "window": [10, ONSET]},
    }


def dumps(doc: dict) -> str:
    """Canonical serialization: the bytes the benchmark hands to ``covacc``."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int)
    group.add_argument("--held-out", action="store_true", help=f"use seed {HELD_OUT_SEED}")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seed = HELD_OUT_SEED if args.held_out else args.seed
    with open(args.out, "w") as handle:
        handle.write(dumps(generate(seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
