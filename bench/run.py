"""covacc benchmark entry point.

Run from the root of a source checkout of covacc:

    python3 bench/run.py --workload grid_attacked --seed 0 --seconds 15 --trace 0

The program under test is ``src/covacc`` of that checkout, imported from
source by this process and by every child it starts.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/NOTES.md`` for the workloads and
metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    # Python salts string hashes per process unless told not to, which shifts
    # dict and set layouts and so the speed of the same code from run to run.
    # A fixed salt here and (through the environment) in every child.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "covacc" / "__init__.py").is_file():
        print(f"bench: no covacc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Pinned before numpy loads, here and (through the environment) in every child.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and (by inheritance) every child, so the
    # host-speed kernel and the program it scales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
