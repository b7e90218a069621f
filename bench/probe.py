"""One start of the benchmark's set-up: a fresh interpreter imports the
library, with the CLI module that imports every layer, and verifies one
warm-up set of a workload.  Exits 0 only if the set checks out.

Usage: python3 bench/probe.py WORKLOAD SEED PRIME
"""

import sys

from workloads import WARMUP, run_set, set_seed

import vreslab.cli  # noqa: F401  (its import cost is part of set-up)


def main(argv) -> int:
    workload, seed, prime = argv[0], int(argv[1]), int(argv[2])
    ok, _ = run_set(WARMUP[workload], set_seed(seed, workload, "warmup"), prime)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
