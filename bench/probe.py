"""Set-up probe: import renyidpi, run a workload's warm-up scan, print "ready".

run.py starts this script in a fresh interpreter and times it from the
start of the process to the "ready" line; that interval is setup_s.

    python3 bench/probe.py <workload> <seed> <csv path>
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, load_program


def main(argv: list[str]) -> int:
    name, seed, path = argv
    cli = load_program()
    WORKLOADS[name].warm_up(cli, int(seed), Path(path))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
