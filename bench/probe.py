"""One set-up sample: import epochsim, build op 0's inputs, run it once.

    python3 bench/probe.py <workload> <seed>

run.py times this process from spawn to exit; it exits 1 if the op fails.
"""

import sys

from run import load_source


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    load_source()
    import workloads

    wl = workloads.WORKLOADS[workload]()
    checked = wl.check(wl.run(wl.inputs(seed, 0)))
    for problem in checked.problems:
        print(problem, file=sys.stderr)
    return 1 if checked.problems else 0


if __name__ == "__main__":
    sys.exit(main())
