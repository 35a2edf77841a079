"""Set-up probe: a fresh interpreter imports numpy and the toolkit, builds the
first round of a workload's inputs, prints ``ready`` and exits.

    python3 bench/setup_probe.py <workload> <seed>

``run.py`` times several of these for ``setup_s``.
"""

import os
import sys

from run import prepare


def main(workload: str, seed: int) -> int:
    prepare()
    import numpy as np

    import workloads

    # the store is only opened when a job runs
    workloads.round_jobs(workload, np.random.SeedSequence(seed), 0, workloads.Context(os.devnull))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
