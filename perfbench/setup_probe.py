"""Set-up work that every CLI invocation pays, in a fresh interpreter.

Imports ``rcontinuity`` (which builds the operator catalog) and validates the
workload's experiment configs, then prints one JSON line with the in-process
timings.  ``run.py`` times the whole process from outside; under
``python -X importtime`` it also splits the import into catalog build and
the rest.

    python3 perfbench/setup_probe.py --workload modulus-sweep --seed 0
"""

import argparse
import json
import os
import sys
import time

t_start = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from rcontinuity import cli  # noqa: E402  (the timed import)

t_imported = time.perf_counter()

import jobs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    t0 = time.perf_counter()
    for job in jobs.WORKLOADS[args.workload]:
        if job.config is not None:
            cli.ExperimentConfig.from_dict(job.config(args.seed))
    validate_s = time.perf_counter() - t0
    print(json.dumps({"import_s": t_imported - t_start, "validate_s": validate_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
