"""The ``inversion`` workload's op: ``intervals.interval_by_inversion``.

Instances are read from the ``instances.npz`` that :mod:`workloads`
wrote and built (fits and sign group) before any timing.  Run as a
script, this module is the workload's fresh worker process::

    python inversion.py INSTANCES.npz SECONDS RESULT.json

It runs passes over all instances until the next pass would end after
SECONDS, then writes each call's wall time and endpoints to RESULT.json.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from workloads import INVERSION_ALPHA, INVERSION_INSTANCES, INVERSION_Q
from timing import keep_going


def load_instances(path: str) -> list:
    """(estimates, contrast, group) per instance, via public functions only."""
    from artcluster import canonicalize, enumerate_group, fit_per_cluster

    group = enumerate_group(INVERSION_Q)
    contrast = np.array([0.0, 1.0])
    with np.load(path, allow_pickle=False) as arrays:
        return [
            (
                fit_per_cluster(canonicalize(arrays[f"labels{k}"], arrays[f"y{k}"], arrays[f"Z{k}"])),
                contrast,
                group,
            )
            for k in range(INVERSION_INSTANCES)
        ]


def run_op(instance) -> tuple[float, float]:
    """Grid-inversion endpoints of one instance at the default grid."""
    from artcluster import intervals

    estimates, contrast, group = instance
    ci = intervals.interval_by_inversion(estimates, contrast, INVERSION_ALPHA, group)
    # str() is the documented endpoint form: a number, or "-inf"/"+inf"
    return float(str(ci.lower)), float(str(ci.upper))


def main(argv) -> int:
    instances_path, seconds, result_path = argv[0], float(argv[1]), argv[2]
    instances = load_instances(instances_path)
    calls = []
    pass_times: list = []
    start = time.perf_counter()
    while keep_going(start, pass_times, seconds):
        pass_start = time.perf_counter()
        for k, instance in enumerate(instances):
            t0 = time.perf_counter()
            lower, upper = run_op(instance)
            calls.append({"instance": k, "seconds": time.perf_counter() - t0,
                          "lower": lower, "upper": upper})
        pass_times.append(time.perf_counter() - pass_start)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "pass_times": pass_times}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
