"""End-to-end benchmark of the artcluster CLI, from CSV in to JSON out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {tall,wide,simulate,inversion} \\
        --seed N --seconds S --trace {0,1}

The benchmark writes seeded inputs under ``.perfbench/<workload>/``,
computes the expected result fields with :mod:`oracle`, then:

``--trace 0``
    A closed loop with one client: one CLI subprocess at a time
    (``python -m artcluster.cli ...``), timed from spawn to exit, with
    each child's peak RSS from ``os.wait4``; ``inversion`` runs its
    calls in one fresh worker process.  Passes repeat until the next
    one would end after S seconds.  ``setup_s`` is the median time for
    a fresh interpreter to ``import artcluster.cli`` (10 samples, half
    before and half after the passes).
``--trace 1``
    In process: after one warm-up pass, untraced and traced passes
    alternate (at least two traced), the traced ones with
    :class:`tracer.Tracer` installed.  Reports per-layer self time and
    calls, computed counts, and the tracing overhead (traced minus
    untraced pass time).

Every report is checked against the expected fields exactly, and
repeated ops must give identical report bytes; a mismatch, nonzero exit
or crash is a failed op.  The second-to-last stdout line is a JSON
summary (environment, every end-to-end metric including the per-op
medians and ``failed_op_share``, pass counts, errors); the last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import workloads
from timing import ChildTimeout, keep_going, machine_probe, run_child, tail
from tracer import COMPUTED_COUNTS, LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 5  # per side: before and after the passes
OP_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2
MAX_ERRORS_SHOWN = 5


class Outcome:
    """Ops attempted and failed, and the times a run collected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.op_times: dict = {}
        self.pass_times: list = []
        self.peak_rss_mb = 0.0
        self._first: dict = {}

    def record(self, index: int, kind: str, seconds: float, result, error: str | None):
        """Count one op; ``result`` must repeat exactly from pass to pass."""
        self.attempted += 1
        self.op_times.setdefault(kind, []).append(seconds)
        if error is None and self._first.setdefault(index, result) != result:
            error = f"{kind}: output differs from the first pass"
        if error is not None:
            self.failed += 1
            self.errors.append(error)


# ------------------------------------------------------------------ #
# Untraced: one child process at a time
# ------------------------------------------------------------------ #


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def _stderr_tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-400:].strip()


def measure_setup(workdir: str) -> list:
    """Wall times of fresh interpreters importing ``artcluster.cli``."""
    samples = []
    out, err = os.path.join(workdir, "setup.out"), os.path.join(workdir, "setup.err")
    for _ in range(SETUP_SAMPLES):
        code, seconds, _ = run_child(
            sys.executable, [sys.executable, "-c", "import artcluster.cli"],
            _child_env(), out, err, OP_TIMEOUT_S,
        )
        if code != 0:
            raise RuntimeError(f"importing artcluster.cli failed: {_stderr_tail(err)}")
        samples.append(seconds)
    return samples


def run_cli_passes(ops: list, seconds: float, workdir: str, outcome: Outcome) -> None:
    out, err = os.path.join(workdir, "child.out"), os.path.join(workdir, "child.err")
    start = time.perf_counter()
    while keep_going(start, outcome.pass_times, seconds):
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            if os.path.exists(op.output):
                os.remove(op.output)
            argv = [sys.executable, "-m", "artcluster.cli", *op.args, "--output", op.output]
            code, elapsed, rss = run_child(sys.executable, argv, _child_env(), out, err,
                                           OP_TIMEOUT_S)
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss)
            text, error = None, None
            if code != 0:
                error = f"{op.kind}: exit code {code}: {_stderr_tail(err)}"
            else:
                with open(op.output, "rb") as fh:
                    text = fh.read()
                error = workloads.check_report(op, text)
            outcome.record(index, op.kind, elapsed, text, error)
        outcome.pass_times.append(time.perf_counter() - pass_start)


def run_inversion_worker(ops: list, seconds: float, workdir: str, outcome: Outcome) -> None:
    result_path = os.path.join(workdir, "worker.json")
    argv = [sys.executable, os.path.join(HERE, "inversion.py"),
            os.path.join(workdir, "instances.npz"), repr(seconds), result_path]
    err = os.path.join(workdir, "worker.err")
    code, _, rss = run_child(sys.executable, argv, _child_env(),
                             os.path.join(workdir, "worker.out"), err,
                             int(seconds) + OP_TIMEOUT_S)
    outcome.peak_rss_mb = rss
    if code != 0:
        outcome.attempted += len(ops)
        outcome.failed += len(ops)
        outcome.errors.append(f"inversion worker: exit code {code}: {_stderr_tail(err)}")
        return
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for call in result["calls"]:
        op = ops[call["instance"]]
        endpoints = (call["lower"], call["upper"])
        outcome.record(call["instance"], op.kind, call["seconds"], endpoints,
                       workloads.check_inversion(op, *endpoints))
    outcome.pass_times = result["pass_times"]


# ------------------------------------------------------------------ #
# Traced: in process, with wrappers around each layer
# ------------------------------------------------------------------ #


def _in_process_runner(workload: str, workdir: str):
    """A function running one op in this process: (result, error)."""
    import artcluster.cli  # noqa: F401  (imports every layer)

    if workload == "inversion":
        import inversion

        instances = inversion.load_instances(os.path.join(workdir, "instances.npz"))

        def run(op):
            endpoints = inversion.run_op(instances[op.args[0]])
            return endpoints, workloads.check_inversion(op, *endpoints)

        return run

    def run(op):
        if os.path.exists(op.output):
            os.remove(op.output)
        # looked up on each call, so a wrapper installed on cli.main is used
        code = sys.modules["artcluster.cli"].main([*op.args, "--output", op.output])
        if code != 0:
            return None, f"{op.kind}: exit code {code}"
        with open(op.output, "rb") as fh:
            text = fh.read()
        return text, workloads.check_report(op, text)

    return run


def _timed_pass(ops, run, outcome: Outcome) -> float:
    pass_start = time.perf_counter()
    for index, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result, error = run(op)
        except Exception:  # a crash is a failed op; keep measuring the rest
            result, error = None, f"{op.kind}: crashed: {traceback.format_exc(limit=3)}"
        outcome.record(index, op.kind, time.perf_counter() - t0, result, error)
    return time.perf_counter() - pass_start


def traced_run(workload: str, ops: list, seconds: float, workdir: str, outcome: Outcome):
    run = _in_process_runner(workload, workdir)
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    _timed_pass(ops, run, outcome)  # warm-up: lazy imports and first-touch memory
    start = time.perf_counter()
    pair_times: list = []
    while len(traced) < MIN_TRACED_PASSES or keep_going(start, pair_times, seconds):
        untraced.append(_timed_pass(ops, run, outcome))
        tracer.install()
        try:
            traced.append(_timed_pass(ops, run, outcome))
        finally:
            tracer.uninstall()
        layers.append(tracer.end_pass(keep_spans=not layers))
        pair_times.append(untraced[-1] + traced[-1])

    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"layers": LAYERS, "spans": layers[0].pop("spans")}, fh)
    first = layers[0]
    for other in layers[1:]:
        if other["calls"] != first["calls"] or other["counts"] != first["counts"]:
            outcome.errors.append("per-layer calls or computed counts differ between passes")
            break

    metrics = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = (statistics.median(p["self_s"][i] for p in layers), "s")
        metrics[f"{layer}.calls"] = (first["calls"][i], "count")
    for name, _ in COMPUTED_COUNTS.values():
        metrics[name] = (first["counts"][name], "count")
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    details = {
        "traced_passes": len(traced),
        "overhead_share": (traced_s - untraced_s) / untraced_s,
        "absent_layers": tracer.absent,
        "counts_unavailable": sorted(tracer.count_errors),
        "computed_counts": [name for name, _ in COMPUTED_COUNTS.values()],
        "top_layers_by_self_s": sorted(
            LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"][0]
        )[:3],
    }
    return metrics, details


# ------------------------------------------------------------------ #
# Reporting
# ------------------------------------------------------------------ #


def environment() -> dict:
    from artcluster import kernels

    # without backend_name() the numpy kernels are the only backend
    backend = getattr(kernels, "backend_name", lambda: "numpy")()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
    }


def untraced_run(workload: str, ops: list, seconds: float, workdir: str, outcome: Outcome):
    # setup and machine-speed samples on both sides of the passes, so that
    # they span the run rather than its first second
    probe = [machine_probe()]
    setup = measure_setup(workdir)
    if workload == "inversion":
        run_inversion_worker(ops, seconds, workdir, outcome)
    else:
        run_cli_passes(ops, seconds, workdir, outcome)
    setup += measure_setup(workdir)
    probe.append(machine_probe())
    tail_s, percentile, beyond = tail(outcome.pass_times)
    metrics = {
        "pass_s": (statistics.median(outcome.pass_times), "s"),
        "pass_tail_s": (tail_s, "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    # every end-to-end metric, including those BENCHMARK.json cannot gate
    # because only some workloads have them or they are 0 when all is well
    end_to_end = {
        **metrics,
        **{f"{kind}_s": (statistics.median(times), "s")
           for kind, times in outcome.op_times.items()},
        "failed_op_share": (outcome.failed / outcome.attempted, "share"),
    }
    details = {
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        "passes": len(outcome.pass_times),
        "pass_times_s": outcome.pass_times,
        "pass_tail": {"percentile": percentile, "passes_beyond": beyond},
        "setup_samples": len(setup),
        "machine_probe_s": probe,
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "artcluster", "cli.py")):
        print(f"perfbench: no artcluster package under {SRC}", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("ARTCLUSTER_")]:
        del os.environ[key]  # defaults only: the same seed gives the same run
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.PREPARE[args.workload](args.seed, workdir)

    outcome = Outcome()
    try:
        if args.trace:
            metrics, details = traced_run(args.workload, ops, args.seconds, workdir, outcome)
        else:
            metrics, details = untraced_run(args.workload, ops, args.seconds, workdir, outcome)
    except ChildTimeout:
        print(f"perfbench: an op ran longer than {OP_TIMEOUT_S} s", file=sys.stderr)
        return 1

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:MAX_ERRORS_SHOWN],
        **details,
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
