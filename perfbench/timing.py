"""Run-length rule, tail percentile and child-process timing."""

from __future__ import annotations

import os
import signal
import statistics
import time

TAIL_BEYOND = 10


def keep_going(start: float, pass_times: list, seconds: float) -> bool:
    """Start another pass only while it is expected to end within ``seconds``."""
    if not pass_times:
        return True
    return time.perf_counter() - start + statistics.median(pass_times) <= seconds


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, count beyond) of the highest percentile that has
    at least ``TAIL_BEYOND`` samples beyond it.

    With ``TAIL_BEYOND`` samples or fewer no percentile qualifies; the
    smallest sample, which has the most beyond it, is returned.  This is
    what the rule gives at ``TAIL_BEYOND + 1`` samples, so the value does
    not jump when a slower machine fits fewer passes into a run.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def machine_probe(samples: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the machine was.

    Reported beside the metrics, never folded into them, so that a run
    measured while other tenants loaded the host can be recognised.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(executable: str, argv: list, env: dict, stdout: str, stderr: str,
              timeout: int) -> tuple[int, float, float]:
    """Spawn one process and wait for it.

    Returns (exit code, wall seconds from spawn to exit, peak RSS in MB
    from ``os.wait4``).  stdin is closed and stdout/stderr go to files.
    A child still running after ``timeout`` seconds is killed and
    :class:`ChildTimeout` raised.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(executable, argv, env, file_actions=actions)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except ChildTimeout:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0
