import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

# make oracles.py importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def helper_pools(monkeypatch, tmp_path):
    """The noise helpers that ``scenario.walk_cubes`` starts, with two usable CPUs.

    ``walk_cubes`` is the one place that knows the helper: ``run_scenario``
    and ``stairdim simulate`` both take a walk's cubes from it.

    Each counts the draws submitted to it in ``submitted`` and lists the
    ``wait`` of each shutdown in ``waits``. No cgroup quota
    applies, and the calling thread never seems off CPU, so no slow walk
    holds a later helper back. A test that wants one CPU sets
    ``os.sched_getaffinity`` again.
    """
    from stairdim import scenario

    started = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submitted, self.waits = 0, []
            started.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

        def shutdown(self, wait=True, **kwargs):
            self.waits.append(wait)
            super().shutdown(wait, **kwargs)

    monkeypatch.setattr(scenario, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(scenario, "_CGROUP", tmp_path / "no-cgroup")
    monkeypatch.setattr(scenario, "_backoff", scenario._Backoff())
    monkeypatch.setattr(time, "thread_time", time.perf_counter)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return started
