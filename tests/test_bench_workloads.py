"""The benchmark's workloads still run on this program and pass their checks.

``decodebench/workloads.py`` builds each workload from the package's public
API, and ``decodebench/checks.py`` decides whether a run's output is right.
A change that breaks a name the workloads import, or that would make a
benchmark run report wrong output, fails here first.  Each workload's first
request at seed 0 runs once through the windowed and the ``c = 0`` path;
both modules are only imported, never changed.  A solo workload's windowed
request also leaves at most a tenth of its time outside the reported phases.
"""

from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "decodebench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(_BENCH))
        import checks
        import workloads

    return checks, workloads


@pytest.mark.parametrize("name", ["toy-long", "counting-long", "toy-batch"])
def test_the_first_request_of_each_workload_passes_its_checks(bench, name):
    checks, workloads = bench
    wl = workloads.WORKLOADS[name](0)
    request = wl.requests[0]
    par, ar = wl.parallel(request), wl.autoregressive(request)
    assert par.streams and len(par.streams) == len(ar.streams)
    for windowed, autoregressive in zip(par.streams, ar.streams):
        assert checks.lossless(windowed, autoregressive) is None
    assert wl.check(request, par, ar) == []
    # The program's phases cover its loop: what the benchmark reports as
    # engine.untimed_s (wall_s minus the phases) is set-up alone.
    if wl.solo:
        assert par.untimed_s <= 0.1 * par.wall_s, (par.untimed_s, par.wall_s)
