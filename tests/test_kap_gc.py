"""``run_kap`` pauses the cyclic collector for set-up and drain, and
always leaves it as it found it.

The pause (``repro.sim.kernel.paused_gc``) disables and freezes the
collector; whatever happens inside -- a normal run, a set-up that
raises, a drain that exhausts its ``max_events`` budget -- the
collector must come back enabled exactly when it was enabled before,
with nothing left frozen.
"""

import gc

import pytest

from repro.kap import KapConfig, driver, run_kap
from repro.sim.kernel import SimulationError

CFG = KapConfig(nnodes=4, procs_per_node=2, value_size=32, seed=1)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Run the test with the collector enabled, then disabled; restore
    the session's state afterwards."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


def _assert_restored(enabled):
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0


def test_normal_run_restores_collector(collector):
    res = run_kap(CFG)
    assert res.events > 0
    _assert_restored(collector)


def test_setup_failure_restores_collector(collector, monkeypatch):
    during = []

    def broken_cluster(*_args, **_kwargs):
        during.append(gc.isenabled())
        raise RuntimeError("set-up failed")

    monkeypatch.setattr(driver, "make_cluster", broken_cluster)
    with pytest.raises(RuntimeError, match="set-up failed"):
        run_kap(CFG)
    # Set-up runs under the pause.
    assert during == [False]
    _assert_restored(collector)


def test_event_budget_restores_collector(collector):
    with pytest.raises(SimulationError, match="event budget"):
        run_kap(CFG, max_events=50)
    _assert_restored(collector)
