"""Checks kept from the sharded event loop's suite.

The sharded loop is gone: every run goes through the single-heap
:class:`repro.sim.Simulation`. The clock contract its suite pinned
still holds there and is checked here under its old name.
"""

from repro.sim import Simulation


def test_run_until_keeps_clock_a_float():
    for horizon in (5, 20):    # stops on a later event / drains first
        sim = Simulation()
        sim.timeout(10.0)
        sim.run(until=horizon)
        assert type(sim.now) is float and sim.now == float(horizon)
