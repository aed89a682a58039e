"""Discrete-event simulation kernel (the raidSim substrate).

This package provides a compact, dependency-free event-driven simulator
in the style of simpy: an :class:`Environment` advances simulated time by
popping events from a heap, and *processes* are Python generators that
yield events (timeouts, other processes, conditions) to suspend until
they fire.

The kernel is the lowest layer of the reproduction: the disk model,
striping driver, workload generator, and reconstruction engine all run
as processes inside one :class:`Environment`.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env):
...     yield env.timeout(3.0)
...     log.append(env.now)
>>> _ = env.process(worker(env))
>>> env.run()
>>> log
[3.0]
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
]
