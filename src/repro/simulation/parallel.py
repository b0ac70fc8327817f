"""Compatibility alias for the retired stuck-at fault-simulation fan-out.

The process pool that once lived here never engaged on a shipped workload
(c432 is 0.3M fault x pattern units against a 48M crossover) and is gone;
stuck-at fault simulation runs in-process on
:class:`~repro.simulation.numpy_sim.NumpyFaultSimulator`.  The name stays
only for ``perfbench/layers.py``, which hooks ``ParallelFaultSimulator.run``
to time the pipeline's stuck-at stage: through this alias the hook wraps
``NumpyFaultSimulator.run``, which nothing else in the pipeline calls.
"""

from repro.simulation.numpy_sim import NumpyFaultSimulator

__all__ = ["ParallelFaultSimulator"]

ParallelFaultSimulator = NumpyFaultSimulator
