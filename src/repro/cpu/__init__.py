"""CPU substrate: scalar golden reference, optimized baseline, cost model.

``naive`` is an independent, loop-based implementation of every stage used to
cross-check the vectorized canonical implementations; :class:`CPUPipeline`
is the paper's "well-optimized CPU version" baseline, chaining the
:mod:`repro.algo.stages` functions; ``cost`` models its running time on the
Intel Core i5-3470 of Table I.
"""

from .pipeline import CPUPipeline

__all__ = ["CPUPipeline"]
