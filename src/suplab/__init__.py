"""suplab: a desk-scale memory-performance modeling lab.

Slowdown decomposition from stall-cycle counters, counter-based linear
slowdown prediction with an overlap (MLP) correction, microbenchmark-style
calibration, best-shot weighted-interleaving prediction, a promotion-rate
throttle for page tiering, and the synthetic device/workload model that
makes all of it testable without hardware.

The modules are the API: import what you need from ``suplab.counters``,
``suplab.tiersim`` and the rest; the package root re-exports nothing.
"""

__version__ = "0.1.0"
