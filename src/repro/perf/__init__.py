"""Hot-path performance layer: deterministic counters and the sim-profiler.

:mod:`repro.perf.counters` aggregates per-run event/packet/decision
counters at zero hot-path cost; :mod:`repro.perf.profiler` attributes
host wall time to simulation components (structured report,
collapsed-stack/flamegraph output).  Both are subscribers on the probe seam
(:mod:`repro.sim.probe`): the transport core reports to the seam and
never imports this package.  The benchmark that reads them lives in
``bench/`` at the repo root (see ``bench/README.md``).
"""
