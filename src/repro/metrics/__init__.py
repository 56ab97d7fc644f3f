"""Measurement utilities: distribution statistics and the periodic sampler.

Result wire formats live with the result types (``to_dict``/``from_dict``
on each ``*Result``).  Each name is imported from its module: :mod:`repro.metrics.stats` and
:mod:`repro.metrics.collectors`.
"""
