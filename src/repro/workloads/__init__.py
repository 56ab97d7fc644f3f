"""Workload generators: Web pages, file matrices, bandwidth scenarios.

Each name is imported from its module: :mod:`repro.workloads.web` and
:mod:`repro.workloads.scenarios`.
"""
