"""MPTCP path schedulers -- the paper's contribution and its baselines.

Every scheduler implements :class:`~repro.core.base.Scheduler`: given the
connection state, ``select`` returns the subflow that should carry the next
segment, or ``None`` to wait for a better subflow to free up, and
``next_segment`` the DSN range that subflow carries.

Provided schedulers (Section 5.1 of the paper):

* ``minrtt`` -- the MPTCP **default**: smallest-RTT subflow with CWND space.
* ``ecf`` -- **Earliest Completion First** (Algorithm 1), the contribution.
* ``blest`` -- BLEST (Ferlin et al., IFIP Networking 2016).
* ``daps`` -- DAPS (Kuhn et al., ICC 2014).
* ``mpdash`` -- MP-DASH's preferred-path-first scheduler (Section 7's
  contrast; driven by :class:`repro.apps.dash.mpdash.MpDashPathManager`).

Each name is imported from its module; :mod:`repro.core.spec` holds the
name -> class tables behind ``build(SchedulerSpec.of(...))`` and
``build(CcSpec.of(...))``.
"""
