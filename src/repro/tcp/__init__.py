"""Per-subflow TCP machinery.

This package implements the sender-side TCP behaviour each MPTCP subflow
needs, at packet granularity:

* :class:`~repro.tcp.rtt.RttEstimator` -- RFC 6298 SRTT/RTTVAR/RTO plus the
  windowed RTT standard deviation ECF's ``delta`` margin uses.
* :mod:`~repro.tcp.cc` -- congestion controllers: per-subflow Reno, and the
  coupled MPTCP controllers LIA ("coupled", RFC 6356) and OLIA.
* :class:`~repro.tcp.subflow.Subflow` -- send window, per-segment selective
  acknowledgement, dupack fast retransmit, RTO with exponential backoff,
  and the RFC 5681/2861 idle congestion-window reset that Section 3.2 of
  the paper identifies as the root cause of fast-path under-utilization.

Each name is imported from its module.
"""
