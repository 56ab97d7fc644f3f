"""MPTCP connection layer.

Glues subflows into one ordered byte stream, mirroring the Linux MPTCP 0.89
architecture the paper builds on:

* :class:`~repro.mptcp.connection.MptcpConnection` -- the meta-socket: a
  connection-level send buffer, DSN assignment through a pluggable path
  scheduler, connection-level send window, and the opportunistic
  retransmission + penalization mechanisms of Raiciu et al. (NSDI'12).
* :class:`~repro.mptcp.receiver.MptcpReceiver` -- the client-side reorder
  buffer that reassembles data sequence numbers into an in-order stream and
  measures the out-of-order delay every packet experiences (Figs 13/14/21/23).

Each name is imported from its module.
"""
