"""Network substrate: packets, links, paths, and interface profiles.

This package models what the paper's testbed provided with ``tc`` bandwidth
regulation over real WiFi/LTE interfaces:

* :class:`~repro.net.packet.Packet` -- the unit moved across links.
* :class:`~repro.net.link.Link` -- one direction of a regulated interface:
  a token-rate transmitter with serialization delay, fixed propagation
  delay, a finite drop-tail queue (this is what couples low bandwidth to
  high RTT, reproducing Table 2), and optional random loss.
* :class:`~repro.net.path.Path` -- a bidirectional forward/reverse link pair
  carrying one MPTCP subflow's traffic.
* :mod:`~repro.net.bandwidth` -- time-varying rate processes driving
  Section 5.3's random bandwidth-change scenarios.
* :mod:`~repro.net.profiles` -- factory functions for the paper's WiFi/LTE
  configurations and the in-the-wild path models of Section 6.

Each name is imported from its module.
"""
