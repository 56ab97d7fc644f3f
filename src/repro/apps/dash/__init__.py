"""DASH adaptive video streaming (Section 2.2 of the paper).

* :mod:`~repro.apps.dash.media` -- the six-representation video of Table 1
  and chunk-size arithmetic.
* :mod:`~repro.apps.dash.abr` -- adaptive bit-rate algorithms: the
  buffer-based BBA of Huang et al. (the paper's "state-of-art ABR [12]"),
  a throughput-EWMA ABR, and a fixed-rate ABR for calibration.
* :mod:`~repro.apps.dash.player` -- the client player: initial buffering,
  steady-state ON-OFF chunk fetching, and rebuffering, the traffic pattern
  whose OFF periods trigger the idle CWND resets at the heart of the paper.

Each name is imported from its module.
"""
