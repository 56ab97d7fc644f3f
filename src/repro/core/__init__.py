"""MPTCP path schedulers -- the paper's contribution and its baselines.

Every scheduler implements :class:`~repro.core.base.Scheduler`: given the
connection state, return the subflow that should carry the next segment, or
``None`` to wait for a better subflow to free up.

Provided schedulers (Section 5.1 of the paper):

* ``minrtt`` -- the MPTCP **default**: smallest-RTT subflow with CWND space.
* ``ecf`` -- **Earliest Completion First** (Algorithm 1), the contribution.
* ``blest`` -- BLEST (Ferlin et al., IFIP Networking 2016).
* ``daps`` -- DAPS (Kuhn et al., ICC 2014).
* ``roundrobin`` -- cycles over available subflows (extra baseline).
* ``mpdash`` -- MP-DASH's preferred-path-first scheduler (Section 7's
  contrast; driven by :class:`repro.apps.dash.mpdash.MpDashPathManager`).
"""

from repro.core.base import Scheduler
from repro.core.minrtt import MinRttScheduler
from repro.core.ecf import EcfScheduler
from repro.core.blest import BlestScheduler
from repro.core.daps import DapsScheduler
from repro.core.extras import MpDashScheduler, RoundRobinScheduler
from repro.core.registry import SCHEDULER_NAMES, register_scheduler, registered_schedulers
from repro.core.spec import CcSpec, SchedulerSpec, build

__all__ = [
    "Scheduler",
    "MinRttScheduler",
    "EcfScheduler",
    "BlestScheduler",
    "DapsScheduler",
    "RoundRobinScheduler",
    "MpDashScheduler",
    "SchedulerSpec",
    "CcSpec",
    "build",
    "SCHEDULER_NAMES",
    "register_scheduler",
    "registered_schedulers",
]
