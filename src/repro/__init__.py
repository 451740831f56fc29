"""repro: an Eternal-style fault-tolerant CORBA system.

Reproduction of "Lessons Learned in Building a Fault-Tolerant CORBA
System" (DSN 2002).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the reproduced evaluation.

Quick tour of the layers (bottom-up):

- :mod:`repro.simnet` -- deterministic discrete-event network simulator;
- :mod:`repro.totem` -- Totem-style totally-ordered group communication
  with extended virtual synchrony;
- :mod:`repro.orb` -- a from-scratch mini-CORBA ORB (CDR, GIOP, IORs,
  POA, stubs);
- :mod:`repro.replication` -- the Eternal replication mechanisms (the
  paper's contribution), including the GIOP interception point (the
  engine's ``GroupRouter``, which replaces the ORB's router);
- :mod:`repro.state`, :mod:`repro.determinism`,
  :mod:`repro.faultdetect`, :mod:`repro.gateway` -- supporting
  mechanisms;
- :mod:`repro.core` -- the :class:`~repro.core.EternalSystem` facade;
- :mod:`repro.workloads`, :mod:`repro.bench` -- experiment support.
"""

__version__ = "1.0.0"

from repro.core import EternalSystem
from repro.replication import GroupPolicy, ReplicationStyle

__all__ = ["EternalSystem", "GroupPolicy", "ReplicationStyle", "__version__"]
