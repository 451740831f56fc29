"""Three-tier state capture: application, ORB, and infrastructure state.

A key lesson of the paper is that transferring only the *application*
state is not enough to make a new replica consistent: the ORB's state
(outstanding request ids, last replies) and the replication
infrastructure's state (duplicate-suppression tables, operation counters)
must be captured too, or the new replica will re-execute or mis-number
operations after failover.

:class:`FullStateCapture` bundles the three tiers; the replication layer
produces and consumes them around every state transfer.
"""

from repro.orb.cdr import encode_value


class FullStateCapture:
    """The three state tiers captured together, with a consistency marker.

    ``position`` is the operation-log position at capture time, so replay
    after restore starts at exactly the right operation.
    """

    __slots__ = ("application", "orb", "infrastructure", "position")

    def __init__(self, application, orb, infrastructure, position):
        self.application = application
        self.orb = orb
        self.infrastructure = infrastructure
        self.position = position

    def as_value(self):
        """A marshalable representation (used to size / ship captures)."""
        return {
            "application": self.application,
            "orb": self.orb,
            "infrastructure": self.infrastructure,
            "position": self.position,
        }

    @classmethod
    def from_value(cls, value):
        return cls(
            value["application"],
            value["orb"],
            value["infrastructure"],
            value["position"],
        )

    def size_bytes(self):
        return len(encode_value(self.as_value()))

    def __repr__(self):
        return "FullStateCapture(pos=%d, %d bytes)" % (
            self.position, self.size_bytes(),
        )

