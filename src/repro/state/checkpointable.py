"""The Checkpointable interface: application state capture.

Eternal (and the FT-CORBA standard that followed it) requires replicated
objects to implement ``get_state`` / ``set_state`` so the infrastructure
can checkpoint a replica and initialize new or recovering replicas.  The
returned state must be a CDR-marshalable value (see :mod:`repro.orb.cdr`)
so its transfer cost is measurable on the simulated network.
"""


class Checkpointable:
    """Mixin declaring the state-capture contract for servants.

    Subclasses override both methods.  ``get_state`` must return a value
    that fully determines the servant's application state; ``set_state``
    must restore exactly that state.
    """

    def get_state(self):
        """Capture the servant's application state as a marshalable value."""
        raise NotImplementedError(
            "%s must implement get_state()" % type(self).__name__
        )

    def set_state(self, state):
        """Restore the servant's application state from a capture."""
        raise NotImplementedError(
            "%s must implement set_state()" % type(self).__name__
        )

