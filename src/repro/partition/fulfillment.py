"""Fulfillment operations: replaying secondary-component work at remerge."""


def divergent_operations(journal, their_completed):
    """Operations we completed that the primary component never saw.

    Args:
        journal: our ``(op id, request_bytes, client_group)`` entries in
            completion order -- the operation table's journal, which holds
            exactly the completed operations some host may still lack.
            Entries with no recorded request bytes cannot be replayed and
            are skipped.
        their_completed: the primary component's completed operations (any
            container answering ``in``), taken from the adopted capture's
            infrastructure state.

    Returns a list of (op_id, request_bytes, client_group) in the original
    completion order.  Fulfillment re-executions of earlier fulfillment
    operations are excluded (an op id starting with ``"f"`` is already a
    fulfillment op).
    """
    return [
        entry for entry in journal
        if entry[1] is not None
        and entry[0] not in their_completed
        and not (entry[0] and entry[0][0] == "f")
    ]


class FulfillmentPlan:
    """The reconciliation work a secondary-component replica must do.

    Built when a primary-component capture is adopted; consumed by the
    engine, which multicasts one fulfillment request per divergent
    operation (duplicate-suppressed across the secondary side's members,
    since every member derives the identical plan).
    """

    def __init__(self, group, divergent):
        self.group = group
        self.divergent = list(divergent)

    @property
    def empty(self):
        return not self.divergent

    def __len__(self):
        return len(self.divergent)

    def __iter__(self):
        return iter(self.divergent)

    def __repr__(self):
        return "FulfillmentPlan(%s, %d ops)" % (self.group, len(self.divergent))
