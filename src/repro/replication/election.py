"""Deterministic primary election within an object group.

Group membership views are delivered in total order by the process-group
layer, so every member sees the same sequence of views; electing the
minimum member id therefore needs no extra protocol and never produces two
primaries within one connected component.  (Across partition components,
each component elects its own primary -- the paper's continued-operation
model -- and the partition module reconciles at remerge.)
"""


def choose_primary(members):
    """The primary replica's node id for a membership view (or None)."""
    members = sorted(members)
    return members[0] if members else None
