"""The replication engine's shape, pinned.

Every envelope kind the engine defines is delivered through its one table
and documented, with the condition its gate holds it under, in
docs/PROTOCOL.md section 2; and no module of the package grows past the
size at which a protocol invariant stops being readable off one file.
"""

import os
import re

import pytest

from repro.replication import engine, reconciliation, requests, state_sync

PACKAGE = os.path.dirname(engine.__file__)
PROTOCOL = os.path.join(os.path.dirname(__file__), "..", "docs", "PROTOCOL.md")
MAX_LINES = 600

# The "waits while" column for each gate condition of the delivery table.
WAITS_COLUMN = {
    None: "—",
    engine.UNTIL_READY: "not ready",
    engine.UNTIL_RECONCILED: "not ready; merge-stalled",
}


def _envelope_kinds():
    return sorted({
        value
        for module in (engine, requests, state_sync, reconciliation)
        for name, value in vars(module).items()
        if name.isupper() and isinstance(value, str)
        and value.startswith("ft-")
    })


def _protocol_rows():
    """``{kind: waits-while cell}`` from the section 2 envelope table."""
    with open(PROTOCOL, encoding="utf-8") as handle:
        section = handle.read().split("\n## 2.")[1].split("\n## 3.")[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `(ft-[a-z-]+)[(`]", line)
        if match:
            rows[match.group(1)] = line.split(" | ")[2]
    return rows


def test_every_envelope_kind_is_delivered_through_the_table():
    kinds = _envelope_kinds()
    assert len(kinds) == 13
    assert sorted(engine._DELIVERY) == kinds


@pytest.mark.parametrize("kind", _envelope_kinds())
def test_every_envelope_kind_is_documented_with_its_gate(kind):
    rows = _protocol_rows()
    assert kind in rows, "%s missing from docs/PROTOCOL.md section 2" % kind
    waits = engine._DELIVERY[kind][2]
    assert rows[kind].split(" (")[0] == WAITS_COLUMN[waits]


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_no_replication_module_exceeds_the_size_ceiling(name):
    with open(os.path.join(PACKAGE, name), "rb") as handle:
        assert sum(1 for _ in handle) <= MAX_LINES


# Merge state is the one record ``replica.merge`` (reconciliation.Merge):
# no loose merge attribute may come back anywhere else.  The engine's
# ``merge_stall_timeout`` knob is configuration, not replica state.
LOOSE_MERGE_STATE = re.compile(
    r"\bawaiting_merge_capture\b|\.merge_(?!stall_timeout\b)\w+")


def test_merge_state_lives_in_one_record_owned_by_reconciliation():
    source = os.path.dirname(PACKAGE)
    offenders = []
    for folder, _dirs, files in os.walk(source):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or path == reconciliation.__file__:
                continue
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    if LOOSE_MERGE_STATE.search(line):
                        offenders.append("%s:%d: %s" % (
                            os.path.relpath(path, source), number,
                            line.strip()))
    assert offenders == []
