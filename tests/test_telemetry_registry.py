"""Registry lint: every emit/span call site uses a registered name, and
every registered name still has a call site.

Walks the source tree statically so a misspelled or unregistered
category fails CI even if no test exercises the emitting code path.
"""

import os
import re

import pytest

from repro.telemetry import events

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

# \s* matches newlines, so multi-line emit( ... "category" calls match too.
_EMIT_RE = re.compile(r'\.emit\(\s*"([^"]+)"')
_ON_COUNT_RE = re.compile(r'on_count\(\s*"([^"]+)"')
_SPAN_MARK_RE = re.compile(r'span_mark\(\s*[^,]+,\s*"(\w+)"')


def _source_files():
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _expand_dynamic(category):
    """Expand the known %-interpolated category patterns."""
    if category == "tcp.segment.%s":
        from repro.orb import transport

        return ["tcp.segment.%s" % name
                for name in transport._SEGMENT_NAMES.values()]
    return [category]


def _collect(regex):
    found = []
    for path in _source_files():
        with open(path) as handle:
            text = handle.read()
        for match in regex.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((os.path.relpath(path, SRC_ROOT), line, match.group(1)))
    return found


def test_every_emit_call_site_is_registered():
    sites = _collect(_EMIT_RE)
    assert sites, "expected to find emit() call sites under src/"
    unregistered = [
        (path, line, category)
        for path, line, raw in sites
        for category in _expand_dynamic(raw)
        if not events.is_registered(category)
    ]
    assert not unregistered, (
        "emit() call sites using categories missing from "
        "repro.telemetry.events: %r" % (unregistered,))


def test_every_on_count_literal_is_registered():
    sites = _collect(_ON_COUNT_RE)
    assert sites, "expected duplicate-table on_count call sites"
    unregistered = [site for site in sites if not events.is_registered(site[2])]
    assert not unregistered


def test_every_span_mark_point_is_declared():
    sites = _collect(_SPAN_MARK_RE)
    assert sites, "expected span_mark call sites under src/"
    unknown = [site for site in sites if site[2] not in events.SPAN_POINTS]
    assert not unknown


def test_every_registered_category_is_still_emitted_somewhere():
    """The other direction: a category whose last emitter was deleted
    leaves the registry too."""
    registry = os.path.join(SRC_ROOT, "repro", "telemetry", "events.py")
    text = ""
    for path in _source_files():
        if os.path.abspath(path) != os.path.abspath(registry):
            with open(path) as handle:
                text += handle.read()
    dynamic = set(_expand_dynamic("tcp.segment.%s"))
    orphans = [category for category in events.registered_categories()
               if '"%s"' % category not in text and category not in dynamic]
    assert not orphans, (
        "registered categories nothing under src/ emits: %r" % (orphans,))


def test_validate_accepts_registered_emissions():
    events.validate("totem.deliver", {"node": "n1", "seq": 3})
    events.validate("net.merge")  # no detail at all is always fine


def test_validate_rejects_unregistered_category():
    with pytest.raises(KeyError):
        events.validate("totem.delivr", {"node": "n1"})


def test_validate_rejects_undeclared_detail_keys():
    with pytest.raises(ValueError):
        events.validate("totem.deliver", {"node": "n1", "sequence": 3})


def test_registration_is_idempotent_but_checks_keys():
    events.register_category("totem.deliver", ("node", "seq", "ring_id"))
    with pytest.raises(ValueError):
        events.register_category("totem.deliver", ("node",))
