"""Benchmark-owned tracing at the runtime's Endpoint boundary.

The protocol cores are sans-I/O: everything they do starts in a ``bind``
handler or a ``timer`` callback and leaves through ``send``/``broadcast``
or a new ``timer``.  :class:`TracedRuntime` wraps the endpoints a real
runtime's ``add_node`` returns, so that contract is timed from outside,
without a line of instrumentation in ``src/``.  The timed (end-to-end)
runs never construct it; only the ``--trace 1`` pass does, and the
difference between the two passes is reported as the tracing overhead.

Everything runs on one thread and one event loop, so one span stack is
enough: a handler's *self* time is its duration minus the sends nested
inside it.
"""

import json
import time

from repro.runtime import Endpoint, Runtime

_clock = time.perf_counter

#: Spans kept for the dump; the totals keep counting past it.
SPAN_LIMIT = 100_000


class Tracer:
    """Span list plus per-name totals for one traced pass."""

    def __init__(self):
        self.enabled = False
        self.spans = []       # [name, node, start, end, parent index]
        self.dropped = 0
        self.totals = {}      # name -> [calls, seconds, self seconds]
        self.counts = {}      # name -> events that have no duration
        self.top_level_s = 0.0
        self._stack = []      # open frames: [span index, child seconds]

    def count(self, name):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + 1

    def call(self, name, node, function, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        if not self.enabled:
            return function(*args, **kwargs)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if len(self.spans) < SPAN_LIMIT:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [index if index >= 0 else parent, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            return function(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            elapsed = end - start
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += elapsed
            total[2] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            else:
                self.top_level_s += elapsed
            if index >= 0:
                self.spans[index] = [name, node, start, end, parent]

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def names(self):
        return sorted(self.totals)

    def dump(self, path, meta):
        """Write the retained spans as JSON lines (header line first)."""
        with open(path, "w") as out:
            header = dict(meta, spans=len(self.spans), dropped=self.dropped,
                          columns=["name", "node", "start", "end", "parent"])
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")


class TracedEndpoint(Endpoint):
    """An :class:`Endpoint` that times the contract and forwards the rest."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        # Runtime-specific extras (``address``, ``node``, ...) pass through.
        return getattr(self._inner, name)

    # -- identity and the hot untimed calls; the cold rest of the contract
    # (incarnation, rng, on_crash, on_recover, crash, recover, unbind)
    # reaches the wrapped endpoint through __getattr__ ------------------

    @property
    def node_id(self):
        return self._inner.node_id

    @property
    def alive(self):
        return self._inner.alive

    @property
    def now(self):
        return self._inner.now

    @property
    def telemetry(self):
        return self._inner.telemetry

    def emit(self, category, detail=None, size=0):
        self._inner.emit(category, detail, size)

    # -- the timed part of the contract ---------------------------------

    def bind(self, port, handler):
        tracer, node, name = self._tracer, self.node_id, "handler." + port

        def traced_handler(src, payload, size):
            return tracer.call(name, node, handler, src, payload, size)

        self._inner.bind(port, traced_handler)

    def timer(self, delay, callback, label=""):
        tracer, node = self._tracer, self.node_id
        tracer.count("timer.armed")

        def traced_callback():
            return tracer.call("timer", node, callback)

        return self._inner.timer(delay, traced_callback, label)

    def send(self, dst, port, data, size=None):
        return self._tracer.call("send", self.node_id, self._inner.send,
                                 dst, port, data, size=size)

    def broadcast(self, port, data, size=None, include_self=True):
        return self._tracer.call("send", self.node_id, self._inner.broadcast,
                                 port, data, size=size,
                                 include_self=include_self)


class TracedRuntime(Runtime):
    """A :class:`Runtime` whose ``add_node`` hands out traced endpoints."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self._endpoints = {}

    def __getattr__(self, name):
        # Everything this class does not change -- ``now``, ``run_for``,
        # ``wait_for``, ``alive``, ``crash``, ``sim``/``net``/``loop`` --
        # belongs to the wrapped runtime; absent names must stay absent
        # (EternalSystem probes them with getattr(..., None)).
        return getattr(self._inner, name)

    @property
    def trace(self):
        return self._inner.trace

    @property
    def telemetry(self):
        return self._inner.telemetry

    def add_node(self, node_id, *args, **kwargs):
        endpoint = TracedEndpoint(
            self._inner.add_node(node_id, *args, **kwargs), self._tracer)
        self._endpoints[node_id] = endpoint
        return endpoint

    def endpoint(self, node_id):
        endpoint = self._endpoints.get(node_id)
        if endpoint is None:
            endpoint = self._endpoints[node_id] = TracedEndpoint(
                self._inner.endpoint(node_id), self._tracer)
        return endpoint

    def emit(self, category, detail=None, size=0):
        self._inner.emit(category, detail, size)

    def close(self):
        self._inner.close()
