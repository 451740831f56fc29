"""Turn a measured :class:`~perf_workloads.Window` into named metrics.

``end_to_end`` is what a caller of the replicated object sees, taken from
an untraced window.  ``per_layer`` reads the same window's trace-counter
deltas, the program's own invocation spans, and -- when the window ran on
a :class:`~perf_trace.TracedRuntime` -- the endpoint-boundary totals.  A
metric that does not apply to a workload (reads on an echo workload,
simulator events on sockets) is ``None``; so is a count whose trace
category the program no longer registers.
"""

from perf_workloads import SIM_EXACT_OPS, median, percentile

try:
    from repro.telemetry.events import is_registered
except ImportError:  # the registry moved: treat every category as live
    def is_registered(_name):
        return True

_SPAN_LAYERS = ("interception", "totem", "wire", "replication", "runtime")
_HANDLER_PORTS = ("totem", "tcp")


def _ordered(records):
    """Records of invocations that went through the total order."""
    return [r for r in records if r.ok and r.kind != "read"]


def end_to_end(workload, bench, window):
    records = window.records
    done = sorted((r for r in records if r.ok), key=lambda r: r.end)
    metrics = {}
    latencies = [r.end - r.start for r in _ordered(records)]
    for name, fraction in (("invoke_p50_ms", 0.5), ("invoke_p95_ms", 0.95)):
        value = percentile(latencies, fraction)
        metrics[name] = None if value is None else value * 1e3
    wall = window.wall_end - window.wall_start
    metrics["throughput_ops_s"] = len(done) / wall if wall > 0 else None
    metrics["cpu_ms_per_op"] = (
        (window.cpu_end - window.cpu_start) / len(done) * 1e3
        if done else None)
    quarter = len(done) // 4
    if quarter >= 2:
        first = done[quarter - 1].end - window.wall_start
        last = done[-1].end - done[-quarter - 1].end
        metrics["sustain_ratio"] = first / last if last > 0 else None
    else:
        metrics["sustain_ratio"] = None
    failed = sum(1 for r in records if not r.ok) + len(bench.problems)
    metrics["failed_share"] = failed / max(1, bench.attempted)

    reads = [r.end - r.start for r in records if r.ok and r.kind == "read"]
    metrics["read_p50_us"] = (
        percentile(reads, 0.5) * 1e6 if reads else None)
    gaps = window.extra.get("gaps")
    metrics["failover_gap_ms"] = median(gaps) * 1e3 if gaps else None
    if not workload.sockets and len(records) >= SIM_EXACT_OPS:
        virtual = [r.virt_end - r.virt_start for r in records[:SIM_EXACT_OPS]]
        metrics["virt_p50_us"] = percentile(virtual, 0.5) * 1e6
    else:
        metrics["virt_p50_us"] = None
    return metrics


def _counter(window, *categories):
    """Delta of the summed trace counters, or None if none is registered."""
    live = [c for c in categories if is_registered(c)]
    if not live:
        return None
    return sum(window.trace_end[c] - window.trace_start[c] for c in live)


def _per(count, base):
    return None if count is None or not base else count / base


def _prefixed(snapshot, prefixes):
    return sum(n for name, n in snapshot.items() if name.startswith(prefixes))


def trace_counts(window):
    """Deltas of ``runtime.trace.snapshot()`` over the counting interval."""
    ops = window.count_ops
    counted = window.records[:ops]
    writes = sum(1 for r in counted if r.kind == "write")
    reads = sum(1 for r in counted if r.kind == "read")
    sent_bytes = sum(
        window.trace_end.bytes(c) - window.trace_start.bytes(c)
        for c in ("net.send", "net.broadcast"))
    drops = (_prefixed(window.trace_end, ("net.drop.", "node.drop."))
             - _prefixed(window.trace_start, ("net.drop.", "node.drop.")))
    metrics = {
        "runtime.datagrams_per_op":
            _per(_counter(window, "net.send", "net.broadcast"), ops),
        "runtime.deliveries_per_op": _per(_counter(window, "net.deliver"), ops),
        "runtime.bytes_sent_per_op": _per(sent_bytes, ops),
        "runtime.drops": drops,
        "totem.delivered_per_op": _per(_counter(window, "totem.deliver"), ops),
        "totem.batches_per_op": _per(_counter(window, "totem.batch"), ops),
        "totem.token_retransmits": _counter(window, "totem.token.retransmit"),
        "totem.token_losses": _counter(window, "totem.token.lost"),
        "totem.gathers": _counter(window, "totem.gather"),
        "totem.installs": _counter(window, "totem.install"),
        "replication.executed_per_op":
            _per(_counter(window, "ft.op.executed"), ops),
        "replication.replies_sent_per_op":
            _per(_counter(window, "ft.reply.sent"), ops),
        "replication.replies_suppressed_per_op":
            _per(_counter(window, "ft.suppress.reply"), ops),
        "replication.request_retries": _counter(window, "ft.request.retry"),
        "replication.state_updates_per_write":
            _per(_counter(window, "ft.state.update.sent",
                          "ft.state.update.image.sent"), writes),
        "replication.read_local_share":
            _per(_counter(window, "read.local"), reads),
        "replication.read_fallbacks": _counter(window, "read.fallback"),
        "replication.failovers": _counter(window, "ft.failover"),
        "orb.invokes_per_op": _per(_counter(window, "orb.invoke"), ops),
        "orb.tcp_retransmits": _counter(window, "tcp.retransmit"),
    }
    if window.events_start is None:
        metrics["simnet.events_per_op"] = None
        metrics["simnet.events_per_wall_s"] = None
    else:
        events = window.events_end - window.events_start
        wall = window.trace_end_wall - window.wall_start
        metrics["simnet.events_per_op"] = _per(events, ops)
        metrics["simnet.events_per_wall_s"] = events / wall if wall > 0 else None
    return metrics


def invocation_spans(bench):
    """The program's own five-layer spans, as left in ``telemetry.spans``."""
    names = ["%s.span_p50_us" % layer for layer in _SPAN_LAYERS]
    names.append("telemetry.span_tiling_error_us")
    try:
        spans = bench.runtime.telemetry.spans.complete_spans()
        layers = {layer: [] for layer in _SPAN_LAYERS}
        error = 0.0
        for span in spans:
            parts = span.layers()
            for layer in _SPAN_LAYERS:
                layers[layer].append(parts[layer])
            error = max(error, abs(sum(parts.values()) - span.duration()))
    except (AttributeError, KeyError, TypeError):
        return dict.fromkeys(names)
    if not spans:
        return dict.fromkeys(names)
    metrics = {"%s.span_p50_us" % layer: percentile(values, 0.5) * 1e6
               for layer, values in layers.items()}
    metrics["telemetry.span_tiling_error_us"] = error * 1e6
    return metrics


def endpoint_boundary(bench, window):
    """Totals of the traced endpoint contract over the measured window."""
    tracer = bench.tracer
    ops = len([r for r in window.records if r.ok])
    wall = window.wall_end - window.wall_start

    def us_per_op(seconds):
        return seconds / ops * 1e6 if ops else None

    metrics = {
        "runtime.handler_us_per_op." + port:
            us_per_op(tracer.self_seconds("handler." + port))
        for port in _HANDLER_PORTS
    }
    other = sum(
        tracer.self_seconds(name) for name in tracer.names()
        if name.startswith("handler.")
        and name[len("handler."):] not in _HANDLER_PORTS)
    metrics["runtime.handler_us_per_op.other"] = us_per_op(other)
    metrics["runtime.send_us_per_op"] = us_per_op(tracer.seconds("send"))
    metrics["runtime.sends_per_op"] = _per(tracer.calls("send"), ops)
    metrics["runtime.timer_cb_us_per_op"] = us_per_op(
        tracer.self_seconds("timer"))
    metrics["runtime.timers_armed_per_op"] = _per(
        tracer.counts.get("timer.armed", 0), ops)
    metrics["runtime.timers_fired_per_op"] = _per(tracer.calls("timer"), ops)
    metrics["client.stub_us_per_op"] = us_per_op(
        tracer.self_seconds("client.stub"))
    metrics["runtime.loop_other_share"] = (
        max(0.0, 1.0 - tracer.top_level_s / wall) if wall > 0 else None)
    return metrics


def per_layer(bench, window):
    """Everything the traced window says about single layers."""
    metrics = trace_counts(window)
    metrics.update(invocation_spans(bench))
    metrics.update(endpoint_boundary(bench, window))
    latencies = [r.end - r.start for r in _ordered(window.records)]
    p99 = percentile(latencies, 0.99)
    metrics["client.invoke_p99_ms"] = None if p99 is None else p99 * 1e3
    lags = window.extra.get("lags")
    metrics["client.generator_lag_ms"] = (
        percentile(lags, 0.5) * 1e3 if lags else None)
    rejoins = window.extra.get("rejoins")
    metrics["state.rejoin_ms"] = median(rejoins) * 1e3 if rejoins else None
    return metrics
