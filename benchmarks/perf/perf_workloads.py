"""The six benchmark workloads and the passes that measure them.

Topology everywhere: nodes ``s1 s2 s3`` host the object group, node
``client`` invokes it (``kv_rw_rt`` invokes from the leader ``s1``, where
leased reads are served).  All nodes share one process and one event
loop.  Nothing here sets a Totem, runtime or policy *performance* knob:
sockets run ``TotemConfig.realtime()``, the simulator ``TotemConfig()``.

Latency is taken with ``time.perf_counter()`` from just before the stub
call to the Future's done-callback (or straight after the call when the
future is already resolved, as local reads are) -- never around
``wait_for``, whose polling step would quantize it.
"""

import random
import time

from repro import EternalSystem, GroupPolicy, ReplicationStyle
from repro.replication import ReadConsistency, ReadOptions
from repro.runtime import AsyncioRuntime, SimRuntime
from repro.totem import TotemConfig
from repro.workloads import Counter, EchoServer, KeyValueStore

from perf_trace import TracedRuntime, Tracer

_clock = time.perf_counter

REPLICAS = ["s1", "s2", "s3"]
CLIENT = "client"
GROUP = "bench"

#: An invocation outstanding this long (runtime seconds) counts as failed.
OP_TIMEOUT = 5.0

#: ``echo_sim`` takes its per-op counts and virtual latency over exactly
#: this many measured ops, so they do not depend on how many ops the
#: machine fits into the wall-clock window.
SIM_EXACT_OPS = 400


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------

def percentile(values, fraction):
    """Linear-interpolated percentile of an unsorted sequence (None if empty)."""
    if not values:
        return None
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------

class Record:
    """One finished (or timed-out) invocation."""

    __slots__ = ("kind", "start", "end", "ok", "virt_start", "virt_end")

    def __init__(self, kind, start, end, ok, virt_start, virt_end):
        self.kind = kind
        self.start = start
        self.end = end
        self.ok = ok
        self.virt_start = virt_start
        self.virt_end = virt_end


class ClosedLoop:
    """``clients`` callers, each sending its next request when the last returned.

    ``next_op(index)`` returns ``(kind, invoke, check)``: ``invoke()``
    makes the stub call and returns its Future, ``check(result)`` says
    whether the reply is the right one.  The loop ends after ``max_ops``
    requests or at the wall-clock ``deadline``, whichever is given.
    """

    def __init__(self, runtime, clients, next_op, call=None, max_ops=None,
                 deadline=None, marks=None):
        self.runtime = runtime
        self.next_op = next_op
        self.call = call or (lambda invoke: invoke())
        self.max_ops = max_ops
        self.deadline = deadline
        self.marks = marks or {}      # completed-op count -> callback()
        self.records = []
        self.issued = 0
        self._pending = [None] * clients
        self._tokens = [0] * clients
        self._retired = 0

    @property
    def finished(self):
        return self._retired == len(self._pending)

    def start(self):
        for client in range(len(self._pending)):
            self._pump(client)
        return self

    def _exhausted(self):
        if self.max_ops is not None and self.issued >= self.max_ops:
            return True
        return self.deadline is not None and _clock() >= self.deadline

    def _pump(self, client):
        # A loop, not recursion: a future that is already resolved (a
        # leased local read) is recorded and the next request goes out
        # from the same frame.
        while True:
            if self._exhausted():
                self._retired += 1
                return
            kind, invoke, check = self.next_op(self.issued)
            self.issued += 1
            self._tokens[client] += 1
            token = self._tokens[client]
            virt_start = self.runtime.now
            start = _clock()
            future = self.call(invoke)
            if future.done():
                self._record(kind, start, _clock(), virt_start, future, check)
                continue
            self._pending[client] = (token, kind, start, virt_start, check)
            future.add_done_callback(
                lambda fut, client=client, token=token:
                self._done(client, token, fut))
            return

    def _done(self, client, token, future):
        end = _clock()
        entry = self._pending[client]
        if entry is None or entry[0] != token:
            return  # already written off by scan_timeouts
        self._pending[client] = None
        _token, kind, start, virt_start, check = entry
        self._record(kind, start, end, virt_start, future, check)
        self._pump(client)

    def _record(self, kind, start, end, virt_start, future, check):
        ok = future.exception() is None and bool(check(future.result()))
        self.records.append(
            Record(kind, start, end, ok, virt_start, self.runtime.now))
        mark = self.marks.get(len(self.records))
        if mark is not None:
            mark()

    def scan_timeouts(self):
        now = self.runtime.now
        for client, entry in enumerate(self._pending):
            if entry is not None and now - entry[3] > OP_TIMEOUT:
                self._pending[client] = None
                self.records.append(
                    Record(entry[1], entry[2], _clock(), False, entry[3], now))
                self._pump(client)

    def run(self, step):
        """Drive the runtime until every client has retired."""
        self.start()
        while not self.finished:
            self.runtime.run_for(step)
            self.scan_timeouts()
        return self


class OpenLoop:
    """Requests on a fixed schedule, whatever the system is doing.

    The generator is a self-rearming timer on the client endpoint, so it
    keeps its schedule inside ``stabilize`` and friends.  Each request is
    timed from the instant it was *due*, which charges a stall to every
    request that had to wait behind it.
    """

    def __init__(self, endpoint, period, next_op, call=None):
        self.endpoint = endpoint
        self.period = period
        self.next_op = next_op
        self.call = call or (lambda invoke: invoke())
        self.records = []
        self.lags = []
        self.issued = 0
        self.origin = None
        self.running = False
        self._outstanding = {}

    def start(self):
        self.origin = _clock()
        self.running = True
        self._fire()
        return self

    def stop(self):
        self.running = False

    def due_time(self, index):
        return self.origin + index * self.period

    def _fire(self):
        if not self.running:
            return
        now = _clock()
        while self.due_time(self.issued) <= now:
            index = self.issued
            self.issued += 1
            due = self.due_time(index)
            self.lags.append(now - due)
            kind, invoke, check = self.next_op(index)
            self._outstanding[index] = (kind, due, check)
            future = self.call(invoke)
            future.add_done_callback(
                lambda fut, index=index: self._done(index, fut))
        self.endpoint.timer(
            max(0.0, self.due_time(self.issued) - _clock()), self._fire,
            "bench.generator")

    def _done(self, index, future):
        end = _clock()
        entry = self._outstanding.pop(index, None)
        if entry is None:
            return
        kind, due, check = entry
        ok = future.exception() is None and bool(check(future.result()))
        self.records.append(Record(kind, due, end, ok, None, None))

    def scan_timeouts(self):
        now = _clock()
        for index, (kind, due, _check) in list(self._outstanding.items()):
            if now - due > OP_TIMEOUT:
                del self._outstanding[index]
                self.records.append(Record(kind, due, now, False, None, None))

    @property
    def outstanding(self):
        return len(self._outstanding)


# ----------------------------------------------------------------------
# One built system
# ----------------------------------------------------------------------

class Bench:
    """A started system with its object group, ready to be measured."""

    def __init__(self, workload, seed, traced):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = Tracer() if traced else None
        if workload.sockets:
            runtime = AsyncioRuntime(seed=seed)
            config = TotemConfig.realtime()
        else:
            runtime = SimRuntime(seed=seed)
            config = TotemConfig()
        if traced:
            runtime = TracedRuntime(runtime, self.tracer)
        self.runtime = runtime
        self.step = 0.05 if workload.sockets else 0.01
        self.system = EternalSystem(
            REPLICAS + [CLIENT], seed=seed, totem_config=config,
            runtime=runtime,
        ).start()
        self.problems = []
        self.attempted = 0       # every request sent, warm-up included

    def call(self, invoke):
        """Make a stub call, inside a ``client.stub`` span when traced."""
        if self.tracer is None:
            return invoke()
        return self.tracer.call("client.stub", CLIENT, invoke)

    def wait_until(self, condition, limit, what):
        """Drive the runtime until ``condition()``; False (and a recorded
        problem) when ``limit`` runtime seconds pass first."""
        deadline = self.runtime.now + limit
        while not condition():
            if self.runtime.now >= deadline:
                self.problems.append("timed out waiting for " + what)
                return False
            self.runtime.run_for(self.step / 5.0)
        return True

    def replicas_ready(self, nodes=REPLICAS):
        replicas = self.system.replicas_of(GROUP)
        return all(
            node in replicas and replicas[node].ready
            and set(replicas[node].members) == set(REPLICAS)
            for node in nodes
        )

    def closed_loop(self, clients, next_op, **limits):
        loop = ClosedLoop(self.runtime, clients, next_op, call=self.call,
                          **limits)
        loop.run(self.step)
        self.attempted += loop.issued
        return loop

    def close(self):
        self.runtime.close()


class Window:
    """What one measured window produced, before it is turned into metrics."""

    def __init__(self, bench):
        self.bench = bench
        self.records = []
        self.extra = {}           # workload-specific measurements
        self.trace_start = None
        self.trace_end = None
        self.events_start = None
        self.events_end = None
        self.count_ops = None     # ops between the two trace snapshots
        self.wall_start = None
        self.wall_end = None
        self.cpu_start = None
        self.cpu_end = None
        self.trace_end_wall = None

    def _events(self):
        sim = getattr(self.bench.runtime, "sim", None)
        scheduler = getattr(sim, "scheduler", None)
        return getattr(scheduler, "processed", None)

    def open(self):
        bench = self.bench
        spans = getattr(bench.runtime.telemetry, "spans", None)
        if spans is not None:
            # The tracker keeps the first `retain` finished spans; drop
            # the warm-up's so the measured window's are the ones kept.
            del spans.finished[:]
        self.trace_start = bench.runtime.trace.snapshot()
        self.events_start = self._events()
        if bench.tracer is not None:
            bench.tracer.enabled = True
        self.cpu_start = time.process_time()
        self.wall_start = _clock()

    def snapshot_counts(self, ops):
        """Close the counting interval (may be earlier than the window)."""
        if self.trace_end is None:
            self.trace_end = self.bench.runtime.trace.snapshot()
            self.events_end = self._events()
            self.trace_end_wall = _clock()
            self.count_ops = ops

    def close(self, records):
        self.cpu_end = time.process_time()
        self.records = records
        self.wall_end = max([r.end for r in records] or [_clock()])
        if self.bench.tracer is not None:
            self.bench.tracer.enabled = False
        self.snapshot_counts(len(records))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class EchoWorkload:
    """ACTIVE x3 ``EchoServer`` under closed-loop callers."""

    def __init__(self, name, sockets, payload_bytes, clients, warmup=50):
        self.name = name
        self.sockets = sockets
        self.payload_bytes = payload_bytes
        self.clients = clients
        self.warmup = warmup

    def create(self, bench):
        ior = bench.system.create_replicated(
            GROUP, EchoServer, REPLICAS,
            GroupPolicy(style=ReplicationStyle.ACTIVE))
        bench.stub = bench.system.stub(CLIENT, ior)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        bench.body = "".join(
            bench.rng.choice(alphabet)
            for _ in range(max(0, self.payload_bytes - 10)))
        bench.sent = 0

    def next_op(self, bench):
        stub, body = bench.stub, bench.body

        def next_op(_index):
            # A distinct payload per request, so a reply that belongs to
            # another request cannot pass the check.
            payload = "%010d" % bench.sent + body
            bench.sent += 1
            return ("echo", lambda: stub.echo(payload),
                    lambda result: result == payload)

        return next_op

    def measure(self, bench, seconds, window):
        marks = {}
        if not self.sockets:
            marks[SIM_EXACT_OPS] = lambda: window.snapshot_counts(SIM_EXACT_OPS)
        window.open()
        loop = bench.closed_loop(
            self.clients, self.next_op(bench),
            deadline=_clock() + seconds, marks=marks)
        window.close(loop.records)

    def verify(self, bench, window):
        expected = bench.sent
        counts = bench.system.states_of(GROUP)
        if sorted(counts) != REPLICAS:
            bench.problems.append(
                "ready replicas at the end: %s" % sorted(counts))
        if all(record.ok for record in window.records):
            wrong = {n: c for n, c in counts.items() if c != expected}
            if wrong:
                bench.problems.append(
                    "exactly-once broken: %d requests sent, replicas "
                    "executed %s" % (expected, wrong))
        elif len(set(counts.values())) > 1:
            bench.problems.append("replicas diverged: %s" % counts)


class KvWorkload:
    """WARM_PASSIVE x3 ``KeyValueStore`` with read leases, 50 % reads."""

    name = "kv_rw_rt"
    sockets = True
    keys = 200
    value_bytes = 64
    warmup = 20

    def create(self, bench):
        system = bench.system
        ior = system.create_replicated(
            GROUP, KeyValueStore, REPLICAS,
            GroupPolicy(style=ReplicationStyle.WARM_PASSIVE,
                        read_leases=True))
        leader = REPLICAS[0]
        bench.write_stub = system.stub(leader, ior, interface=KeyValueStore)
        bench.read_stub = system.stub(
            leader, ior, interface=KeyValueStore,
            read=ReadOptions(mode=ReadConsistency.LINEARIZABLE))
        bench.key_names = ["key-%06d" % i for i in range(self.keys)]
        bench.model = dict.fromkeys(bench.key_names, "v" * self.value_bytes)
        bench.wait_until(bench.replicas_ready, 5.0, "the group to be ready")
        leases = system.engine(leader).leases
        bench.wait_until(lambda: leases.holds(GROUP), 10.0, "the read lease")
        loaded = system.call(
            bench.write_stub.preload(self.keys, self.value_bytes), timeout=10.0)
        bench.attempted += 1
        if loaded != self.keys:
            bench.problems.append("preload returned %r" % (loaded,))

    def next_op(self, bench):
        rng, model, keys = bench.rng, bench.model, bench.key_names
        read_stub, write_stub = bench.read_stub, bench.write_stub
        width = self.value_bytes
        block = []

        def next_op(index):
            if not block:
                # Exactly half reads in every eight requests, in seeded
                # order: the mix is the seed's, the write share is not.
                block.extend([True, False] * 4)
                rng.shuffle(block)
            key = keys[rng.randrange(len(keys))]
            if block.pop():
                expected = model[key]
                return ("read", lambda: read_stub.get(key),
                        lambda result: result == expected)
            value = ("%d:%d:" % (bench.seed, index)).ljust(width, "w")
            # One caller, so the model can move at issue time: the next
            # request goes out only after this put has been acknowledged.
            model[key] = value
            return ("write", lambda: write_stub.put(key, value),
                    lambda result: result is True)

        return next_op

    def measure(self, bench, seconds, window):
        reads = bench.system.engine(REPLICAS[0]).reads
        fallbacks = reads.fallbacks
        window.open()
        loop = bench.closed_loop(1, self.next_op(bench),
                                 deadline=_clock() + seconds)
        window.close(loop.records)
        window.extra["read_fallbacks_seen"] = reads.fallbacks - fallbacks

    def verify(self, bench, window):
        states = bench.system.states_of(GROUP)
        if sorted(states) != REPLICAS:
            bench.problems.append(
                "ready replicas at the end: %s" % sorted(states))
        if all(record.ok for record in window.records):
            for node, state in states.items():
                if state != bench.model:
                    bench.problems.append(
                        "replica %s differs from the model dict" % node)


class FailoverWorkload:
    """WARM_PASSIVE x3 ``Counter``, open loop, primary crashed every cycle.

    The rate is 12.5 req/s, not the 50 req/s first planned: on the default
    data path the state capture sent at every ring merge grows ~310 B
    per operation the group ever completed and must fit one UDP
    datagram, so a group that has completed ~205 operations wedges the
    ring at its next membership change (see README, finding (e)).  The
    whole run stays near 60 % of that.
    """

    name = "failover_rt"
    sockets = True
    warmup = 10
    period = 0.08
    down_s = 1.5         # crash -> recover
    cycle_s = 2.5        # crash -> next crash
    lead_s = 0.5         # load before the first crash, and after the last rejoin
    max_requests = 130   # capture budget, see the class docstring

    def create(self, bench):
        ior = bench.system.create_replicated(
            GROUP, Counter, REPLICAS,
            GroupPolicy(style=ReplicationStyle.WARM_PASSIVE))
        bench.stub = bench.system.stub(CLIENT, ior)
        bench.acknowledged = 0
        bench.requested = 0

    def next_op(self, bench):
        stub, rng = bench.stub, bench.rng

        def next_op(_index):
            amount = rng.randint(1, 9)
            bench.requested += amount

            def check(result):
                bench.acknowledged += amount
                return isinstance(result, int) and result >= amount

            return ("write", lambda: stub.increment(amount), check)

        return next_op

    def cycles_for(self, seconds):
        budget = (self.max_requests - self.warmup) * self.period
        usable = min(seconds, budget) - 2 * self.lead_s
        return max(1, int(usable // self.cycle_s))

    def measure(self, bench, seconds, window):
        system, runtime = bench.system, bench.runtime
        generator = OpenLoop(system.node(CLIENT).ep, self.period,
                             self.next_op(bench), call=bench.call)

        def sleep_until(when):
            while _clock() < when:
                runtime.run_for(max(0.0, min(bench.step, when - _clock())))
                generator.scan_timeouts()

        def between_requests(earliest):
            # Crash half-way between two due times, so the fault
            # schedule keeps the same phase against the request schedule
            # in every cycle and every run.
            slot = int((earliest - generator.origin) / self.period) + 1
            return generator.origin + (slot + 0.5) * self.period

        gaps, rejoins = [], []
        window.open()
        generator.start()
        crash_at = between_requests(generator.origin + self.lead_s)
        settled = crash_at
        for _cycle in range(self.cycles_for(seconds)):
            sleep_until(crash_at)
            replicas = system.replicas_of(GROUP)
            primary = next(iter(replicas.values())).primary
            crashed = _clock()
            system.crash(primary)
            sleep_until(crashed + self.down_s)
            served = [r.end for r in generator.records
                      if r.start > crashed and r.ok]
            if served:
                gaps.append(min(served) - crashed)
            else:
                bench.problems.append(
                    "no request served within %.1fs of crashing %s"
                    % (self.down_s, primary))
            system.recover(primary)
            system.stabilize(timeout=10.0)
            added = _clock()
            system.manager.remove_member(GROUP, primary)
            system.manager.add_member(GROUP, primary)
            if bench.wait_until(lambda: bench.replicas_ready([primary]), 5.0,
                                "%s to rejoin" % primary):
                rejoins.append(_clock() - added)
            settled = _clock()
            crash_at = between_requests(
                max(crashed + self.cycle_s, settled + 0.3))
        sleep_until(settled + self.lead_s)
        generator.stop()
        give_up = _clock() + OP_TIMEOUT + 1.0
        while generator.outstanding and _clock() < give_up:
            sleep_until(_clock() + bench.step)
        bench.attempted += generator.issued
        window.close(generator.records)
        window.extra.update(gaps=gaps, rejoins=rejoins, lags=generator.lags)

    def verify(self, bench, window):
        bench.wait_until(bench.replicas_ready, 5.0, "three ready replicas")
        values = bench.system.states_of(GROUP)
        if sorted(values) != REPLICAS:
            bench.problems.append(
                "ready replicas at the end: %s" % sorted(values))
        if len(set(values.values())) > 1:
            bench.problems.append("counters diverged: %s" % values)
        for node, value in values.items():
            if not bench.acknowledged <= value <= bench.requested:
                bench.problems.append(
                    "%s holds %d, outside acknowledged %d .. requested %d"
                    % (node, value, bench.acknowledged, bench.requested))


WORKLOADS = {
    workload.name: workload
    for workload in (
        EchoWorkload("echo_rt", True, 512, 1),
        EchoWorkload("bulk_rt", True, 32 * 1024, 1),
        EchoWorkload("fanin_rt", True, 64, 8),
        KvWorkload(),
        FailoverWorkload(),
        EchoWorkload("echo_sim", False, 512, 1),
    )
}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def set_up(workload, seed, traced=False):
    """Construct -> ring stable -> group ready -> warm-up done.

    Returns ``(bench, seconds it took)``.
    """
    started = _clock()
    bench = Bench(workload, seed, traced)
    try:
        bench.system.stabilize(timeout=15.0)
        workload.create(bench)
        bench.wait_until(bench.replicas_ready, 5.0, "the group to be ready")
        loop = bench.closed_loop(1, workload.next_op(bench),
                                 max_ops=workload.warmup)
        if not all(record.ok for record in loop.records):
            bench.problems.append("warm-up invocation failed")
    except BaseException:
        bench.close()
        raise
    return bench, _clock() - started


def measured_pass(workload, seed, seconds, traced=False):
    """Set up once, measure one window, check the outputs, tear down.

    Returns ``(bench, window, set-up seconds)``; the runtime is closed.
    """
    bench, setup_s = set_up(workload, seed, traced)
    try:
        window = Window(bench)
        workload.measure(bench, seconds, window)
        workload.verify(bench, window)
    finally:
        bench.close()
    return bench, window, setup_s
