"""Request generators driving client stubs in benchmarks and tests."""


class RequestRecord:
    """Outcome of one generated invocation."""

    __slots__ = ("operation", "args", "send_time", "complete_time", "result", "error")

    def __init__(self, operation, args, send_time):
        self.operation = operation
        self.args = args
        self.send_time = send_time
        self.complete_time = None
        self.result = None
        self.error = None

    @property
    def latency(self):
        """Round-trip latency in virtual seconds (None if not finished)."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.send_time

    @property
    def ok(self):
        return self.complete_time is not None and self.error is None

    def __repr__(self):
        return "RequestRecord(%s, latency=%s)" % (self.operation, self.latency)


class ClosedLoopClient:
    """Issues requests one at a time: the next departs when the last returns.

    Args:
        sim: the simulator (for timestamps).
        stub: client proxy to invoke.
        request_factory: callable(index) -> (operation, args) for each
            request.
        count: total number of requests to issue.
        think_time: virtual seconds between a reply and the next request.
        on_finished: optional callback(client) when all requests completed.
    """

    def __init__(self, sim, stub, request_factory, count, think_time=0.0,
                 on_finished=None):
        self.sim = sim
        self.stub = stub
        self.request_factory = request_factory
        self.count = count
        self.think_time = think_time
        self.on_finished = on_finished
        self.records = []
        self._issued = 0

    def start(self):
        """Issue the first request."""
        self._issue_next()
        return self

    @property
    def finished(self):
        return (
            self._issued >= self.count
            and all(r.complete_time is not None for r in self.records)
        )

    def _issue_next(self):
        if self._issued >= self.count:
            if self.on_finished is not None:
                self.on_finished(self)
            return
        operation, args = self.request_factory(self._issued)
        self._issued += 1
        record = RequestRecord(operation, args, self.sim.now)
        self.records.append(record)
        future = getattr(self.stub, operation)(*args)
        future.add_done_callback(lambda fut: self._complete(record, fut))

    def _complete(self, record, future):
        record.complete_time = self.sim.now
        if future.exception() is not None:
            record.error = future.exception()
        else:
            record.result = future.result()
        if self.think_time > 0:
            self.sim.schedule(self.think_time, self._issue_next, "client.think")
        else:
            self._issue_next()

    def latencies(self):
        """Latencies of all successfully completed requests."""
        return [r.latency for r in self.records if r.ok]

    def errors(self):
        return [r.error for r in self.records if r.error is not None]

