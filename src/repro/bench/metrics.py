"""Latency statistics for benchmark runs (virtual-time measurements)."""

import math

from repro.telemetry.metrics import percentile


class LatencyStats:
    """Summary statistics of a latency sample, in virtual seconds."""

    __slots__ = ("count", "mean", "p50", "p95", "p99", "minimum", "maximum", "stddev")

    def __init__(self, count, mean, p50, p95, p99, minimum, maximum, stddev):
        self.count = count
        self.mean = mean
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99
        self.minimum = minimum
        self.maximum = maximum
        self.stddev = stddev

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return "LatencyStats(n=%d, mean=%.6f, p95=%.6f)" % (
            self.count, self.mean, self.p95,
        )


def summarize(latencies):
    """Build :class:`LatencyStats` from an iterable of samples."""
    values = sorted(latencies)
    if not values:
        raise ValueError("cannot summarize an empty latency sample")
    count = len(values)
    mean = sum(values) / count
    variance = sum((v - mean) ** 2 for v in values) / count
    return LatencyStats(
        count=count,
        mean=mean,
        p50=percentile(values, 0.50),
        p95=percentile(values, 0.95),
        p99=percentile(values, 0.99),
        minimum=values[0],
        maximum=values[-1],
        stddev=math.sqrt(variance),
    )
