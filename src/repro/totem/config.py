"""Timer and window parameters of the Totem protocol.

The defaults suit the default :class:`~repro.simnet.LinkProfile` (LAN with
~100 microsecond latency).  Experiment E4 sweeps the failure-detection
timers; experiment E3 sweeps the send window.
"""


class RetransmitBudgetExceeded(RuntimeError):
    """The run spent more retransmissions than its configured budget."""


class TotemConfig:
    """Protocol parameters for one :class:`~repro.totem.TotemProcessor`.

    Every protocol message is encoded into :mod:`repro.wire` frames, and
    all regular messages broadcast during one token visit travel as one
    framed batch; neither is configurable.

    Attributes:
        token_hold: processing delay before forwarding the token, seconds
            (the pipelined path forwards with zero hold instead).
        token_retransmit_timeout: how long the last token sender waits for
            evidence of progress before resending the token.
        token_retransmit_limit: resend attempts before declaring token loss.
        token_loss_timeout: how long a processor waits for the token to
            return before starting the membership protocol.  This is the
            primary failure-detection knob (experiment E4).
        join_interval: period of Join re-broadcasts while forming a ring.
        consensus_timeout: how long to wait for Joins from candidate members
            before declaring them failed.
        commit_timeout: how long to wait for the Commit token before
            restarting the membership protocol.
        recovery_retry_timeout: how long to wait for missing old-ring
            messages during recovery before re-requesting them.
        recovery_attempt_limit: re-request rounds before giving up on a
            recovery and re-running the membership protocol.
        window: maximum new messages a processor may broadcast per token
            visit (flow control).  The pipelined path flushes its whole
            queue and uses ``window`` only to cap messages per datagram.
        beacon_interval: period of the representative's ring-advertisement
            broadcast, which is how remerged components discover each other.
        retransmit_budget: optional per-run cap on total retransmissions
            (data rebroadcasts plus token/commit resends) charged to the
            runtime-wide ``totem.retransmit.budget`` counter.  When the
            counter passes the cap the processor raises
            :class:`RetransmitBudgetExceeded`, turning a retransmission
            storm (the campaign-sweep seed-5 blowup) into a prompt,
            attributable failure instead of minutes of silent churn.
            ``None`` (the default) never trips; the counter still counts.
        pipelining: overlap ordering with delivery (default off).
            ``send`` disseminates the payload bytes at once and the token
            visit orders them with a small stub.  A pipelined token visit
            flushes the *whole* send queue (batching across invocations,
            not capped by ``window``), inserts and delivers the sender's
            own messages the moment their sequence numbers are settled
            (instead of waiting for the loopback self-delivery),
            broadcasts the stubs and data *before* forwarding the token
            -- so downstream nodes hold the ordered messages when the
            token reaches them -- forwards the token with zero hold, and
            gives first-seen sequence gaps a one-visit grace before
            requesting retransmission.  The grace also ends the default
            path's rebroadcast of every fresh message: the sender's own
            seqs are in its store before the rtr scan runs.  Off, the
            token visit emits exactly what ``tests/golden_datapath.json``
            pins.
    """

    def __init__(
        self,
        token_hold=30e-6,
        token_retransmit_timeout=0.005,
        token_retransmit_limit=5,
        token_loss_timeout=0.02,
        join_interval=0.01,
        consensus_timeout=0.05,
        commit_timeout=0.1,
        recovery_retry_timeout=0.02,
        recovery_attempt_limit=10,
        window=64,
        beacon_interval=0.05,
        retransmit_budget=None,
        pipelining=False,
    ):
        self.token_hold = token_hold
        self.token_retransmit_timeout = token_retransmit_timeout
        self.token_retransmit_limit = token_retransmit_limit
        self.token_loss_timeout = token_loss_timeout
        self.join_interval = join_interval
        self.consensus_timeout = consensus_timeout
        self.commit_timeout = commit_timeout
        self.recovery_retry_timeout = recovery_retry_timeout
        self.recovery_attempt_limit = recovery_attempt_limit
        self.window = window
        self.beacon_interval = beacon_interval
        self.retransmit_budget = retransmit_budget
        self.pipelining = pipelining

    def copy(self, **overrides):
        """A copy of this config with selected fields replaced."""
        fields = dict(self.__dict__)
        fields.update(overrides)
        clone = TotemConfig()
        clone.__dict__.update(fields)
        return clone

    @classmethod
    def realtime(cls, **overrides):
        """Timers suited to wall-clock execution over real sockets.

        The simulation defaults (microsecond token hold, 20 ms token-loss
        timeout) assume a perfectly timely scheduler; a real event loop
        under load would read its own scheduling hiccups as token loss and
        thrash through re-gathers.  This preset widens every timer to
        scales that tolerate ordinary OS jitter while still detecting a
        killed process within a few hundred milliseconds -- the regime of
        the paper's measured testbed rather than its idealized model.
        """
        fields = dict(
            token_hold=0.002,
            token_retransmit_timeout=0.05,
            token_loss_timeout=0.2,
            join_interval=0.05,
            consensus_timeout=0.25,
            commit_timeout=0.5,
            recovery_retry_timeout=0.1,
            beacon_interval=0.25,
        )
        fields.update(overrides)
        return cls(**fields)
