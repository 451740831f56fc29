"""Timer and window parameters of the Totem protocol.

The defaults suit the default :class:`~repro.simnet.LinkProfile` (LAN with
~100 microsecond latency).  Experiment E4 sweeps the failure-detection
timers; experiment E3 sweeps the send window.
"""


class RetransmitBudgetExceeded(RuntimeError):
    """The run spent more retransmissions than its configured budget."""


class TotemConfig:
    """Protocol parameters for one :class:`~repro.totem.TotemProcessor`.

    There is one data path and nothing here selects another: every
    protocol message is a :mod:`repro.wire` frame, a token visit flushes
    the visitor's whole send queue as framed batches *before* forwarding
    the token.  Only the representative ever keeps the token: for
    :attr:`idle_hold` on an idle ring, and on a busy one for whatever is
    left of :attr:`min_rotation` since it last released it.

    Attributes:
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
        window: maximum messages per broadcast datagram.  A token visit
            flushes the whole send queue, ``window`` messages to a frame.
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
    """

    def __init__(
        self,
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
    ):
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

    @property
    def idle_hold(self):
        """How long the representative parks the token of an idle ring.

        Derived, not set: half of ``token_retransmit_timeout``.  The
        representative's predecessor sees no progress while the token is
        parked, so hold plus one rotation must fit inside its retransmit
        timeout or every idle rotation would be read as a lost token;
        being a fixed fraction, the invariant ``idle_hold <
        token_retransmit_timeout`` holds for every way a config is
        built (constructor, :meth:`copy`, :meth:`realtime`).
        """
        return self.token_retransmit_timeout / 2

    @property
    def min_rotation(self):
        """The shortest period at which a busy ring's token rotates.

        Derived like :attr:`idle_hold`: ``token_retransmit_timeout / 25``
        (2 ms on :meth:`realtime`, 0.2 ms -- two default link hops, so
        never felt -- on the simulator defaults).  The representative
        releases the token at most once per period, on a fixed-rate
        schedule.  Without it a ring with any work in flight spins at
        whatever rate the CPU allows: the process is CPU-bound at one
        closed-loop caller, every latency is that machine's CPU speed at
        that moment, and nothing is left for the application.  With it,
        rotations cheaper than the period run at exactly the period and
        the rest are unaffected.
        """
        return self.token_retransmit_timeout / 25

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

        The simulation defaults (5 ms token retransmit, 20 ms token-loss
        timeout) assume a perfectly timely scheduler; a real event loop
        under load would read its own scheduling hiccups as token loss and
        thrash through re-gathers.  This preset widens every timer to
        scales that tolerate ordinary OS jitter while still detecting a
        killed process within a few hundred milliseconds -- the regime of
        the paper's measured testbed rather than its idealized model.
        """
        fields = dict(
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
