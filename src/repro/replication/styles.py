"""Replication styles and per-group policies."""


class ReplicationStyle:
    """The replication styles Eternal supports (and FT-CORBA standardized).

    - ``ACTIVE``: every replica executes every operation; replies are
      duplicate-suppressed.  Fastest failover (no state to recover).
    - ``WARM_PASSIVE``: only the primary executes; it pushes a state update
      to the backups after each state-modifying operation, so a backup can
      take over by executing only the operations the update stream has not
      covered.
    - ``COLD_PASSIVE``: only the primary executes; backups merely log
      requests.  Failover restores the last checkpoint and replays the
      log -- cheapest in steady state, slowest to fail over.
    - ``SEMI_ACTIVE``: every replica executes (as in active), but a single
      leader makes all externally visible decisions (sends the replies);
      followers' replies are suppressed a priori rather than by race.
    """

    ACTIVE = "active"
    WARM_PASSIVE = "warm_passive"
    COLD_PASSIVE = "cold_passive"
    SEMI_ACTIVE = "semi_active"

    ALL = (ACTIVE, WARM_PASSIVE, COLD_PASSIVE, SEMI_ACTIVE)

    @classmethod
    def validate(cls, style):
        if style not in cls.ALL:
            raise ValueError(
                "unknown replication style %r (expected one of %s)"
                % (style, ", ".join(cls.ALL))
            )
        return style

    @classmethod
    def executes_everywhere(cls, style):
        """True when every replica executes every operation."""
        return style in (cls.ACTIVE, cls.SEMI_ACTIVE)

    @classmethod
    def is_passive(cls, style):
        return style in (cls.WARM_PASSIVE, cls.COLD_PASSIVE)

    @classmethod
    def leader_serves_reads(cls, style):
        """True when the leader's local state reflects every acked write.

        In the passive and semi-active styles only the leader executes (or
        only the leader replies), so a write is acknowledged no earlier
        than the leader applies it -- a leased leader-local read is
        linearizable.  Under ACTIVE replication a fast *follower's* reply
        can win the duplicate-suppression race and acknowledge a write the
        leader has not executed yet, so leader-local reads are not
        linearizable and reads fall back to the ordered path.
        """
        return style in (cls.WARM_PASSIVE, cls.COLD_PASSIVE, cls.SEMI_ACTIVE)


class GroupPolicy:
    """Per-object-group replication policy.

    Attributes:
        style: one of :class:`ReplicationStyle`.
        min_replicas: the ReplicationManager restores the group to this
            degree after failures, spares permitting.
        checkpoint_interval_ops: for cold passive, the primary multicasts a
            checkpoint every N state-modifying operations (bounding log
            replay at failover).  0 disables periodic checkpoints.
        state_transfer: ``"blocking"`` or ``"incremental"`` -- how new
            members are brought current.  An incremental transfer ships
            the capture in ``state_sync.CHUNK_BYTES`` pieces.
        update_mode: ``"full"`` pushes the complete application state
            after each state-modifying passive-primary operation (one the
            interface declares read_only pushes nothing); ``"image"``
            ships the servant-provided post-image of the update instead
            (the paper's postimage mechanism), falling back to full state
            when the servant cannot describe the update.
        dispatch_policy: ``"deterministic"`` (Eternal's enforced serial
            dispatch) or ``"concurrent"`` (the E9 ablation's multithreaded
            regime).
        sanitize_environment: whether servants' time()/random() reads are
            sanitized (see :mod:`repro.determinism.sanitizer`).
        read_leases: enable the local read path for this group.  The
            primary continuously renews time-bounded read leases from the
            backups (piggybacking its ``ops_applied`` position, which the
            backups use to bound staleness); declared READ_ONLY operations
            can then be served at a replica without a token round.  Off by
            default: existing groups keep the ordered path byte-identical.
        read_lease_duration: lease validity window in seconds, measured
            from the moment the grant request was *sent* (so the holder's
            window is conservative regardless of network delay).
            Renewals run every :attr:`read_lease_interval`.
        read_lease_margin: clock-skew safety margin.  The holder treats a
            grant as expired ``margin`` seconds early; the granter holds
            its promise ``margin`` seconds longer.
    """

    def __init__(
        self,
        style=ReplicationStyle.ACTIVE,
        min_replicas=2,
        checkpoint_interval_ops=50,
        state_transfer="blocking",
        update_mode="full",
        dispatch_policy="deterministic",
        sanitize_environment=True,
        read_leases=False,
        read_lease_duration=0.4,
        read_lease_margin=0.05,
    ):
        self.style = ReplicationStyle.validate(style)
        if state_transfer not in ("blocking", "incremental"):
            raise ValueError("state_transfer must be 'blocking' or 'incremental'")
        if update_mode not in ("full", "image"):
            raise ValueError("update_mode must be 'full' or 'image'")
        if dispatch_policy not in ("deterministic", "concurrent"):
            raise ValueError("dispatch_policy must be 'deterministic' or 'concurrent'")
        self.min_replicas = min_replicas
        self.checkpoint_interval_ops = checkpoint_interval_ops
        self.state_transfer = state_transfer
        self.update_mode = update_mode
        self.dispatch_policy = dispatch_policy
        self.sanitize_environment = sanitize_environment
        if read_lease_duration <= 0:
            raise ValueError("read_lease_duration must be positive")
        self.read_leases = read_leases
        self.read_lease_duration = read_lease_duration
        self.read_lease_margin = read_lease_margin

    @property
    def read_lease_interval(self):
        """Renewal cadence: a third of the duration, so two renewals can
        be lost before the lease lapses."""
        return self.read_lease_duration / 3.0

    def copy(self, **overrides):
        return GroupPolicy(**dict(self.__dict__, **overrides))

    def __repr__(self):
        return "GroupPolicy(style=%s, min=%d, transfer=%s, dispatch=%s)" % (
            self.style, self.min_replicas, self.state_transfer, self.dispatch_policy,
        )
