"""Per-ring message store and delivery bookkeeping of one processor."""


class RingStore:
    """What one processor holds of one ring configuration's messages."""

    def __init__(self, ring):
        self.ring = ring
        self.received = {}
        self.my_aru = 0          # all messages 1..my_aru received
        self.high_seq = 0        # highest sequence number seen
        self.safe_seq = 0        # all members known to have 1..safe_seq
        self.delivered_upto = 0  # delivery pointer
        # seq -> encoded retransmit frame: a message re-broadcast in
        # answer to rtr/recovery requests is encoded once and the bytes
        # reused for every further request (encode-once contract).
        self.retransmit_cache = {}

    def insert(self, msg):
        """Store a message; returns True if it was new."""
        if msg.seq in self.received or msg.seq <= self.my_aru:
            return False
        self.received[msg.seq] = msg
        if msg.seq > self.high_seq:
            self.high_seq = msg.seq
        while (self.my_aru + 1) in self.received:
            self.my_aru += 1
        return True

    def has(self, seq):
        return seq <= self.my_aru or seq in self.received

    def have_list(self):
        """Non-contiguous sequence numbers held beyond my_aru."""
        return sorted(s for s in self.received if s > self.my_aru)

    def collect_garbage(self):
        """Drop messages every member is known to have and we delivered."""
        limit = min(self.safe_seq, self.delivered_upto)
        for seq in [s for s in self.received if s <= limit]:
            del self.received[seq]
        if self.retransmit_cache:
            for seq in [s for s in self.retransmit_cache if s <= limit]:
                del self.retransmit_cache[seq]
