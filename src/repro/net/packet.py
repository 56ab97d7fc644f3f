"""Packet model.

A packet is deliberately dumb: a size plus the transport-level fields the
TCP/MPTCP layers need.  Links only look at ``size``; everything else is
opaque payload metadata.
"""

from __future__ import annotations

from typing import Optional

#: Maximum segment size used throughout the library (typical Ethernet MSS).
MSS = 1448

#: Size of a pure ACK on the wire (IP + TCP headers + MPTCP DSS option).
ACK_SIZE = 60

#: Per-segment header overhead added on top of payload bytes.
HEADER_SIZE = 60


class Packet:
    """One transport segment or ACK.

    Attributes
    ----------
    size:
        Bytes on the wire (payload + headers); what the link serializes.
    payload:
        Application payload bytes carried (0 for pure ACKs).
    subflow_id:
        Index of the MPTCP subflow this packet belongs to.
    seq:
        Subflow-level sequence number (segment units).
    dsn:
        Connection-level data sequence number of the first payload byte.
    is_ack:
        True for pure acknowledgements travelling the reverse link.
    ack_seq:
        For ACKs: the subflow-level segment being (selectively) acked.
    data_ack:
        For ACKs: cumulative connection-level DSN delivered in-order.
    sent_time:
        When the (original) transmission left the sender; used for RTT
        sampling (Karn: retransmits carry ``retransmitted=True`` and are
        not sampled).
    """

    __slots__ = (
        "size",
        "payload",
        "subflow_id",
        "seq",
        "dsn",
        "is_ack",
        "ack_seq",
        "data_ack",
        "sent_time",
        "retransmitted",
        "recv_window",
    )

    def __init__(
        self,
        size: int,
        payload: int = 0,
        subflow_id: int = 0,
        seq: int = -1,
        dsn: int = -1,
        is_ack: bool = False,
        ack_seq: int = -1,
        data_ack: int = -1,
        sent_time: float = 0.0,
        retransmitted: bool = False,
        recv_window: Optional[int] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size!r}")
        if payload < 0 or payload > size:
            raise ValueError(f"payload {payload!r} out of range for size {size!r}")
        self.size = size
        self.payload = payload
        self.subflow_id = subflow_id
        self.seq = seq
        self.dsn = dsn
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.data_ack = data_ack
        self.sent_time = sent_time
        self.retransmitted = retransmitted
        self.recv_window = recv_window

    @classmethod
    def data_segment(
        cls,
        size: int,
        payload: int,
        subflow_id: int,
        seq: int,
        dsn: int,
        sent_time: float,
        retransmitted: bool,
    ) -> "Packet":
        """Build a data segment without keyword/validation overhead.

        The subflow transmit path constructs one packet per segment; it
        computes ``size`` from ``payload`` itself, so re-validating the
        pair here would only burn cycles on an invariant the caller
        already holds.
        """
        pkt = object.__new__(cls)
        pkt.size = size
        pkt.payload = payload
        pkt.subflow_id = subflow_id
        pkt.seq = seq
        pkt.dsn = dsn
        pkt.is_ack = False
        pkt.ack_seq = -1
        pkt.data_ack = -1
        pkt.sent_time = sent_time
        pkt.retransmitted = retransmitted
        pkt.recv_window = None
        return pkt

    @classmethod
    def pure_ack(
        cls,
        subflow_id: int,
        ack_seq: int,
        data_ack: int,
        sent_time: float,
        recv_window: Optional[int],
    ) -> "Packet":
        """Build a pure ACK (fixed ``ACK_SIZE`` wire size, no payload)."""
        pkt = object.__new__(cls)
        pkt.size = ACK_SIZE
        pkt.payload = 0
        pkt.subflow_id = subflow_id
        pkt.seq = -1
        pkt.dsn = -1
        pkt.is_ack = True
        pkt.ack_seq = ack_seq
        pkt.data_ack = data_ack
        pkt.sent_time = sent_time
        pkt.retransmitted = False
        pkt.recv_window = recv_window
        return pkt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_ack:
            return (
                f"Ack(sf={self.subflow_id}, ack_seq={self.ack_seq}, "
                f"data_ack={self.data_ack})"
            )
        return (
            f"Packet(sf={self.subflow_id}, seq={self.seq}, dsn={self.dsn}, "
            f"payload={self.payload})"
        )


def segment_wire_size(payload: int) -> int:
    """Wire size of a data segment carrying ``payload`` bytes."""
    if payload <= 0:
        raise ValueError(f"payload must be positive, got {payload!r}")
    return payload + HEADER_SIZE
