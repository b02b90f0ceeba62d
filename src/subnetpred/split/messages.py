"""Message schema and the in-process transport for split execution.

Wire format of one message: a UTF-8 JSON header line
{kind, source, dest, epoch, batch, shape, dtype} terminated by a newline,
followed by the little-endian float payload bytes.  The in-process channel
delivers exactly once and in per-(source, dest) order, counts messages and
bits, and can drop one message for protocol tests.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

KIND_ACTIVATION = "activation"
KIND_GRADIENT = "gradient"


class ProtocolError(RuntimeError):
    """Missing, out-of-order, or mistyped message on the transport."""


@dataclass
class SplitMessage:
    kind: str
    source: str
    dest: str
    epoch: int
    batch: int
    payload: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_ACTIVATION, KIND_GRADIENT):
            raise ValueError(f"unknown message kind {self.kind!r}")

    @property
    def payload_bits(self):
        """Size on the wire in bits: element count times element width."""
        return int(self.payload.size * self.payload.itemsize * 8)

    def to_bytes(self):
        header = {
            "kind": self.kind, "source": self.source, "dest": self.dest,
            "epoch": self.epoch, "batch": self.batch,
            "shape": list(self.payload.shape), "dtype": "<f8",
        }
        return json.dumps(header).encode("utf-8") + b"\n" + \
            np.ascontiguousarray(self.payload, dtype="<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob):
        nl = blob.index(b"\n")
        header = json.loads(blob[:nl].decode("utf-8"))
        payload = np.frombuffer(blob[nl + 1:], dtype=header["dtype"]).reshape(
            header["shape"]).copy()
        return cls(kind=header["kind"], source=header["source"],
                   dest=header["dest"], epoch=header["epoch"],
                   batch=header["batch"], payload=payload)


class InProcessChannel:
    """FIFO queues per (source, dest) pair with exactly-once delivery."""

    def __init__(self):
        self._queues = {}
        self._drop = set()
        self.sent_messages = 0
        self.sent_bits = 0
        self.counts = {KIND_ACTIVATION: 0, KIND_GRADIENT: 0}

    def drop_next(self, source, dest):
        """Inject a single message loss on the given edge (test hook)."""
        self._drop.add((source, dest))

    def send(self, message):
        edge = (message.source, message.dest)
        if edge in self._drop:
            self._drop.discard(edge)
            return
        self.sent_messages += 1
        self.sent_bits += message.payload_bits
        self.counts[message.kind] += 1
        self._queues.setdefault(edge, deque()).append(message)

    def recv(self, dest, source, kind):
        queue = self._queues.get((source, dest))
        if not queue:
            raise ProtocolError(f"no message pending from {source} to {dest}")
        message = queue.popleft()
        if message.kind != kind:
            raise ProtocolError(
                f"expected {kind} from {source} to {dest}, got {message.kind}")
        return message
