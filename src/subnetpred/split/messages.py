"""Message schema and the in-process transport for split execution.

A message carries its kind, its endpoints and a float payload.  The
in-process channel delivers exactly once and in per-(source, dest) order,
so a batch's messages need no other header; a message never sent makes the
receiver's recv raise.
"""

from __future__ import annotations

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
    payload: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_ACTIVATION, KIND_GRADIENT):
            raise ValueError(f"unknown message kind {self.kind!r}")

    @property
    def payload_bits(self):
        """Size on the wire in bits: element count times element width."""
        return int(self.payload.size * self.payload.itemsize * 8)


class InProcessChannel:
    """FIFO queues per (source, dest) pair with exactly-once delivery."""

    def __init__(self):
        self._queues = {}

    def send(self, message):
        edge = (message.source, message.dest)
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
