from .messages import (KIND_ACTIVATION, KIND_GRADIENT, InProcessChannel,
                       ProtocolError, SplitMessage)
from .partition import SplitPartition, merge, partition, partition_workloads
from .runtime import (SplitClient, SplitServer, build_participants,
                      split_train)

__all__ = [
    "SplitMessage", "InProcessChannel", "ProtocolError",
    "KIND_ACTIVATION", "KIND_GRADIENT",
    "SplitPartition", "partition", "merge", "partition_workloads",
    "SplitClient", "SplitServer", "build_participants",
    "split_train",
]
