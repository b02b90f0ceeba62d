from .latency import (LatencyModel, estimate_latency, latency_model_for,
                      partition_workloads)
from .messages import (KIND_ACTIVATION, KIND_GRADIENT, InProcessChannel,
                       ProtocolError, SplitMessage)
from .partition import SplitPartition, merge, partition
from .runtime import (SplitClient, SplitServer, build_participants,
                      split_train)

__all__ = [
    "SplitMessage", "InProcessChannel", "ProtocolError",
    "KIND_ACTIVATION", "KIND_GRADIENT",
    "SplitPartition", "partition", "merge",
    "SplitClient", "SplitServer", "build_participants",
    "split_train",
    "LatencyModel", "estimate_latency", "latency_model_for",
    "partition_workloads",
]
