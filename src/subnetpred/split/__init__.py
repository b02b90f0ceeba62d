from .latency import (LatencyModel, estimate_latency, latency_model_for,
                      partition_workloads)
from .messages import (KIND_ACTIVATION, KIND_GRADIENT, InProcessChannel,
                       ProtocolError, SplitMessage)
from .partition import (SplitPartition, merge, partition,
                        partition_param_counts)
from .runtime import (SplitClient, SplitServer, build_participants,
                      split_train, split_train_epoch)

__all__ = [
    "SplitMessage", "InProcessChannel", "ProtocolError",
    "KIND_ACTIVATION", "KIND_GRADIENT",
    "SplitPartition", "partition", "merge", "partition_param_counts",
    "SplitClient", "SplitServer", "build_participants",
    "split_train", "split_train_epoch",
    "LatencyModel", "estimate_latency", "latency_model_for",
    "partition_workloads",
]
