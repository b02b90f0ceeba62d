from .messages import InProcessChannel
from .partition import partition, partition_workloads
from .runtime import split_train
