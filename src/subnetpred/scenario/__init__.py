from .channel import (channel_gain, fading_coefficient, noise_power_w,
                      pathloss_inf_db, soft_los_weight)
from .deploy import MobilityState, PlacementError, deploy
from .mobility import build_alley_layout, deploy_alley, step_mobility
from .simulate import (InterferenceTrace, interferer_set, simulate_trace,
                       write_trace_csv)
from .traffic import TrafficProcess

__all__ = [
    "MobilityState", "PlacementError", "InterferenceTrace",
    "deploy", "deploy_alley", "build_alley_layout", "step_mobility",
    "TrafficProcess", "channel_gain",
    "pathloss_inf_db", "noise_power_w", "fading_coefficient",
    "soft_los_weight", "simulate_trace", "interferer_set", "write_trace_csv",
]
