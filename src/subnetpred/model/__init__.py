from .baselines import levinson_durbin, moving_average_predict, wiener_predict
from .losses import pinball_grad, pinball_loss
from .network import (backward, forward, forward_flops, init_params,
                      load_checkpoint, param_names, predict, save_checkpoint)
from .optim import Adam, DropoutMasks
from .train import TrainingDivergedError, batch_schedule, lr_at

__all__ = [
    "forward", "backward", "predict", "init_params", "param_names",
    "forward_flops",
    "save_checkpoint", "load_checkpoint",
    "pinball_loss", "pinball_grad",
    "Adam", "DropoutMasks",
    "TrainingDivergedError", "batch_schedule", "lr_at",
    "moving_average_predict", "wiener_predict", "levinson_durbin",
]
