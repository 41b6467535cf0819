"""Conditional variational autoencoder for spatio-temporal extremes."""

__version__ = "0.1.0"

from .autodiff import ParamVector, fd_check, gradient, value_and_gradient
from .distributions import FrechetParams, GevParams, LogLaplaceParams
from .emulation import EmulationEnsemble, ablate_condition, counterfactual, emulate
from .model import HyperParams, ModelConfig, ModelParameters
from .training import TrainConfig, TrainReport, checkpoint_load, checkpoint_save, train

__all__ = [
    "__version__",
    "ParamVector", "fd_check", "gradient", "value_and_gradient",
    "LogLaplaceParams", "FrechetParams", "GevParams",
    "HyperParams", "ModelConfig", "ModelParameters",
    "TrainConfig", "TrainReport", "train", "checkpoint_save", "checkpoint_load",
    "EmulationEnsemble", "emulate", "counterfactual", "ablate_condition",
]
