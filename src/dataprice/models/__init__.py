from .base import (Model, ModelError, Standardizer, StandardizedModel,
                   fit_standardized, save_model, load_model)
from .linear import (LinearModel, LogisticModel, fit_linear, fit_logistic,
                     fit_logistics)
from .mlp import MLPModel, fit_mlp
from .tree import CARTModel, fit_cart
from .svm import SVMModel, SVRModel, fit_svm, fit_svms, fit_svr, kernel_matrix
from .forest import ForestModel, fit_forest
from .gbt import GBTModel, fit_gbt, fit_gbts
from .ovr import OvREnsemble, ConstantScoreModel, one_vs_rest

__all__ = [
    "Model", "ModelError", "Standardizer", "StandardizedModel",
    "fit_standardized", "save_model", "load_model",
    "LinearModel", "LogisticModel", "fit_linear", "fit_logistic",
    "fit_logistics",
    "MLPModel", "fit_mlp",
    "CARTModel", "fit_cart",
    "SVMModel", "SVRModel", "fit_svm", "fit_svms", "fit_svr", "kernel_matrix",
    "ForestModel", "fit_forest",
    "GBTModel", "fit_gbt", "fit_gbts",
    "OvREnsemble", "ConstantScoreModel", "one_vs_rest",
]
