"""Objective-driven evaluation pipeline.

Closes the placement → physics → simulation → metrics loop (paper
Fig. 2c): :class:`PlacementEvaluator` is the objective both optimizers
query, :mod:`repro.eval.suites` holds the per-circuit measurement
protocols, and :mod:`repro.eval.fom` reproduces the paper's figure of
merit.
"""

from repro.eval.batch_suites import (
    BATCH_SUITES,
    measure_cm_many,
    measure_comp_many,
    measure_ota_many,
)
from repro.eval.evaluator import FAILURE_PRIMARY, PlacementEvaluator
from repro.eval.fom import FOM_SPECS, MetricSpec, RATIO_CLAMP, compute_fom
from repro.eval.metrics import Metrics
from repro.eval.suites import measure_cm, measure_comp, measure_ota

__all__ = [
    "BATCH_SUITES",
    "FAILURE_PRIMARY",
    "FOM_SPECS",
    "MetricSpec",
    "Metrics",
    "PlacementEvaluator",
    "RATIO_CLAMP",
    "compute_fom",
    "measure_cm",
    "measure_cm_many",
    "measure_comp",
    "measure_comp_many",
    "measure_ota",
    "measure_ota_many",
]
