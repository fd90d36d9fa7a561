"""Objective-driven evaluation pipeline.

Closes the placement → physics → simulation → metrics loop (paper
Fig. 2c): :class:`PlacementEvaluator` is the objective both optimizers
query, :mod:`repro.eval.suites` holds the per-circuit measurement
protocols, and :mod:`repro.eval.fom` reproduces the paper's figure of
merit.
"""

#: Export → defining module (PEP 562): exports load on first access, so
#: a batch-1 run does not load the placement-batched
#: suites of :mod:`repro.eval.batch_suites`.
_LAZY = {
    "BATCH_SUITES": "repro.eval.batch_suites",
    "measure_cm_many": "repro.eval.batch_suites",
    "measure_comp_many": "repro.eval.batch_suites",
    "measure_ota_many": "repro.eval.batch_suites",
    "FAILURE_PRIMARY": "repro.eval.evaluator",
    "PlacementEvaluator": "repro.eval.evaluator",
    "FOM_SPECS": "repro.eval.fom",
    "MetricSpec": "repro.eval.fom",
    "RATIO_CLAMP": "repro.eval.fom",
    "compute_fom": "repro.eval.fom",
    "Metrics": "repro.eval.metrics",
    "measure_cm": "repro.eval.suites",
    "measure_comp": "repro.eval.suites",
    "measure_ota": "repro.eval.suites",
}

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


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
