"""Experiment harness: one entry point per paper figure + ablations."""

#: Export → defining module (PEP 562): a command that needs only the
#: circuit configs does not load the ablation, Fig. 3 and transfer
#: experiments.
_LAZY = {
    "ConvergenceAblation": "repro.experiments.ablations",
    "DummyAblation": "repro.experiments.ablations",
    "HierarchyAblation": "repro.experiments.ablations",
    "LinearityAblation": "repro.experiments.ablations",
    "run_convergence_ablation": "repro.experiments.ablations",
    "run_dummy_ablation": "repro.experiments.ablations",
    "run_hierarchy_ablation": "repro.experiments.ablations",
    "run_linearity_ablation": "repro.experiments.ablations",
    "ALL_CONFIGS": "repro.experiments.configs",
    "CM_CONFIG": "repro.experiments.configs",
    "COMP_CONFIG": "repro.experiments.configs",
    "OTA_CONFIG": "repro.experiments.configs",
    "ExperimentConfig": "repro.experiments.configs",
    "AlgoRow": "repro.experiments.fig3",
    "Fig3Result": "repro.experiments.fig3",
    "best_symmetric": "repro.experiments.fig3",
    "run_fig3": "repro.experiments.fig3",
    "format_campaign": "repro.experiments.reporting",
    "format_convergence": "repro.experiments.reporting",
    "format_dummies": "repro.experiments.reporting",
    "format_fig3": "repro.experiments.reporting",
    "format_hierarchy": "repro.experiments.reporting",
    "format_linearity": "repro.experiments.reporting",
    "format_table": "repro.experiments.reporting",
    "format_transfer": "repro.experiments.reporting",
    "TRANSFER_CIRCUITS": "repro.experiments.transfer",
    "RegimeStats": "repro.experiments.transfer",
    "TransferRow": "repro.experiments.transfer",
    "run_transfer": "repro.experiments.transfer",
}

__all__ = [
    "ALL_CONFIGS",
    "AlgoRow",
    "CM_CONFIG",
    "COMP_CONFIG",
    "ConvergenceAblation",
    "DummyAblation",
    "ExperimentConfig",
    "Fig3Result",
    "HierarchyAblation",
    "LinearityAblation",
    "OTA_CONFIG",
    "RegimeStats",
    "TRANSFER_CIRCUITS",
    "TransferRow",
    "best_symmetric",
    "format_campaign",
    "format_convergence",
    "format_dummies",
    "format_fig3",
    "format_hierarchy",
    "format_linearity",
    "format_table",
    "format_transfer",
    "run_convergence_ablation",
    "run_dummy_ablation",
    "run_fig3",
    "run_hierarchy_ablation",
    "run_linearity_ablation",
    "run_transfer",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
