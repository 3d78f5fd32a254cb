"""Kernel methods for causal inference with negative controls.

Two-stage kernel ridge regressions identify dose-response curves and
heterogeneous effects when an unobserved confounder leaks into a
negative control treatment and a negative control outcome. Everything
is closed form: Gram matrices, two ridge solves, and weighted kernel
averages. A simulation lab benchmarks the estimator against a naive
kernel ridge baseline on designs with known counterfactual curves.
"""

from .data import Dataset, Schema, from_arrays, ingest, write_dataset_csv
from .effects import (
    EffectCurve,
    EffectRequest,
    TuningPlan,
    kernel_specs,
    run_end_to_end,
    stage2_kernel,
)
from .errors import (
    ConfigError,
    DegenerateScaleError,
    IngestError,
    InputError,
    KernelncError,
    NumericalError,
)
from .kernels import ColumnKernel, KernelSpec, gram, median_heuristic, spec_from_data
from .ridge import DEFAULT_GRID, RidgeSystem, TuneReport, gram_factor
from .simlab import (
    ReplicateReport,
    SimDesign,
    generate,
    run_experiment,
    score_replicate,
    true_curve,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnKernel",
    "ConfigError",
    "DEFAULT_GRID",
    "Dataset",
    "DegenerateScaleError",
    "EffectCurve",
    "EffectRequest",
    "IngestError",
    "InputError",
    "KernelSpec",
    "KernelncError",
    "NumericalError",
    "ReplicateReport",
    "RidgeSystem",
    "Schema",
    "SimDesign",
    "TuneReport",
    "TuningPlan",
    "from_arrays",
    "generate",
    "gram",
    "gram_factor",
    "ingest",
    "kernel_specs",
    "median_heuristic",
    "run_end_to_end",
    "run_experiment",
    "score_replicate",
    "spec_from_data",
    "stage2_kernel",
    "true_curve",
    "write_dataset_csv",
]
