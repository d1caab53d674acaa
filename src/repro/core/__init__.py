"""The paper's primary contribution: ExD transformation, distributed Gram
computation (Alg. 2), the performance model (Eqs. 2–4), the α(L)
estimator, the automated tuner (Sec. VII), evolving-data updates
(Sec. V-E) and the end-to-end :class:`ExtDict` framework API.
"""

from repro.core.dictionary import DictOperator, Dictionary, sample_dictionary
from repro.core.fastdict import (
    BlockDictOperator,
    FastDict,
    FastDictConfig,
    FastFactor,
    fit_fast_dict,
)
from repro.core.transform import TransformedData
from repro.core.exd import ExDStats, exd_transform, exd_transform_distributed
from repro.core.gram import (
    LocalGramWorker,
    TransformedGramOperator,
    gram_update_program,
    run_distributed_gram,
    select_case,
)
from repro.core.cost_model import (
    CostModel,
    runtime_cost,
    energy_cost,
    memory_cost_per_node,
)
from repro.core.alpha import (
    AlphaEstimate,
    alpha_curve,
    estimate_alpha_from_subsets,
    measure_alpha,
    measure_alpha_batch,
)
from repro.core.tuner import (
    TuningResult,
    find_min_feasible_size,
    tune_dictionary_size,
)
from repro.core.evolve import ExtendResult, extend_transform
from repro.core.framework import ExtDict
from repro.core.io import load_transform, save_transform
from repro.online.sketch import (
    SketchConfig,
    SketchedTuningResult,
    tune_dictionary_size_sketched,
)

__all__ = [
    "DictOperator",
    "Dictionary",
    "sample_dictionary",
    "BlockDictOperator",
    "FastDict",
    "FastDictConfig",
    "FastFactor",
    "fit_fast_dict",
    "TransformedData",
    "ExDStats",
    "exd_transform",
    "exd_transform_distributed",
    "LocalGramWorker",
    "TransformedGramOperator",
    "gram_update_program",
    "run_distributed_gram",
    "select_case",
    "CostModel",
    "runtime_cost",
    "energy_cost",
    "memory_cost_per_node",
    "AlphaEstimate",
    "measure_alpha",
    "measure_alpha_batch",
    "alpha_curve",
    "estimate_alpha_from_subsets",
    "TuningResult",
    "SketchConfig",
    "SketchedTuningResult",
    "tune_dictionary_size",
    "tune_dictionary_size_sketched",
    "find_min_feasible_size",
    "ExtendResult",
    "extend_transform",
    "ExtDict",
    "load_transform",
    "save_transform",
]
