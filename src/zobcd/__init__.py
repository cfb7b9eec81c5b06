"""Zeroth-order block coordinate descent with compressed-sensing gradient estimation."""

from zobcd.core import (
    ConfigurationError,
    ConvergenceTrace,
    NoiseModel,
    NumericalFailure,
    Oracle,
    RngStreams,
    TraceRecord,
    make_noisy_oracle,
)
from zobcd.sampling import (
    PartialCirculantEnsemble,
    RademacherEnsemble,
    make_partial_circulant,
    make_rademacher,
    required_rows,
)
from zobcd.sparse_recovery import SparseVector, cosamp, restricted_lsq, top_k_magnitude
from zobcd.blocks import BlockPartition, block_sparsity_histogram, random_partition, reshuffle_if_due
from zobcd.estimator import estimate_block_gradient, theoretical_radius
from zobcd.optimizer import RunResult, ZobcdConfig, run_zobcd, step
from zobcd.baselines import BaselineConfig, run_fdsa, run_spsa, run_zoscd
from zobcd.objectives import MaxSSumSquared, SparseQuadric, make_objective

__version__ = "0.1.0"
