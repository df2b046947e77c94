"""Dual-engine laboratory for a two-level system under white-noise dephasing.

One engine computes noise-averaged moments of quantum probabilities exactly,
by propagating replicated path pairs; the other samples single noise
realizations as unitary trajectories.  Each validates the other.
"""

__version__ = "0.1.0"

from .model import (
    Branch,
    ModelParams,
    SpinState,
    WellLabel,
    beta_cross_moment,
    classify_branch,
    closed_form_offdiag,
    closed_form_p_ll,
    laplace_p_ll,
    laplace_p_ll_sq,
    relaxation_times,
    stationary_time,
)
from .replica import (
    MomentSpec,
    NoStationaryLimitError,
    discrete_time_moment,
    finite_time_moment,
    infinite_time_moment,
    mixed_initial_moment,
    moment_decay_rates,
    permutation_symmetry_defect,
)
from .simulate import (
    EnsembleResult,
    NoiseStream,
    NormDriftError,
    PairedEnsembleResult,
    PulseSpec,
    SimConfig,
    TrajectoryResult,
    run_ensemble,
    run_paired_ensemble,
    run_trajectory,
    step,
)
from .stats import (
    HistogramResult,
    MomentReport,
    SampleSet,
    cross_moment,
    histogram,
    ks_uniform,
    moments,
)
