"""Sampling and exact reconstruction of bandlimited time-vertex graph signals."""

from .bandlimit import (
    SpectralSupport,
    detect_support,
    synth_from_restricted,
    synth_signal,
)
from .graphs import Graph, cartesian_laplacian, cycle_graph, laplacian, path_graph, star_graph
from .oracle import ExhaustiveReport, check_monotonicity, exhaustive_check
from .sampling import (
    QualificationReport,
    SamplingPlan,
    critical_sampling_set,
    max_lin_indep_rows,
    qualify,
    reconstruct,
    sample,
    separate_sampling,
)
from .spectral import (
    EigenBasis,
    JointBasis,
    eig_sym,
    jft,
    joint_basis_columns,
    joint_columns_from_restricted,
    restrict_bases,
)

__all__ = [
    "EigenBasis",
    "ExhaustiveReport",
    "Graph",
    "JointBasis",
    "QualificationReport",
    "SamplingPlan",
    "SpectralSupport",
    "cartesian_laplacian",
    "check_monotonicity",
    "critical_sampling_set",
    "cycle_graph",
    "detect_support",
    "eig_sym",
    "exhaustive_check",
    "jft",
    "joint_basis_columns",
    "joint_columns_from_restricted",
    "laplacian",
    "max_lin_indep_rows",
    "path_graph",
    "qualify",
    "reconstruct",
    "restrict_bases",
    "sample",
    "separate_sampling",
    "star_graph",
    "synth_from_restricted",
    "synth_signal",
]

__version__ = "0.1.0"
