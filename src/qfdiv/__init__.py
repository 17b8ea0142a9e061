"""Quantum f-divergences and the conditional entropies they define.

Finite-dimensional density matrices only.  The package is organized in
layers, each importing only from the layers listed before it (the shared
:mod:`qfdiv.errors` and :mod:`qfdiv.rng` sit at the bottom):

- :mod:`qfdiv.linalg`: the density-operator type, of which a factored state
  is one, the one kernel rule for the spectrum of a positive operator
  (eigensolve, PSD check, kernel clamped to exact zeros), supports, partial
  traces.
- :mod:`qfdiv.fdiv`: the divergence-function catalog and the classical and
  quantum f-divergence engines (spectral form plus epsilon-sweep validation).
- :mod:`qfdiv.condent`: conditional entropies -- generic minimization over the
  conditioning marginal, closed forms, bounds, and register-state formulas.
- :mod:`qfdiv.channels`: Kraus channels and seeded random generators.
- :mod:`qfdiv.propsuite`: the seeded property-test suite with JSON reports.
- :mod:`qfdiv.cli`: the ``qfdiv`` command-line interface.
"""

from .channels import (
    KrausChannel,
    apply_channel,
    build_classical_register_state,
    embed_ancilla,
    pure_bipartite_from_schmidt,
    random_channel,
    random_density,
)
from .condent import (
    OptimizationReport,
    OptimizerOptions,
    alpha_log,
    chain_rule_rhs,
    classical_register_closed_form,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    pure_state_bounds_tsallis,
    thm2_bounds,
    tsallis_entropy,
)
from .errors import ConvergenceError, DomainError, PreconditionError
from .fdiv import (
    DivergenceFunction,
    csiszar_divergence,
    make_tsallis_f,
    quantum_f_divergence,
    quantum_f_divergence_eps_sweep,
    tsallis_divergence_closed,
    vn_relative_entropy_closed,
)
from .linalg import (
    BipartiteState,
    DensityOperator,
    partial_trace,
    support_projector,
)
from .propsuite import PropertyConfig, PropertyReport, run_property, run_suite

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "ConvergenceError",
    "DensityOperator",
    "DivergenceFunction",
    "DomainError",
    "KrausChannel",
    "OptimizationReport",
    "OptimizerOptions",
    "PreconditionError",
    "PropertyConfig",
    "PropertyReport",
    "alpha_log",
    "apply_channel",
    "build_classical_register_state",
    "chain_rule_rhs",
    "classical_register_closed_form",
    "conditional_entropy_optimize",
    "conditional_entropy_tsallis_closed",
    "csiszar_divergence",
    "embed_ancilla",
    "make_tsallis_f",
    "partial_trace",
    "pure_bipartite_from_schmidt",
    "pure_state_bounds_tsallis",
    "quantum_f_divergence",
    "quantum_f_divergence_eps_sweep",
    "random_channel",
    "random_density",
    "run_property",
    "run_suite",
    "support_projector",
    "thm2_bounds",
    "tsallis_divergence_closed",
    "tsallis_entropy",
    "vn_relative_entropy_closed",
]
