"""Joint state and unknown-input estimation for linear discrete-time systems.

The package provides two optimal recursive filters (an updated-estimate and a
propagated-estimate variant), an ordinary-least-squares variant, and the
Kalman special case, together with the structural tests (joint observability,
strong detectability, convergence certificates) that decide when they apply,
a seeded simulation harness, and a CLI.
"""

__version__ = "0.1.0"

from .decomposition import (
    OutputDecomposition,
    decompose,
    decompose_cached,
    decoupled_dynamics,
)
from .errors import (
    ConfigError,
    EstimabilityError,
    GainConstructionError,
    InvalidInputError,
    LiseError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .filters import (
    GammaPolicy,
    PliseState,
    StepOutput,
    UliseState,
    compute_gain_L,
    cywz_init,
    cywz_step,
    kalman_init,
    kalman_step,
    plise_init,
    plise_step,
    ulise_init,
    ulise_step,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    expm,
    pinv,
    psd_sqrt,
    rank,
)
from .model import (
    ContinuousModel,
    SystemModel,
    SystemStep,
    Violation,
    c2d_zoh,
    validate,
)
from .signals import Constant, Ramp, Samples, SignalSpec, SquareWave, Step
from .simulate import (
    FILTER_NAMES,
    FilterFailure,
    FilterRun,
    RunResult,
    Scenario,
    TruthTrajectories,
    empirical_error_covariance,
    run_scenario,
    simulate_truth,
    write_step_csv,
    write_summary_csv,
)
from .structural import (
    CertificateVerdict,
    DetectabilityVerdict,
    InvariantZeros,
    ObservabilityMatrices,
    StructuralReport,
    analyze,
    build_observability_matrices,
    invariant_zeros,
    plise_stability_check,
    strong_detectability,
    strong_observability_ti,
    strong_observability_tv,
    ulise_convergence_check,
)
