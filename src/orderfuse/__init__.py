"""Energy-efficient ordered decision fusion for distributed detection.

Library and simulator for a sensor network whose nodes make one-bit
local decisions and transmit them in order of informativeness, letting
the fusion center stop the network early once the counting-rule outcome
is forced. Includes the Gaussian tail numerics, the closed-form
operating characteristics, one known-geometry oracle baseline, and a
reproducible Monte Carlo harness measuring transmissions saved.
"""

__version__ = "0.1.0"

from .experiment import (
    AntsSummary,
    ExperimentConfig,
    SweepCell,
    SweepValueError,
    SWEEP_AXES,
    TrialRecord,
    cell_seed,
    monte_carlo,
    run_trial,
    sweep,
    trial_rng,
)
from .field import (
    Hypothesis,
    RoiConfig,
    SignalModel,
    generate_observations,
    oracle_amplitudes,
    oracle_distances,
    sample_field,
    signal_amplitude,
)
from .fusion import (
    FusionConfig,
    LocalDetector,
    OffCenterTargetError,
    TheoryCurves,
    counting_rule,
    local_decisions,
    system_pfa_approx,
    system_threshold,
    theory_curves,
    threshold_from_local_pfa,
)
from .ordering import (
    AntsBounds,
    Crossing,
    StoppedRun,
    ants_bounds,
    lr_schedule_and_run,
    run_ordered_counting,
    schedule,
)
from .statmath import (
    QuadratureConvergenceError,
    integrate,
    q_function,
    q_inverse,
)

__all__ = [
    "AntsBounds",
    "AntsSummary",
    "Crossing",
    "ExperimentConfig",
    "FusionConfig",
    "Hypothesis",
    "LocalDetector",
    "OffCenterTargetError",
    "QuadratureConvergenceError",
    "RoiConfig",
    "SignalModel",
    "StoppedRun",
    "SweepCell",
    "SweepValueError",
    "SWEEP_AXES",
    "TheoryCurves",
    "TrialRecord",
    "ants_bounds",
    "cell_seed",
    "counting_rule",
    "generate_observations",
    "integrate",
    "local_decisions",
    "lr_schedule_and_run",
    "monte_carlo",
    "oracle_amplitudes",
    "oracle_distances",
    "q_function",
    "q_inverse",
    "run_ordered_counting",
    "run_trial",
    "sample_field",
    "schedule",
    "signal_amplitude",
    "sweep",
    "system_pfa_approx",
    "system_threshold",
    "theory_curves",
    "threshold_from_local_pfa",
    "trial_rng",
]
