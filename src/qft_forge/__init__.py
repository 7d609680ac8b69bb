"""qft-forge: frequency-domain robust control design.

The package turns parametric plant uncertainty into explicit Nichols-chart
constraints and shapes a PID (or PI/PD) controller of least derivative gain
against them:

- :mod:`qft_forge.lti` — transfer-function evaluation, dB/phase helpers,
  constant-closed-loop-magnitude circle analytics.
- :mod:`qft_forge.expr` — arithmetic expressions for plant coefficients.
- :mod:`qft_forge.plant` — uncertain plant families and their frequency
  templates (with Nichols-plane convex hulls).
- :mod:`qft_forge.bounds` — tracking-spread and sensitivity bounds by
  bisection, the high-frequency stability contour, bound combination.
- :mod:`qft_forge.optimizer` — the phase-pair kernel search minimising the
  derivative gain, plus PI/PD specialisations and the derivative-filter
  gain map.
- :mod:`qft_forge.verify` — margins, dense stability sweep, closed-loop
  tracking envelope, and the brute-force gain-box oracle.
- :mod:`qft_forge.config` / :mod:`qft_forge.pipeline` /
  :mod:`qft_forge.cli` — JSON run configs, stage orchestration with CSV/SVG
  artifacts, and the ``qft-forge`` command.
"""

from .bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    DisturbanceSpec,
    TrackingSpec,
    UContour,
    combine_with_ucontour,
    delta_spread,
    disturbance_bound,
    disturbance_gain,
    horowitz_bound,
    horowitz_gain,
    interpolate_bound,
    make_phase_grid,
    performance_bound,
    u_contour,
)
from .config import (
    DesignConfig,
    DesignOptions,
    config_to_dict,
    load_config,
    parse_config_dict,
)
from .errors import QftError
from .expr import CoefficientExpression, parse_coefficient_expr
from .lti import (
    RationalTransferFunction,
    db,
    eval_tf,
    m_circle_gains,
    m_circle_phase_range,
    to_nichols,
    undb,
    wrap_phase,
)
from .optimizer import (
    INTERPOLATION_TOLERANCE_DB,
    DesignProblem,
    DesignResult,
    GainMap,
    KernelDirection,
    PidGains,
    SweepScreen,
    beta_scaling,
    candidate_from_kernel,
    design_pi_pd,
    design_pid,
    filtered_derivative_transform,
    kernel_direction,
    loop_margins,
    phase_window,
    pid_frequency_response,
)
from .pipeline import COMMANDS, RunArtifacts, run_command
from .plant import (
    ParameterSpec,
    Template,
    TemplatePoint,
    UncertainPlant,
    convex_hull_nichols,
    evaluate_plant_array,
    generate_templates,
)
from .svgchart import emit_nichols_svg
from .verify import (
    SLACK_TOLERANCE_DB,
    GainAxis,
    OracleBox,
    OracleResult,
    VerificationReport,
    brute_force_design,
    closed_loop_envelope,
    default_dense_grid,
    default_prefilter,
    verify_design,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QftError",
    # lti
    "RationalTransferFunction",
    "db",
    "undb",
    "eval_tf",
    "wrap_phase",
    "to_nichols",
    "m_circle_gains",
    "m_circle_phase_range",
    # expr
    "CoefficientExpression",
    "parse_coefficient_expr",
    # plant
    "ParameterSpec",
    "UncertainPlant",
    "Template",
    "TemplatePoint",
    "generate_templates",
    "evaluate_plant_array",
    "convex_hull_nichols",
    # bounds
    "NO_CONSTRAINT",
    "INFEASIBLE",
    "TrackingSpec",
    "DisturbanceSpec",
    "BoundCurve",
    "UContour",
    "make_phase_grid",
    "delta_spread",
    "horowitz_gain",
    "horowitz_bound",
    "disturbance_gain",
    "disturbance_bound",
    "performance_bound",
    "u_contour",
    "combine_with_ucontour",
    "interpolate_bound",
    # optimizer
    "PidGains",
    "pid_frequency_response",
    "KernelDirection",
    "kernel_direction",
    "DesignProblem",
    "DesignResult",
    "SweepScreen",
    "beta_scaling",
    "candidate_from_kernel",
    "phase_window",
    "loop_margins",
    "design_pid",
    "design_pi_pd",
    "GainMap",
    "filtered_derivative_transform",
    "INTERPOLATION_TOLERANCE_DB",
    # verify
    "SLACK_TOLERANCE_DB",
    "VerificationReport",
    "verify_design",
    "closed_loop_envelope",
    "default_prefilter",
    "default_dense_grid",
    "GainAxis",
    "OracleBox",
    "OracleResult",
    "brute_force_design",
    # config / pipeline / figures
    "DesignConfig",
    "DesignOptions",
    "load_config",
    "parse_config_dict",
    "config_to_dict",
    "COMMANDS",
    "RunArtifacts",
    "run_command",
    "emit_nichols_svg",
]
