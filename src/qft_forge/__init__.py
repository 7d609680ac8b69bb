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

The top level re-exports only the entry points README.md documents; the
rest of the API is imported from its module.
"""

from .bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    UContour,
    combine_with_ucontour,
    disturbance_bound,
    horowitz_bound,
    interpolate_bound_array,
)
from .config import load_config
from .errors import QftError
from .lti import to_nichols
from .optimizer import SweepScreen, design_pi_pd, design_pid, loop_margins
from .pipeline import run_command
from .plant import evaluate_plant_array, generate_templates
from .svgchart import emit_nichols_svg
from .verify import brute_force_design, closed_loop_envelope, verify_design

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QftError",
    "NO_CONSTRAINT",
    "INFEASIBLE",
    "load_config",
    "generate_templates",
    "run_command",
    "evaluate_plant_array",
    "to_nichols",
    "horowitz_bound",
    "disturbance_bound",
    "UContour",
    "combine_with_ucontour",
    "interpolate_bound_array",
    "design_pid",
    "design_pi_pd",
    "SweepScreen",
    "loop_margins",
    "verify_design",
    "closed_loop_envelope",
    "brute_force_design",
    "emit_nichols_svg",
]
