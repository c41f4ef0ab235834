"""Price-based coordination of selfish linear-dynamics agents.

A coordinator poses small games (prices, the shared coupling with the
other agents frozen, proximal probes) to N agents that each maximize a
private utility, learns what it needs from their responses, and steers the
joint action to the social optimum. See model for the world model and sign
conventions, agents for the priced best response, equilibrium and mechanism
for the play modes (whose stacked rounds solve every agent's best response)
and polling loop, parametric and geometry for the two learning paths,
numerics for the finite differences and the Newton root finder the solvers
share, oracle for independent reference optimizers, and cli for the
end-to-end driver.
"""

from .errors import (
    BestResponseError,
    ConfigError,
    CoordinationError,
    NonConvergenceError,
    RankDeficiencyError,
)
from .model import (
    CouplingFunction,
    LinearDynamics,
    QuadraticUtility,
    SmoothUtility,
    SystemInstance,
    coupling_gradient_error,
    cross_term_utility,
    decomposable_utility,
    joint_action,
    joint_next_state,
    pairwise_quadratic_coupling,
    replace_states,
    step,
    utility_gradient_error,
    zero_coupling,
)
from .agents import GameSpec, best_response
from .numerics import fd_gradient
from .oracle import OracleResult, joint_welfare, joint_welfare_opt
from .equilibrium import (
    SingleStageUpdate,
    TwoStageUpdate,
    default_schedule,
    estimate_cocoercivity,
    grid_gradient_bound,
    play_sequential,
    play_simultaneous,
    play_tikhonov,
    probe_utility_gradient,
    reward_field,
    single_stage_update,
    tracking_error_bound,
    two_stage_update,
    vi_project_iterate,
)
from .mechanism import (
    PLAY_MODES,
    PollingConfig,
    StageTrace,
    WeakCouplingReport,
    message_space_dimension,
    price_from_target,
    run_stage,
    social_welfare,
    weak_coupling_diagnostic,
)
from .parametric import (
    EstimatedQuadraticModel,
    ObservationLog,
    estimated_gradient,
    identify,
    load_log,
    optimal_price,
    save_log,
)
from .geometry import (
    ConnectionModel,
    KernelFieldModel,
    TrajectorySample,
    fit_connection,
    fit_decomposable,
    predict_field,
    sliding_connection,
    transport,
)
from .scenario import (
    COUPLING_SPECS,
    UTILITY_SPECS,
    ScenarioConfig,
    config_from_dict,
    generate,
    load_config,
    noise_streams,
    polling_config,
    separation_barrier_coupling,
)

__version__ = "0.1.0"

# the public names, without the submodules (of type(model)) the imports bind
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], type(model))]
