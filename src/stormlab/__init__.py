"""stormlab: variance-reduced stochastic optimizers with adaptive schedules.

The package is organized bottom-up:

* numerics    - float64 vectors and label-splittable random streams
* problems    - synthetic objectives with exact gradients and token oracles
* estimators  - recursive-momentum gradient estimators (pure transitions)
* schedules   - step-size and momentum laws
* optimizers  - run loops producing deterministic trace records
* analysis    - sandwich bounds, log-log rate fits, cross-seed summaries
* harness     - JSON config grids, CSV/JSON artifacts, property checks
"""

from .analysis import (
    SlopeFit,
    estimator_error_stats,
    fit_loglog_slope,
    prefix_power_sum_bounds,
    summarize,
)
from .estimators import (
    GradientTable,
    Snapshot,
    StaleSnapshotError,
    comp_grad_update,
    comp_inner_update,
    finite_sum_update,
    storm_init,
    storm_update,
    svrg_update,
    take_snapshot,
)
from .harness import (
    TRACE_HEADER,
    ExperimentConfig,
    GridResult,
    SummaryRow,
    load_config,
    load_summary,
    parse_config,
    run_grid,
    run_property_checks,
    write_outputs,
    write_trace_csv,
)
from .numerics import RngStream, as_vector, gaussian, norm_sq
from .optimizers import (
    ALGORITHMS,
    DivergenceError,
    RunRecord,
    warmup_batch_size,
    run_ada_storm,
    run_ada_storm_doubling,
    run_algorithm,
    run_comp_storm,
    run_fs_storm,
    run_fs_storm_svrg,
    run_sgd,
    run_storm_original,
)
from .problems import (
    CompositionalProblem,
    FiniteSumProblem,
    NoisyQuadratic,
    NonconvexSmooth,
    from_spec,
    grad_check,
    make_compositional,
    make_finite_sum,
    make_noisy_quadratic,
    make_nonconvex_smooth,
)
from .schedules import (
    ada_beta,
    ada_lr,
    doubling_params,
    finite_sum_beta,
    finite_sum_lr,
    stage_length,
    storm_original_params,
)

__version__ = "0.1.0"
