"""Exact simulator and analytic bounds for 1D culture/opinion dynamics."""

from .core import (
    CapacityError,
    Configuration,
    InvalidInput,
    ModelParams,
    OpinionConfig,
    Topology,
    UnsupportedProjection,
    UnsupportedTopology,
    cvm_projection,
    is_absorbed,
    random_config,
    random_opinions,
    voter_projection,
)
from .engine import (
    AXELROD,
    CVM,
    VOTER,
    GraphicalDraw,
    Snapshot,
    StopRule,
    Trajectory,
    classify_delta_w,
    propose_and_apply,
    replicate_seeds,
    run_model,
)
from .events import EventTable, UpdateEvent
from .stats import (
    DomainStats,
    EdgeCensus,
    count_domains,
    domains_equals_w0_plus_1,
    edge_census,
    flip_count,
)
from .urn import (
    RoundsRecord,
    UrnState,
    urn_coupled_step,
    urn_exact_expectation,
    urn_init,
    urn_potentials,
    urn_rounds_run,
)
from .bounds import (
    BoundResult,
    PoleError,
    binom_pj,
    psi_mean_field,
    rounds_expectations,
    table1_generate,
    theorem2_bound,
)
from .duality import (
    Arrow,
    ArrowLog,
    DualityReport,
    DualWalkResult,
    arrow_log_from_trajectory,
    check_voter_duality,
    trace_dual_walk,
    trace_lineage,
)
from .logio import (
    LogBundle,
    atomic_write_text,
    event_log_text,
    final_stats_row,
    load_event_log,
    replay,
    save_event_log,
)
from .experiments import (
    ConditionalEstimate,
    ExperimentConfig,
    ExperimentSummary,
    estimate_lemma_0edge_probability,
    execute,
)

__version__ = "0.1.0"
