"""Sequential online chore division: model, mechanisms, metrics, experiments.

A convoy of agents shares one recurring chore (leading the convoy) while
membership changes over time. This package provides the timing model with
exact rational arithmetic, three allocation mechanisms (payment transfer,
repeated-game load balancing, and single-game load balancing, also with
dynamic adjustment), each run by `run_mechanism`, fairness and efficiency
metrics, and two reproducible simulation experiments with a command-line
front end.
"""

from .mechanisms import (
    Ledger,
    MechanismKind,
    MechanismOutcome,
    Payment,
    net_utilities,
    run_mechanism,
)
from .metrics import (
    UNSATISFIED_THRESHOLD,
    AllZeroSample,
    ConvergenceCurve,
    EmptySample,
    ParticipationRecord,
    ZeroEpps,
    gini,
    unsatisfied_fraction,
)
from .model import (
    ActivePeriod,
    AgentSpec,
    DuplicateArrival,
    EmptyStream,
    EmptyWindow,
    GameParams,
    InvalidPresentSet,
    Schedule,
    Segment,
    ShareReport,
    StreamShares,
    SwitchEvent,
    SwitchKind,
    UnknownAgent,
    Violation,
    as_time,
    eas_segments,
    efficiency,
    eps_segments,
    ex_ante_share,
    ex_post_share,
    game_duration,
    stream_segments,
    stream_shares,
    validate_schedule,
    validate_stream,
)
from .simulation import (
    HIGHWAY_MECHANISMS,
    ExperimentResult,
    HighwayParams,
    RingRoadParams,
    aggregate_curves,
    highway_experiment,
    ring_road_experiment,
    sample_stream,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ActivePeriod",
    "AgentSpec",
    "DuplicateArrival",
    "EmptyStream",
    "EmptyWindow",
    "GameParams",
    "InvalidPresentSet",
    "Schedule",
    "Segment",
    "ShareReport",
    "StreamShares",
    "SwitchEvent",
    "SwitchKind",
    "UnknownAgent",
    "Violation",
    "as_time",
    "eas_segments",
    "efficiency",
    "eps_segments",
    "ex_ante_share",
    "ex_post_share",
    "game_duration",
    "stream_segments",
    "stream_shares",
    "validate_schedule",
    "validate_stream",
    # mechanisms
    "Ledger",
    "MechanismKind",
    "MechanismOutcome",
    "Payment",
    "net_utilities",
    "run_mechanism",
    # metrics
    "UNSATISFIED_THRESHOLD",
    "AllZeroSample",
    "ConvergenceCurve",
    "EmptySample",
    "ParticipationRecord",
    "ZeroEpps",
    "gini",
    "unsatisfied_fraction",
    # simulation
    "HIGHWAY_MECHANISMS",
    "ExperimentResult",
    "HighwayParams",
    "RingRoadParams",
    "aggregate_curves",
    "highway_experiment",
    "ring_road_experiment",
    "sample_stream",
]
