"""Asynchrony-resilient, dynamically available total-order broadcast:
protocol library, deterministic round-based simulator, model validators,
and trace oracles."""

from .core import (
    EMPTY_LOG,
    GENESIS,
    Log,
    ProcessId,
    ProposeMsg,
    Value,
    VoteMsg,
    compatible,
    conflicts,
    is_prefix,
    longest_common_prefix,
    vrf_eval,
)
from .ga import (
    GaOutput,
    GaRecord,
    InitialVoteSet,
    ForgeryError,
    grade,
    merge_latest,
    tally,
)
from .model_checks import ModelParams, beta_tilde, check_all
from .tob import ProcessState, latest_unexpired, view_of
from .world import (
    AdversaryStrategy,
    Schedule,
    Trace,
    constant_schedule,
    generate_schedule,
    run,
    strategy_prop1,
    strategy_split_decision,
)

__version__ = "0.1.0"
