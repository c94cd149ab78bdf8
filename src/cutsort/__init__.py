"""Cut-and-paste sorting of permutations with verifiable bounds."""

from .metrics import (
    BoundCertificate,
    Mode,
    Orientation,
    certify_lower_bound,
    even_before_odd,
    hard_witnesses,
    max_parity_delta,
    parity_adjacencies,
)
from .oracle import (
    DistanceTable,
    ResourceGuardError,
    bfs_distance,
    build_table,
    rank_permutation,
    unrank_permutation,
    verify_certificates,
)
from .perm import (
    InputError,
    Move,
    MoveKind,
    ParseError,
    Permutation,
    ReplayError,
    Trace,
    TraceNote,
    adjacencies,
    apply_move,
    canonical_move_count,
    enumerate_moves,
    format_permutation,
    format_trace,
    is_identity,
    parse_permutation,
    parse_trace,
    random_permutation,
    replay,
)
from .sorter import (
    DiagnosticFailure,
    SortResult,
    SortStep,
    StepCategory,
    audit_result,
    longest_monotone,
    plan_step,
    sort_basic,
    sort_insertion,
    sort_monotone,
    sort_refined,
)

__all__ = [name for name in dir() if not name.startswith("_")]
