"""Default size bounds, the default worker count, the budget override and
the verify suites."""

from __future__ import annotations

import os

# Largest field table we will build (q = p^r).
FIELD_SIZE_BOUND = 512

# Largest trial divisor factorize will try: every n below its square
# factors, and a larger n with no other prime factor up to it is refused.
FACTOR_TRIAL_BOUND = 1 << 20

# Largest number of matrices enumerate_gl will walk (q^(m*m) candidates).
GL_ENUMERATION_BOUND = 1_000_000

# Largest graph any constructor will emit.
VERTEX_BOUND = 20_000

# Census node budget: one node per clique of size >= 1 visited by the search.
CENSUS_NODE_BUDGET = 1_000_000

BUDGET_ENV_VAR = "RINGLINE_BUDGET"

# The criteria each `verify` suite runs; here, not in `verification`, so
# that the CLI parser offers the suite names without importing it.
SUITES = {
    "matrix": [1, 2, 3, 4, 5, 8],
    "commutative": [6, 7, 13],
    "partitions": [9, 12],
    "identities": [10],
    "fixtures": [11],
    "all": list(range(1, 14)),
}


def _default_workers() -> int:
    """The CPUs this process may run on: the CLI's worker default and the
    cap on every search's process pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def budget_from_env() -> int:
    """Census node budget, honouring the RINGLINE_BUDGET override."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return CENSUS_NODE_BUDGET
    if not raw.strip().isdecimal() or int(raw) <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return int(raw)
