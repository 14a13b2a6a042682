"""Execution engine: RunConfig, artifact cache, and the parallel runner.

The public surface of the sweep machinery:

- :class:`RunConfig` — one frozen, serialisable value object for every
  execution knob (scheme, tier, machine, seed, budget, retries, faults,
  validation, jobs, cache policy).
- :class:`ArtifactCache` — content-addressed on-disk store for prepared
  programs and scheme outcomes.
- :class:`ParallelRunner` / :class:`SweepResult` — process-pool fan-out
  of benchmark x scheme x latency x tier cells, resilient per cell.
"""

from .cache import ArtifactCache, canonical_key, content_sha, default_cache_dir
from .engine import (
    ParallelRunner,
    SweepResult,
    load_or_prepare,
    lookup_cached_outcome,
    run_cell,
    run_prepared_scheme,
)
from .runconfig import (
    CACHE_POLICIES,
    MACHINE_PRESETS,
    POINTSTO_TIERS,
    PROFILE_MODES,
    SCHEMA_VERSION,
    SCHEMES,
    RunConfig,
    RunConfigError,
)

__all__ = [
    "ArtifactCache",
    "CACHE_POLICIES",
    "MACHINE_PRESETS",
    "POINTSTO_TIERS",
    "PROFILE_MODES",
    "ParallelRunner",
    "RunConfig",
    "RunConfigError",
    "SCHEMA_VERSION",
    "SCHEMES",
    "SweepResult",
    "canonical_key",
    "content_sha",
    "default_cache_dir",
    "load_or_prepare",
    "lookup_cached_outcome",
    "run_cell",
    "run_prepared_scheme",
]
