"""End-to-end pipeline: preparation, the four Table-1 schemes, and the
one-call driver."""

from .driver import Pipeline
from .prepared import PreparedProgram
from .schemes import (
    SCHEME_TABLE,
    finalize_and_evaluate,
    SchemeOutcome,
    run_scheme,
)

__all__ = [
    "Pipeline",
    "PreparedProgram",
    "SCHEME_TABLE",
    "finalize_and_evaluate",
    "SchemeOutcome",
    "run_scheme",
]
