"""repro.serve — the overload-safe report-intake service.

Turns the batch/stream pipeline into a long-running, request-driven
system: an HTTP-shaped submit/status/query surface, a bounded ingest
queue behind token-bucket admission control, a degradation controller
fed by the enrichment tier's breakers and meter budgets, deadline
propagation into every retried service call, and a commit/resume
protocol that keeps processing exactly-once across kills.
"""

from .admission import (
    REJECTION_REASONS,
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejection,
    ReporterBucket,
)
from .degrade import DegradationController, ModeTransition, ServeMode
from .harness import charged_calls, serve_fingerprint
from .load import LOAD_PROFILES, Arrival, LoadSpec, generate_schedule
from .queue import BoundedQueue, QueueItem
from .service import (
    FRONT_DOOR_REASONS,
    SERVE_MANIFEST_NAME,
    IntakeService,
    Request,
    Response,
    ServeConfig,
)
from .state import ServeState

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionRejection",
    "Arrival",
    "BoundedQueue",
    "DegradationController",
    "FRONT_DOOR_REASONS",
    "IntakeService",
    "LOAD_PROFILES",
    "LoadSpec",
    "ModeTransition",
    "QueueItem",
    "REJECTION_REASONS",
    "ReporterBucket",
    "Request",
    "Response",
    "SERVE_MANIFEST_NAME",
    "ServeConfig",
    "ServeMode",
    "ServeState",
    "charged_calls",
    "generate_schedule",
    "serve_fingerprint",
]
