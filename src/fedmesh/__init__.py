"""Federated three-node decision-support runtime.

Isolated per-node datastores, HMAC case-token linkage, a cross-node
operation relay with a fail-closed leak guard, deterministic agent
policies, and an offline trace checker for the data-locality contract.
"""

from .datastore import (
    ClinicStore,
    ClinicalObservation,
    CoverageRule,
    EnrollmentRow,
    GuidanceDoc,
    InsurerStore,
    ProtectedValueIndex,
    coverage_rule,
    load_clinic_store,
    load_guidance,
    load_insurer_store,
    lookup_observation,
    match_enrollment,
    protected_values,
)
from .errors import FedmeshError
from .locality import (
    Finding,
    MessageEnvelope,
    Topology,
    TraceLog,
    Violation,
    check_trace,
    read_trace,
    scan_bodies,
    scan_outbound,
)
from .messages import (
    CoverageInquiry,
    CoverageVerdict,
    Recommendation,
    SpecialistConsult,
    parse_inquiry,
    render_inquiry,
)
from .policies import infer_treatment, prerequisites_satisfied
from .pseudonym import CanonicalId, CaseToken, SecretKey, derive_token, load_secret, normalize_id
from .relay import RelayRequest, RelayResponse, RelayTarget, relay_call, serve
from .runtime import Node, OperationConfig, handle_operation
from .scenario import boot_scenario, run_scenario

__version__ = "0.1.0"
