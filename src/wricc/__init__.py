"""Computable restricted wreath products with an icc decision procedure and
machine-verifiable certificates for both verdicts."""

from .decision import IccVerdict, decide_icc, decide_icc_free
from .errors import (
    CertificateBudget,
    EmptyOmega,
    KindMismatch,
    NotFreeAction,
    ParseError,
    PreconditionError,
    TrivialD,
    Unsupported,
    UnsupportedQKind,
    WriccError,
)
from .groups import (
    AT_LEAST,
    EXACT_FINITE,
    ClassReport,
    CyclicGroup,
    DirectProductGroup,
    FreeGroup,
    Group,
    IccStatus,
    IntegersGroup,
    SymmetricGroup,
    class_enum_bounded,
)
from .instances import InstanceSpec, build_wreath, parse_group, parse_instance, parse_omega
from .oracle import class_lower_bound, enumerate_class
from .qsets import (
    DisjointUnionQSet,
    FiniteExplicitQSet,
    IntModQSet,
    QSet,
    RegularQSet,
    TrivialQSet,
    orbit_bounded,
)
from .tri import Tri
from .witness import (
    FiniteClassCertificate,
    InfiniteFamilyCertificate,
    VerificationResult,
    cert_condition_i,
    cert_finite_orbit,
    family_gd,
    family_lambda_translation,
    family_q_translation,
    family_value_conjugation,
    find_moved_point,
    predicted_invariant_sets,
    verify_finite_certificate,
    verify_infinite_certificate,
    witness,
)
from .wreath import WreathElement, WreathProduct, support

__version__ = "0.1.0"
