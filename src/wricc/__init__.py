"""Computable restricted wreath products with an icc decision procedure and
machine-verifiable certificates for both verdicts.

The package exports the names that README and the `wricc` command use;
every other name is imported from its module."""

from .decision import decide_icc
from .errors import ParseError, PreconditionError, WriccError
from .groups import AT_LEAST, EXACT_FINITE, ClassReport
from .instances import InstanceSpec, parse_instance
from .oracle import class_lower_bound, enumerate_class
from .tri import Tri
from .verify import VerifyReport, verify_instance
from .witness import (
    FiniteClassCertificate,
    verify_finite_certificate,
    verify_infinite_certificate,
    witness,
)

__version__ = "0.1.0"
