"""The checks that back a verdict, as `wricc verify` runs them.

`verify_instance` decides G and picks the checks the verdict gets.  On No
it checks the finite certificate by exact closure under a generating set
of G, or S(O, xi) by the premises of its invariance lemma
(`finite-certificate`), and asks the oracle whether the base's class lies
in the set (`oracle-containment`).  On Yes it draws `elements` elements
with `random.Random(seed)` and checks, for each, a prefix of its family
(`infinite-family[i]`) and that its class has more than `oracle_target`
conjugates (`oracle-growth[i]`).  An Unknown verdict gets no check.  Every
check is a `VerificationResult` whose reason is the detail the record
prints, and every PASS rests on at least one check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .decision import IccVerdict, decide_icc
from .errors import CertificateBudget, PreconditionError
from .groups import AT_LEAST, EXACT_FINITE
from .oracle import class_lower_bound, enumerate_class
from .tri import Tri
from .witness import (
    VerificationResult,
    format_size,
    verify_finite_certificate,
    verify_infinite_certificate,
    witness,
)
from .wreath import WreathProduct

# the most conjugates the oracle finds of a finite certificate's base
# when the certificate has more members than that
_CONTAINMENT_BUDGET = 2**17


@dataclass(frozen=True)
class VerifyReport:
    """The verdict, the seed the elements were drawn with, and each check
    by name, in the order it ran."""

    verdict: IccVerdict
    seed: int
    checks: dict[str, VerificationResult]

    @property
    def ok(self) -> bool:
        """PASS: at least one check ran, and every check passed."""
        return bool(self.checks) and all(self.checks.values())


def check_budgets(elements: int, prefix: int, oracle_target: int) -> None:
    """Refuse a budget that cannot back a Yes verdict, whatever G's verdict
    turns out to be: no element drawn would PASS on no check at all, and
    a family prefix below 2 or an oracle target below 1 tests nothing."""
    if elements < 1:
        raise PreconditionError("verify: --elements must be at least 1")
    if prefix < 2:
        raise PreconditionError("N must be at least 2")
    if oracle_target < 1:
        raise PreconditionError("class_lower_bound: target must be at least 1")


def verify_instance(
    G: WreathProduct, *, seed: int, elements: int = 5, prefix: int = 100, oracle_target: int = 200
) -> VerifyReport:
    """Decide G and run the checks its verdict gets (see the module
    docstring).  A containment check that neither passes nor fails within
    `_CONTAINMENT_BUDGET` conjugates raises `CertificateBudget`."""
    check_budgets(elements, prefix, oracle_target)
    v = decide_icc(G)
    checks = {}
    if v.answer is Tri.NO:
        cert = witness(G, v)
        res = verify_finite_certificate(G, cert)
        checks["finite-certificate"] = VerificationResult(
            res.ok, f"size {format_size(cert.size)}; {res.reason}", res.counterexample
        )
        # a class inside the set has at most |S| members, so the closure
        # needs no round budget: it closes, or it passes |S| (a FAIL) or
        # the conjugate budget
        budget = min(cert.size, _CONTAINMENT_BUDGET)
        rep = enumerate_class(G, cert.base, math.inf, budget + 1)
        if rep.status != EXACT_FINITE and budget < cert.size:
            # neither PASS nor FAIL: the class may still lie in the set
            raise CertificateBudget(
                f"oracle-containment: the class of the base has more than "
                f"{_CONTAINMENT_BUDGET} conjugates, the oracle's budget"
            )
        S = cert.elements
        contained = rep.status == EXACT_FINITE and all(x in S for x in rep.elements)
        checks["oracle-containment"] = VerificationResult(
            contained, f"oracle {rep.status} count {rep.count} within certificate"
        )
    elif v.answer is Tri.YES:
        rng = random.Random(seed)
        for i in range(elements):
            g = G.random_nontrivial_element(rng)
            fam = witness(G, v, g)
            res = verify_infinite_certificate(G, fam, N=prefix)
            checks[f"infinite-family[{i}]"] = VerificationResult(
                res.ok,
                f"{fam.family_kind} on {G.format_element(g)}; {res.reason}",
                res.counterexample,
            )
            rep, used = class_lower_bound(G, g, oracle_target)
            checks[f"oracle-growth[{i}]"] = VerificationResult(
                rep.status == AT_LEAST and rep.count >= oracle_target,
                f"{rep.count} distinct conjugates within radius {used}",
            )
    return VerifyReport(v, seed, checks)
