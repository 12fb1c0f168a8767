"""The benchmark's three workloads: their inputs, operations and checks.

Each workload is a fixed round of operations, whose inputs `make_round`
draws from the run's seeded generator.  `check` functions use only the
reference arithmetic and facts in `reference.py`, never a stored copy of
an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from reference import FACTS, free_literal, random_free_word

ICC_PREFIX = 100  # the family prefix `wricc verify` checks per element
ORACLE_TARGET = 200  # the conjugates `wricc verify` asks the oracle for
MAX_RADIUS = 512
STREAM_PREFIX = 2000  # certificate-stream: members verified per operation

COUNTEREXAMPLE_GROUP = "s3-union"
COUNTEREXAMPLE_FAULT = (
    "verify_finite_certificate accepted a set that is not conjugation-invariant: "
    "G.generators span only a subgroup"
)
# acts by 0 with its only value on the int-mod part of mixed-union-icc-base;
# the oracle explores only the subgroup G.generators span, where this class
# closes at 3 conjugates, although G is icc
ORACLE_COUNTEREXAMPLE = "{(1; 0):a^-2*b^-1*a*b^-1}@0"
ORACLE_FAULT = "oracle: exact-finite-under-gens, 3 conjugates within radius 8"


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], str | None]  # None when the output is correct
    known_fault: str | None = None  # the one failure reason that is expected


class Context:
    """What the operations of one run share: the imported program, the
    parsed instances, and paths."""

    def __init__(self, wricc, cli, specs, root: Path):
        self.wricc = wricc
        self.cli = cli
        self.specs = specs
        self.root = root

    def instance_path(self, name) -> str:
        return str(self.root / "src" / "wricc" / "instances_data" / f"{name}.wri")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def answer(facts) -> str:
    """The verdict the paper's criterion gives, as `wricc` prints it."""
    return "yes" if facts.icc else "no"


def check_family(facts, g, fam, n) -> str | None:
    """The family the proof prescribes, and a prefix of n pairwise
    distinct members, each recomputed with the reference arithmetic."""
    expect = facts.family_kind(g.q)
    if fam.family_kind != expect:
        return f"family {fam.family_kind}, expected {expect}"
    W = facts.group
    base = ref.from_program(g)
    prefix = fam.take(n)
    if len(prefix) != n:
        return f"prefix has {len(prefix)} members, expected {n}"
    seen = set()
    for h, conj in prefix:
        c = ref.from_program(conj)
        if W.conj(base, ref.from_program(h)) != c:
            return "member differs from the reference conjugate"
        seen.add(c)
    if len(seen) != n:
        return f"only {len(seen)} of {n} members are distinct"
    return None


def check_finite_certificate(facts, cert) -> str | None:
    """Provenance, the size the proof's formula gives, and exact closure
    under a true generating set of G."""
    W = facts.group
    if cert.provenance != facts.finite_provenance:
        return f"provenance {cert.provenance}, expected {facts.finite_provenance}"
    S = {ref.from_program(e) for e in cert.elements}
    if W.one in S:
        return "identity in the certificate"
    if ref.from_program(cert.base) not in S:
        return "base element missing"
    if facts.kernel_meets_fc:
        if any(phi for phi, _ in S) or len(S) != facts.q0_class:
            return f"condition-(i) set of size {len(S)}, expected |q0^Q| = {facts.q0_class}"
    else:
        if any(q != W.Q.one for _, q in S):
            return "finite-orbit set has a nontrivial acting part"
        points = {y for phi, _ in S for y, _ in phi}
        values = {d for phi, _ in S for _, d in phi}
        orbit_closed = all(W.omega.act(s, y) in points for s in W.Q.gens for y in points)
        if len(points) != facts.finite_orbit or not orbit_closed:
            return f"support {sorted(map(repr, points))} is not a finite orbit"
        size = (len(values) + 1) ** facts.finite_orbit - 1
        if len(S) != size:
            return f"size {len(S)}, formula gives {size}"
    bad = W.closure_counterexample(S)
    if bad is not None:
        return f"not closed: {bad[0]!r} conjugated by {bad[1]!r} gives {bad[2]!r}"
    return None


# ---------------------------------------------------------------------------
# element literals drawn from the run's generator
# ---------------------------------------------------------------------------


def _map_literal(items):
    return "{" + ", ".join(f"{y}:{d}" for y, d in items) + "}"


def _free_values(rng, points):
    return [(y, free_literal(random_free_word(rng, 1, 4))) for y in points]


def _nonzero(rng):
    return rng.choice([k for k in range(-20, 21) if k])


def lamplighter(rng, translation):
    if translation:
        # the oracle's cost for {}@k grows with |k| up to 16, then stays
        return "{}@" + str(rng.choice([-1, 1]) * rng.randint(16, 20))
    pts = rng.sample(range(-20, 21), rng.randint(1, 3))
    return _map_literal((y, 1) for y in pts) + "@" + str(rng.randint(-20, 20))


def f2_over_z2(rng, q):
    pts = rng.sample([0, 1], rng.randint(0 if q else 1, 2))
    return _map_literal(_free_values(rng, pts)) + f"@{q}"


def mixed_union(rng, moving):
    """Part 0 is the regular carrier, part 1 is int-mod 3."""
    pool = [f"(0; {k})" for k in range(-20, 21)] + [f"(1; {k})" for k in range(3)]
    pts = rng.sample(pool, rng.randint(0 if moving else 1, 2))
    q = _nonzero(rng) if moving else 0
    return _map_literal(_free_values(rng, pts)) + f"@{q}"


def z2_over_f2(rng, moving):
    pool = sorted({free_literal(random_free_word(rng, 0, 3)) for _ in range(6)})
    pts = rng.sample(pool, min(len(pool), rng.randint(0 if moving else 1, 2)))
    q = free_literal(random_free_word(rng, 1, 3)) if moving else "1"
    return _map_literal((y, 1) for y in pts) + "@" + q


def family_op(ctx, name, literal, prefix, oracle_target=None, known_fault=None):
    """Decide, build the infinite family for one element and verify a
    prefix of it; with `oracle_target`, also check the element's class
    growth with the oracle, as `wricc verify` does for each element."""
    G = ctx.specs[name].group
    g = G.parse_element(literal)
    facts = FACTS[name]
    w = ctx.wricc

    def run():
        verdict = w.decide_icc(G)
        fam = w.witness(G, verdict, g)
        res = w.verify_infinite_certificate(G, fam, N=prefix)
        growth = w.class_lower_bound(G, g, oracle_target) if oracle_target else None
        return verdict, fam, res, growth

    def check(result):
        verdict, fam, res, growth = result
        if str(verdict.answer) != answer(facts):
            return f"verdict {verdict.answer}, the criterion gives {answer(facts)}"
        if not res:
            return f"verification failed: {res.reason}"
        reason = check_family(facts, g, fam, prefix)
        if reason is None and growth is not None:
            rep, radius = growth
            if rep.status != "at-least" or rep.count < oracle_target or radius > MAX_RADIUS:
                reason = f"oracle: {rep.status}, {rep.count} conjugates within radius {radius}"
        return reason

    return Op(f"{name} {literal}", run, check, known_fault)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class IccGrowth:
    """Each element is verified as `wricc verify` does on a Yes verdict: a
    100-member family prefix, then the oracle's growth check, which is
    nearly all of the time.  The lamplighter translation escalates to
    radius 32; the f2-wr-z2 and mixed-union-icc-base elements fill
    `max_size` at radius 8.  One more element, the same in every round,
    has a class the oracle wrongly finds finite (a known fault)."""

    name = "icc-growth"
    instances = ["lamplighter", "f2-wr-z2", "mixed-union-icc-base"]
    extra = {}
    ELEMENTS = [
        ("lamplighter", lambda rng: lamplighter(rng, True)),
        ("f2-wr-z2", lambda rng: f2_over_z2(rng, 1)),
        ("mixed-union-icc-base", lambda rng: mixed_union(rng, True)),
        ("mixed-union-icc-base", lambda rng: mixed_union(rng, True)),
    ]

    def make_round(self, rng, ctx):
        ops = [
            family_op(ctx, name, make(rng), ICC_PREFIX, ORACLE_TARGET)
            for name, make in self.ELEMENTS
        ]
        fixed = family_op(
            ctx,
            "mixed-union-icc-base",
            ORACLE_COUNTEREXAMPLE,
            ICC_PREFIX,
            ORACLE_TARGET,
            known_fault=ORACLE_FAULT,
        )
        return ops + [fixed]


class FiniteClosure:
    """`wricc verify` on the non-icc instances: the sampled closure check
    of the finite certificate is nearly all of the time.  One more
    operation verifies a set that is not invariant (a known fault)."""

    name = "finite-closure"
    instances = ["s3-wr-s3", "z2-wr-s3", "mixed-union", "intmod-cond-i", "trivial-omega"]
    extra = {COUNTEREXAMPLE_GROUP: "{D: symmetric 3; Q: integers; omega: union(regular, int-mod 3)}"}

    def make_round(self, rng, ctx):
        ops = [self._verify(ctx, name, rng.randrange(2**31)) for name in self.instances]
        return ops + [self._counterexample(ctx)]

    def _verify(self, ctx, name, seed):
        facts = FACTS[name]
        G = ctx.specs[name].group
        argv = ["verify", "-i", ctx.instance_path(name), "--json", "--seed", str(seed)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = ctx.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, stdout = result
            try:
                record = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return f"no JSON record (exit {code})"
            if record.get("answer") != answer(facts):
                return f"answer {record.get('answer')}, the criterion gives {answer(facts)}"
            if code != 0 or record.get("result") != "PASS":
                return f"exit {code}, result {record.get('result')}: {record.get('checks')}"
            # `witness` takes no seed on a No verdict, so this rebuilds the
            # certificate that `wricc verify` checked
            cert = ctx.wricc.witness(G, ctx.wricc.decide_icc(G))
            return check_finite_certificate(facts, cert)

        return Op(f"wricc verify -i {name}.wri --seed {seed}", run, check)

    def _counterexample(self, ctx):
        """The 7 maps on part 1 (the int-mod 3 part) whose only value is the
        transposition [1,0,2].  It does not depend on the seed."""
        G = ctx.specs[COUNTEREXAMPLE_GROUP].group
        members = []
        for mask in range(1, 8):
            items = ", ".join(f"(1; {y}):[1,0,2]" for y in range(3) if mask >> y & 1)
            members.append(G.parse_element("{" + items + "}@0"))
        cert = ctx.wricc.FiniteClassCertificate(
            base=members[0],
            elements=frozenset(members),
            provenance="finite-orbit",
            size_formula="(1+1)^3 - 1 = 7",
        )
        W = FACTS[COUNTEREXAMPLE_GROUP].group
        invariant = W.closure_counterexample({ref.from_program(e) for e in members}) is None

        def check(result):
            if bool(result) == invariant:
                return None
            if bool(result):
                return COUNTEREXAMPLE_FAULT
            return f"rejected an invariant set: {result.reason}"

        return Op(
            "verify_finite_certificate on the 7-element counterexample",
            lambda: ctx.wricc.verify_finite_certificate(G, cert),
            check,
            known_fault=COUNTEREXAMPLE_FAULT,
        )


class CertificateStream:
    """`witness` and `verify_infinite_certificate` with long prefixes: every
    family kind on every group in each round, and no oracle."""

    name = "certificate-stream"
    instances = ["lamplighter", "f2-wr-z2", "mixed-union-icc-base"]
    extra = {"z2-wr-f2": "{D: cyclic 2; Q: free 2; omega: regular}"}
    # lambda-translation (plain and seeded by a translation), g_d and
    # value-conjugation twice, q-translation, lambda-translation
    ELEMENTS = [
        ("lamplighter", lambda rng: lamplighter(rng, False)),
        ("lamplighter", lambda rng: lamplighter(rng, True)),
        ("f2-wr-z2", lambda rng: f2_over_z2(rng, 1)),
        ("f2-wr-z2", lambda rng: f2_over_z2(rng, 0)),
        ("mixed-union-icc-base", lambda rng: mixed_union(rng, True)),
        ("mixed-union-icc-base", lambda rng: mixed_union(rng, False)),
        ("z2-wr-f2", lambda rng: z2_over_f2(rng, True)),
        ("z2-wr-f2", lambda rng: z2_over_f2(rng, False)),
    ]

    def make_round(self, rng, ctx):
        return [family_op(ctx, name, make(rng), STREAM_PREFIX) for name, make in self.ELEMENTS]


WORKLOADS = {w.name: w for w in (IccGrowth(), FiniteClosure(), CertificateStream())}
