"""Acceptance suite: one criterion per test, one PASS/FAIL summary line each.

The lines are echoed again after the run (see conftest) so they stay
visible under output capturing.
"""

import random
import time

from wricc.decision import decide_icc, decide_icc_free
from wricc.groups import EXACT_FINITE
from wricc.instances import parse_instance
from wricc.oracle import AT_LEAST, class_lower_bound, enumerate_class
from wricc.tri import Tri
from wricc.witness import (
    InfiniteFamilyCertificate,
    cert_finite_orbit,
    verify_finite_certificate,
    verify_infinite_certificate,
    witness,
)
from wricc.wreath import WreathElement

from conftest import (
    CORPUS,
    FREE_CARRIERS,
    lambda_translate,
    load_instance,
    pointwise_mul,
    predicted_invariant_sets,
    record_acceptance,
    word_ball,
)

LAW_INSTANCES = ["lamplighter", "f2-wr-z2", "z2-wr-s3", "mixed-union"]
YES_INSTANCES = ["lamplighter", "f2-wr-z2", "mixed-union-icc-base"]
NO_INSTANCES = {
    # instance -> expected certificate size
    "trivial-omega": 1,
    "mixed-union": 7,
    "s3-wr-s3": 63,
    "z2-wr-s3": 7,
    "intmod-cond-i": 1,
}


def _formula_value(text: str) -> int:
    return int(text.rsplit("=", 1)[1])


def test_criterion_1_action_law_suite():
    t0 = time.perf_counter()
    cases = 1000
    for name in LAW_INSTANCES:
        G = load_instance(name).group
        rng = random.Random(f"laws-{name}")
        e = G.identity()
        one = G.Q.identity()
        for _ in range(cases):
            a, b, c = (G.random_element(rng) for _ in range(3))
            q1, q2 = G.Q.random_element(rng), G.Q.random_element(rng)
            f = G.random_element(rng).phi
            # lambda-action laws, read off products by (eps, q)
            assert lambda_translate(G, one, f) == f
            assert lambda_translate(G, G.Q.multiply(q1, q2), f) == lambda_translate(
                G, q1, lambda_translate(G, q2, f)
            )
            # group axioms
            assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))
            assert G.multiply(a, e) == a and G.multiply(e, a) == a
            assert G.multiply(a, G.inverse(a)) == e
            # split-extension identity: q phi q^-1 = lambda(q)(phi)
            lhs = G.multiply(
                G.multiply(WreathElement((), q1), WreathElement(f, one)),
                G.inverse(WreathElement((), q1)),
            )
            assert lhs == WreathElement(lambda_translate(G, q1, f), one)
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    assert record_acceptance(
        "criterion-1",
        ok,
        f"action/law suite: {cases} cases x {len(LAW_INSTANCES)} instances in {dt:.1f}s (limit 10s)",
    )


def test_criterion_2_formula_fidelity():
    t0 = time.perf_counter()
    mismatches = 0
    for name in LAW_INSTANCES:
        G = load_instance(name).group
        rng = random.Random(f"forms-{name}")
        one = G.Q.identity()
        for _ in range(100):
            g = G.random_element(rng)
            phi, q = g.phi, g.q
            y = G.omega.random_point(rng)
            d = G.D.random_element(rng)
            qy = G.omega.act(q, y)
            dinv = G.D.inverse(d)
            c = G._map_value(phi, y)
            if c == G.D.identity():
                head = pointwise_mul(G, phi, G.zeta(dinv, y))
            else:
                phi0 = tuple(item for item in phi if item[0] != y)
                head = pointwise_mul(G, phi0, G.zeta(G.D.multiply(dinv, c), y))
            closed = WreathElement(pointwise_mul(G, head, G.zeta(d, qy)), q)
            direct = G.conjugate(g, WreathElement(G.zeta(d, y), one))
            if closed != direct:
                mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 5.0
    assert record_acceptance(
        "criterion-2",
        ok,
        f"formula fidelity: {mismatches} mismatches over 100 draws x "
        f"{len(LAW_INSTANCES)} instances in {dt:.1f}s (limit 5s)",
    )


def test_criterion_3_regression_corpus():
    t0 = time.perf_counter()
    bad = []
    for name, answer, ci, cii, ciii in CORPUS:
        v = decide_icc(load_instance(name).group)
        got = (str(v.answer), str(v.cond_i), str(v.cond_ii), str(v.cond_iii))
        if got != (answer, ci, cii, ciii):
            bad.append((name, got))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    assert record_acceptance(
        "criterion-3",
        ok,
        f"regression corpus: {len(CORPUS) - len(bad)}/{len(CORPUS)} verdicts exact "
        f"in {dt:.2f}s (limit 1s){'; bad=' + repr(bad) if bad else ''}",
    )


def test_criterion_4_corollary_agreement():
    # the corollary reads (i) and (iii) off freeness and decide_icc from
    # the carrier's oracles, so all four fields must agree
    free_names = []
    agree = True
    fields = ("answer", "cond_i", "cond_ii", "cond_iii")
    groups = [(name, load_instance(name).group) for name, *_ in CORPUS]
    groups += [(text, parse_instance(text).group) for text in FREE_CARRIERS]
    for name, G in groups:
        if G.omega.is_free_action() is Tri.YES:
            free_names.append(name)
            free, direct = decide_icc_free(G), decide_icc(G)
            if any(getattr(free, f) is not getattr(direct, f) for f in fields):
                agree = False
    ok = agree and len(free_names) == 2 + len(FREE_CARRIERS)
    assert record_acceptance(
        "criterion-4",
        ok,
        f"corollary agreement on the verdict and (i)-(iii) for free-action instances "
        f"{free_names}: exact",
    )


def test_criterion_5_non_icc_certification():
    t0 = time.perf_counter()
    problems = []
    for name, size in NO_INSTANCES.items():
        G = load_instance(name).group
        v = decide_icc(G)
        if v.answer is not Tri.NO:
            problems.append(f"{name}: verdict {v.answer}")
            continue
        cert = witness(G, v)
        if cert.size != size or _formula_value(cert.size_formula) != size:
            problems.append(f"{name}: size {cert.size} != {size}")
            continue
        first = verify_finite_certificate(G, cert)
        again = verify_finite_certificate(G, cert)
        if not first or first != again:
            problems.append(f"{name}: verification {first.reason}")
    dt = time.perf_counter() - t0
    ok = not problems and dt < 30.0
    assert record_acceptance(
        "criterion-5",
        ok,
        f"non-icc certificates sized {list(NO_INSTANCES.values())}, verified by "
        f"exact closure under every generator (condition (i)) or by the premises "
        f"of the invariance lemma (finite orbit), deterministic, in {dt:.1f}s "
        f"(limit 30s){'; ' + '; '.join(problems) if problems else ''}",
    )


def _sample_elements(G, name, count=20):
    rng = random.Random(f"sample-{name}")
    return [G.random_nontrivial_element(rng) for _ in range(count)]


def test_criterion_6_icc_certification():
    t0 = time.perf_counter()
    problems = []
    for name in YES_INSTANCES:
        G = load_instance(name).group
        v = decide_icc(G)
        for g in _sample_elements(G, name):
            fam = witness(G, v, g)
            res = verify_infinite_certificate(G, fam, N=100)
            if not res:
                problems.append(f"{name}/{G.format_element(g)}: {res.reason}")
    dt = time.perf_counter() - t0
    ok = not problems and dt < 60.0
    assert record_acceptance(
        "criterion-6",
        ok,
        f"icc certificates: 20 elements x {len(YES_INSTANCES)} instances, 100 members "
        f"each, pairwise distinct and re-verified, in {dt:.1f}s (limit 60s)"
        f"{'; ' + '; '.join(problems[:3]) if problems else ''}",
    )


def test_criterion_7_oracle_cross_check():
    t0 = time.perf_counter()
    problems = []
    # growth on the icc instances, checked as `wricc verify` checks it:
    # (a) at radius 8 the class stays open: the enumeration stops because
    #     all 8 rounds ran or because it filled max_size 10000, never because
    #     the class closed;
    # (b) escalating the round budget (x4, up to 512) reaches >= 200
    #     distinct verified conjugates, as `wricc verify` asks;
    # (c) on the lamplighter, the radius-8 count equals the number of
    #     distinct conjugates by the whole word ball of radius 8.
    # Pure translations {}@k have exactly 129 conjugates at radius 8, so a
    # bound of 200 at radius 8 alone is false for them.
    for name in YES_INSTANCES:
        G = load_instance(name).group
        ball = word_ball(G, 8) if name == "lamplighter" else None
        if ball is not None and len(ball) != 490:
            problems.append(f"lamplighter word ball of radius 8 has {len(ball)} != 490")
        for g in _sample_elements(G, name):
            where = f"{name}/{G.format_element(g)}"
            grown, radius = class_lower_bound(G, g, 200, radius=8)
            first = enumerate_class(G, g, radius=8, max_size=10000)
            open_at_8 = first.status == AT_LEAST and (
                (first.stopped_by == "radius" and first.rounds_used == 8)
                or (first.stopped_by == "max_size" and first.count >= 10000)
            )
            if not open_at_8:
                problems.append(
                    f"{where}: {first.status} count {first.count} after "
                    f"{first.rounds_used} of 8 rounds, stopped by {first.stopped_by}"
                )
            if grown.status != AT_LEAST or grown.count < 200:
                problems.append(
                    f"{where}: {grown.status} count {grown.count} within radius {radius}"
                )
            if ball is not None:
                direct = len({G.conjugate(g, h) for h in ball})
                if first.count != direct:
                    problems.append(
                        f"{where}: oracle count {first.count} at radius 8, "
                        f"word ball gives {direct}"
                    )
    # exhaustive classes on the order-48 instance
    G = load_instance("z2-wr-s3").group
    elems = set(G.elements())
    invariant_sets = predicted_invariant_sets(G)
    covered = set()
    for g in sorted(elems, key=G.sort_key):
        if g in covered:
            continue
        rep = enumerate_class(G, g, radius=60, max_size=60)
        if rep.status != EXACT_FINITE:
            problems.append(f"z2-wr-s3 class of {G.format_element(g)} not exact")
            continue
        cls = set(rep.elements)
        covered |= cls
        if g != G.identity() and not any(cls <= S for S in invariant_sets):
            problems.append(f"z2-wr-s3 class of {G.format_element(g)} escapes all sets")
    if covered != elems:
        problems.append("z2-wr-s3 classes do not partition the group")
    dt = time.perf_counter() - t0
    ok = not problems and dt < 30.0
    if problems:
        detail = (
            f"oracle cross-check in {dt:.1f}s (limit 30s): {len(problems)} problems: "
            + "; ".join(problems[:5])
        )
    else:
        detail = (
            f"oracle cross-check: growth >= 200 (radius 8, x4 up to 512), lamplighter "
            f"radius-8 counts equal to the word ball, exact z2-wr-s3 classes, "
            f"in {dt:.1f}s (limit 30s)"
        )
    assert record_acceptance("criterion-7", ok, detail), "; ".join(problems[:5])


def test_criterion_8_negative_controls():
    # punctured finite set
    G = load_instance("mixed-union").group
    cert = cert_finite_orbit(G)
    keep = sorted(cert.elements, key=G.sort_key)[1:]
    punctured = type(cert)(cert.base, frozenset(keep), cert.provenance, cert.size_formula)
    res_fin = verify_finite_certificate(G, punctured)
    # corrupted conjugate stream
    L = load_instance("lamplighter").group
    g = WreathElement(L.zeta(1, 0), 0)
    fam = InfiniteFamilyCertificate(L, g, "lambda-translation")

    class Corrupt(InfiniteFamilyCertificate):
        def members(self, count):
            for i, (h, conj) in enumerate(fam.members(count)):
                yield (h, WreathElement(conj.phi, conj.q + 1) if i == 2 else conj)

    bad = Corrupt(L, g, fam.family_kind, fam.point, fam.seed_conjugator)
    res_inf = verify_infinite_certificate(L, bad, N=10)
    ok = (
        not res_fin
        and res_fin.counterexample is not None
        and not res_inf
        and res_inf.reason == "recorded conjugate does not match recomputation"
        and res_inf.counterexample is not None
    )
    assert record_acceptance(
        "criterion-8",
        ok,
        f"negative controls rejected with counterexamples: finite '{res_fin.reason}', "
        f"infinite '{res_inf.reason}'",
    )
