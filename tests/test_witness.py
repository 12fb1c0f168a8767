import gc
import importlib
import itertools
import json
import random
import re

import pytest

from wricc.cli import main
from wricc.decision import decide_icc
from wricc.errors import CertificateBudget, KindMismatch, PreconditionError, WriccError
from wricc.groups import CyclicGroup, FreeGroup, IntegersGroup, SymmetricGroup
from wricc.instances import parse_instance
from wricc.qsets import IntModQSet, RegularQSet, TrivialQSet
from wricc.tri import Tri
from wricc.witness import (
    FiniteClassCertificate,
    InfiniteFamilyCertificate,
    OrbitMaps,
    cert_condition_i,
    cert_finite_orbit,
    find_moved_point,
    verify_finite_certificate,
    verify_infinite_certificate,
    witness,
)
from wricc.wreath import WreathElement, WreathProduct, support

from conftest import instance_text, load_instance, predicted_invariant_sets

Z = IntegersGroup()
S3 = SymmetricGroup(3)
P123 = (1, 2, 0)
P132 = (2, 0, 1)
groups_module = importlib.import_module("wricc.groups")
witness_module = importlib.import_module("wricc.witness")


def _no_listing(*args):
    raise AssertionError("S(O, xi) must not be listed")


class TestConditionICert:
    def test_intmod_kernel_witness(self):
        G = load_instance("intmod-cond-i").group
        cert = cert_condition_i(G, 3)
        assert cert.provenance == "condition-i"
        assert cert.elements == frozenset({WreathElement((), 3)})
        assert verify_finite_certificate(G, cert)

    def test_finite_q_class(self):
        # trivial carrier, Q = S3: the class of a 3-cycle gives a 2-element set
        G = WreathProduct(CyclicGroup(2), S3, TrivialQSet(S3, 1))
        cert = cert_condition_i(G, P123)
        assert cert.elements == frozenset(
            {WreathElement((), P123), WreathElement((), P132)}
        )
        assert verify_finite_certificate(G, cert)

    def test_rejects_identity(self):
        G = load_instance("intmod-cond-i").group
        with pytest.raises(PreconditionError):
            cert_condition_i(G, 0)

    def test_rejects_moving_element(self):
        G = load_instance("intmod-cond-i").group
        with pytest.raises(PreconditionError):
            cert_condition_i(G, 1)

    def test_rejects_non_fc(self):
        G = WreathProduct(CyclicGroup(2), FreeGroup(2), TrivialQSet(FreeGroup(2), 1))
        with pytest.raises(PreconditionError):
            cert_condition_i(G, (1,))

    def test_class_bounded_by_listing_cap_not_rounds(self, monkeypatch):
        # the 15 transpositions of S6 take 6 rounds to close; only the
        # listing cap bounds the closure
        S6 = SymmetricGroup(6)
        G = WreathProduct(CyclicGroup(2), S6, TrivialQSet(S6, 1))
        q0 = (1, 0, 2, 3, 4, 5)
        monkeypatch.setattr(groups_module, "_FINITE_SET_CAP", 15)
        assert len(cert_condition_i(G, q0).elements) == 15
        monkeypatch.setattr(groups_module, "_FINITE_SET_CAP", 14)
        with pytest.raises(CertificateBudget, match="^the class of q0 has more than 14 elements$"):
            cert_condition_i(G, q0)


class TestFiniteOrbitCert:
    @pytest.mark.parametrize(
        "name,size,formula",
        [
            ("trivial-omega", 1, "(1+1)^1 - 1 = 1"),
            ("mixed-union", 7, "(1+1)^3 - 1 = 7"),
            ("z2-wr-s3", 7, "(1+1)^3 - 1 = 7"),
            ("s3-wr-s3", 63, "(3+1)^3 - 1 = 63"),
        ],
    )
    def test_sizes(self, name, size, formula):
        G = load_instance(name).group
        cert = cert_finite_orbit(G)
        assert cert.provenance == "finite-orbit"
        assert cert.size == len(frozenset(cert.elements)) == size
        assert formula in cert.size_formula
        assert verify_finite_certificate(G, cert)

    def test_members_shape(self):
        G = load_instance("mixed-union").group
        cert = cert_finite_orbit(G)
        for g in cert.elements:
            assert g.q == 0
            assert g.phi
            assert all(y[0] == 1 for y in support(g.phi))

    def test_rejects_open_orbit(self):
        # S(O, xi) takes O as given; the verifier names the open orbit
        G = load_instance("mixed-union").group
        cert = _orbit_maps_cert(G, ((1, 0), (1, 1)), G.D.finite_invariant_set_example())
        res = verify_finite_certificate(G, cert)
        assert not res
        assert res.reason == "orbit O not closed under the generator 1 of Q"
        assert res.counterexample == ((1, 1), 1, (1, 2))

    def test_open_orbit_rejected_without_listing(self, monkeypatch):
        # 30 points of a 40-point orbit, not closed: rejected by the
        # verifier's closure check, and none of the 2^30 - 1 maps is built
        G = WreathProduct(CyclicGroup(2), Z, IntModQSet(Z, 40))
        monkeypatch.setattr(OrbitMaps, "__iter__", _no_listing)
        cert = _orbit_maps_cert(G, tuple(range(30)), {1})
        res = verify_finite_certificate(G, cert)
        assert not res
        assert res.reason == "orbit O not closed under the generator 1 of Q"
        assert res.counterexample == (29, 1, 30)

    def test_rejects_xi_with_identity(self):
        G = load_instance("mixed-union").group
        with pytest.raises(PreconditionError):
            _orbit_maps_cert(G, G.omega.finite_orbit_example(), {0, 1})

    def test_no_finite_orbit(self, lamplighter):
        with pytest.raises(PreconditionError):
            cert_finite_orbit(lamplighter)

    def test_nested_base_invariant_set(self, z2_wr_s3):
        # the base is itself a (non-icc) wreath product; xi is the class of
        # its certificate's base, the 3 maps with one lamp on, so the outer
        # certificate has 4^1 - 1 = 3 members
        outer = WreathProduct(z2_wr_s3, Z, TrivialQSet(Z, 1))
        cert = cert_finite_orbit(outer)
        assert cert.size == len(frozenset(cert.elements)) == 3
        assert verify_finite_certificate(outer, cert)

    @pytest.mark.parametrize("n", [19, 25])
    def test_nested_base_xi_is_the_inner_class(self, n):
        # xi has |O| |d^D| = n members, where listing the inner certificate
        # gave 2^n - 1; the outer certificate is verified by its premises
        text = f"{{D: wreath(cyclic 2; integers; union(regular, int-mod {n})); Q: cyclic 2; omega: regular}}"
        G = parse_instance(text).group
        inner = witness(G.D, decide_icc(G.D))
        cert = witness(G, decide_icc(G))
        xi = cert.elements.xi
        # the base lights the last point of the n-point orbit; its class
        # lights one point of that orbit
        assert inner.base == WreathElement((((1, n - 1), 1),), 0)
        assert xi == {WreathElement((((1, k), 1),), 0) for k in range(n)}
        assert all(x in inner.elements for x in xi)
        assert cert.size == (n + 1) ** 2 - 1
        assert verify_finite_certificate(G, cert)

    def test_nested_xi_missing_a_conjugate_is_named(self):
        G = parse_instance(
            "{D: wreath(cyclic 2; integers; union(regular, int-mod 19)); Q: cyclic 2; omega: regular}"
        ).group
        xi = G.D.finite_invariant_set_example()
        base = WreathElement(G.D._canon([((1, 18), 1)]), 0)
        cert = _orbit_maps_cert(G, G.omega.finite_orbit_example(), xi - {base})
        res = verify_finite_certificate(G, cert)
        assert not res
        assert res.reason == "xi not closed under conjugation by the generator {}@1 of D"
        assert res.counterexample[2] == base


class TestQTranslation:
    def test_f2_acting(self):
        G = WreathProduct(CyclicGroup(2), FreeGroup(2), RegularQSet(FreeGroup(2)))
        g = WreathElement((), (1,))
        fam = InfiniteFamilyCertificate(G, g, "q-translation")
        assert fam.family_kind == "q-translation"
        prefix = fam.take(25)
        assert len({c for _, c in prefix}) == 25
        assert verify_infinite_certificate(G, fam, N=25)

    def test_rejects_fc_element(self, lamplighter):
        with pytest.raises(PreconditionError, match="^premise: q-translation: q lies in FC"):
            InfiniteFamilyCertificate(lamplighter, WreathElement((), 1), "q-translation")


class TestLambdaTranslation:
    def test_supports_march(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        fam = InfiniteFamilyCertificate(G, g, "lambda-translation")
        prefix = fam.take(9)
        sups = [support(c.phi) for _, c in prefix]
        assert len(set(sups)) == 9
        assert verify_infinite_certificate(G, fam, N=9)

    def test_seeded_pure_translation(self, lamplighter):
        G = lamplighter
        g = WreathElement((), 2)
        seed = WreathElement(G.zeta(1, 0), 0)
        fam = InfiniteFamilyCertificate(G, g, "lambda-translation", seed_conjugator=seed)
        assert verify_infinite_certificate(G, fam, N=30)

    def test_rejects_empty_support(self, lamplighter):
        with pytest.raises(PreconditionError, match="^premise: lambda-translation: phi = eps"):
            InfiniteFamilyCertificate(lamplighter, WreathElement((), 2), "lambda-translation")

    def test_rejects_finite_orbit_support(self):
        G = load_instance("mixed-union-icc-base").group
        g = WreathElement(G.zeta((1,), (1, 0)), 0)  # supported on the 3-point part
        with pytest.raises(PreconditionError, match="^premise: lambda-translation: no support"):
            InfiniteFamilyCertificate(G, g, "lambda-translation")


class TestGd:
    def test_both_closed_forms(self, f2_wr_z2):
        G = f2_wr_z2
        # support avoiding y=0: the commuting branch
        g1 = WreathElement(G.zeta((1,), 1), 1)
        fam1 = InfiniteFamilyCertificate(G, g1, "g_d", 0)
        assert verify_infinite_certificate(G, fam1, N=40)
        # support containing y=0: the fused d^-1 c branch
        g2 = WreathElement(G.zeta((2,), 0), 1)
        fam2 = InfiniteFamilyCertificate(G, g2, "g_d", 0)
        assert verify_infinite_certificate(G, fam2, N=40)

    def test_conjugates_differ_at_qy(self, f2_wr_z2):
        G = f2_wr_z2
        g = WreathElement(G.zeta((1,), 1), 1)
        fam = InfiniteFamilyCertificate(G, g, "g_d", 0)
        vals = [G._map_value(c.phi, G.omega.act(g.q, 0)) for _, c in fam.take(12)]
        assert len(set(vals)) == 12

    def test_rejects_fixed_point(self, f2_wr_z2):
        G = f2_wr_z2
        with pytest.raises(PreconditionError, match="^premise: g_d: q fixes the point$"):
            InfiniteFamilyCertificate(G, WreathElement((), 0), "g_d", 0)

    def test_rejects_finite_base(self, lamplighter):
        with pytest.raises(PreconditionError, match="^premise: g_d: D is finite$"):
            InfiniteFamilyCertificate(lamplighter, WreathElement((), 1), "g_d", 0)


class TestValueConjugation:
    def test_f2_values(self, f2_wr_z2):
        G = f2_wr_z2
        g = WreathElement(G.zeta((1,), 0), 0)
        fam = InfiniteFamilyCertificate(G, g, "value-conjugation", 0)
        prefix = fam.take(30)
        vals = [G._map_value(c.phi, 0) for _, c in prefix]
        assert len(set(vals)) == 30
        assert verify_infinite_certificate(G, fam, N=30)

    def test_rejects_moving_q(self, f2_wr_z2):
        G = f2_wr_z2
        with pytest.raises(PreconditionError, match="^premise: value-conjugation: q != 1$"):
            InfiniteFamilyCertificate(G, WreathElement(G.zeta((1,), 0), 1), "value-conjugation", 0)

    def test_rejects_non_icc_base(self, lamplighter):
        G = lamplighter
        with pytest.raises(PreconditionError, match="^premise: value-conjugation: D is not"):
            InfiniteFamilyCertificate(G, WreathElement(G.zeta(1, 0), 0), "value-conjugation", 0)


class TestDispatcher:
    @pytest.mark.parametrize("name", ["trivial-omega", "mixed-union", "s3-wr-s3", "intmod-cond-i"])
    def test_no_instances_get_verified_finite_sets(self, name):
        G = load_instance(name).group
        v = decide_icc(G)
        assert v.answer is Tri.NO
        cert = witness(G, v)
        assert verify_finite_certificate(G, cert)

    @pytest.mark.parametrize("name", ["lamplighter", "f2-wr-z2", "mixed-union-icc-base"])
    def test_yes_instances_get_verified_families(self, name):
        G = load_instance(name).group
        v = decide_icc(G)
        assert v.answer is Tri.YES
        rng = random.Random(name)
        kinds = set()
        for _ in range(15):
            g = G.random_nontrivial_element(rng)
            fam = witness(G, v, g)
            kinds.add(fam.family_kind)
            assert verify_infinite_certificate(G, fam, N=20)
        assert kinds  # at least one construction exercised per instance

    def test_yes_requires_element(self, lamplighter):
        v = decide_icc(lamplighter)
        with pytest.raises(PreconditionError):
            witness(lamplighter, v)
        with pytest.raises(PreconditionError):
            witness(lamplighter, v, lamplighter.identity())

    def test_case_order(self, lamplighter, f2_wr_z2):
        v = decide_icc(lamplighter)
        fam = witness(lamplighter, v, WreathElement(lamplighter.zeta(1, 0), 3))
        assert fam.family_kind == "lambda-translation"
        fam = witness(lamplighter, v, WreathElement((), 3))
        assert fam.family_kind == "lambda-translation"
        assert fam.seed_conjugator is not None

        v2 = decide_icc(f2_wr_z2)
        G = f2_wr_z2
        assert witness(G, v2, WreathElement((), 1)).family_kind == "g_d"
        assert (
            witness(G, v2, WreathElement(G.zeta((1,), 0), 0)).family_kind
            == "value-conjugation"
        )

    def test_q_translation_selected_outside_fc(self):
        F2 = FreeGroup(2)
        G = WreathProduct(CyclicGroup(2), F2, RegularQSet(F2))
        v = decide_icc(G)
        assert v.answer is Tri.YES
        fam = witness(G, v, WreathElement((), (1,)))
        assert fam.family_kind == "q-translation"


class TestFindMovedPoint:
    def test_moved_point_past_ten_thousand_probes(self):
        # the swap of the last two of 10003 points: the scan reads the
        # kernel rule, then runs the action to point 10001 with no budget
        n = 10003
        G = parse_instance(f"{{D: free 2; Q: symmetric {n}; omega: natural}}").group
        swap = tuple(range(n - 2)) + (n - 1, n - 2)
        assert find_moved_point(G, swap) == n - 2
        fam = witness(G, decide_icc(G), WreathElement((), swap))
        assert fam.family_kind == "g_d" and fam.point == n - 2
        assert verify_infinite_certificate(G, fam, N=5)

    def test_kernel_element_rejected(self, f2_wr_z2):
        with pytest.raises(PreconditionError, match="^q must move a carrier point$"):
            find_moved_point(f2_wr_z2, 0)


class TestPredictedInvariantSets:
    def test_cover_and_verify(self, z2_wr_s3):
        G = z2_wr_s3
        sets = predicted_invariant_sets(G)
        union = set().union(*sets)
        assert len(union) == G.order() - 1
        assert G.identity() not in union
        assert sum(len(s) for s in sets) == len(union)  # pairwise disjoint
        for S in sets:
            for g in list(S)[:3]:
                for h in G.generators:
                    assert G.conjugate(g, h) in S

    def test_requires_finite(self, lamplighter):
        with pytest.raises(PreconditionError):
            predicted_invariant_sets(lamplighter)


class TestNegativeControls:
    def test_punctured_set_fails(self):
        # drop one of the three one-point maps, whose class is those three
        G = load_instance("mixed-union").group
        cert = cert_finite_orbit(G)
        dropped = G.parse_element("{(1; 0):1}@0")
        assert dropped != cert.base
        bad = type(cert)(
            base=cert.base,
            elements=frozenset(cert.elements) - {dropped},
            provenance=cert.provenance,
            size_formula=cert.size_formula,
        )
        res = verify_finite_certificate(G, bad)
        assert not res
        x, s, c = res.counterexample
        assert c == dropped and G.conjugate(x, s) == c

    def test_set_invariant_only_under_a_subgroup_fails(self, s3_union):
        # the 7 maps on the Z/3 part whose only value is [1,0,2]: closed
        # under Q and under zeta_d on the regular part, not under zeta_d at
        # a point of Z/3
        G = s3_union
        members = []
        for mask in range(1, 8):
            items = ", ".join(f"(1; {y}):[1,0,2]" for y in range(3) if mask >> y & 1)
            members.append(G.parse_element("{" + items + "}@0"))
        cert = FiniteClassCertificate(members[0], frozenset(members), "finite-orbit", "7")
        res = verify_finite_certificate(G, cert)
        assert not res
        x, s, c = res.counterexample
        assert x in cert.elements and c not in cert.elements
        assert s in G.generators and G.conjugate(x, s) == c
        assert s.phi and s.phi[0][0] == (1, 0)
        assert G.format_element(s) in res.reason

    def test_identity_polluted_set_fails(self):
        G = load_instance("mixed-union").group
        cert = cert_finite_orbit(G)
        bad = type(cert)(
            base=cert.base,
            elements=frozenset(cert.elements) | {G.identity()},
            provenance=cert.provenance,
            size_formula=cert.size_formula,
        )
        assert not verify_finite_certificate(G, bad)

    def test_member_that_is_not_an_element_fails(self):
        # named with the member as its counterexample, as the S(O, xi)
        # verifier names a point that is not a carrier point
        G = load_instance("intmod-cond-i").group
        cert = cert_condition_i(G, 3)
        stray = WreathElement((), "x")
        bad = cert._replace(elements=cert.elements | {stray})
        res = verify_finite_certificate(G, bad)
        assert not res and res.reason == f"set holds {stray!r}, not an element of G"
        assert res.counterexample == (stray,)

    def test_corrupted_conjugates_fail(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        fam = InfiniteFamilyCertificate(G, g, "lambda-translation")

        class Corrupt(InfiniteFamilyCertificate):
            def members(self, count):
                for i, (h, conj) in enumerate(fam.members(count)):
                    if i == 3:
                        conj = WreathElement(conj.phi, conj.q + 1)
                    yield (h, conj)

        bad = Corrupt(G, g, fam.family_kind, fam.point, fam.seed_conjugator)
        res = verify_infinite_certificate(G, bad, N=10)
        assert not res and res.reason == "recorded conjugate does not match recomputation"
        h, conj, again = res.counterexample
        assert again == G.conjugate(g, h) != conj

    @pytest.mark.parametrize("name, literal, kind, seed, reason", [
        ("lamplighter", "{}@16", "lambda-translation", "{0:1}@0",
         "recorded conjugate does not match recomputation"),
    ])
    def test_broken_conjugation_law_fails(self, name, literal, kind, seed, reason, monkeypatch):
        # a seeded lambda-translation conjugates its base by the seed once
        # with `_conjugate`, as its premise does; the verifier recomputes
        # with products, so a wrong conjugation law cannot confirm itself
        G = load_instance(name).group
        g = G.parse_element(literal)
        fam = InfiniteFamilyCertificate(G, g, kind, seed_conjugator=G.parse_element(seed))
        assert verify_infinite_certificate(G, fam, N=10)
        law = G._conjugate
        monkeypatch.setattr(G, "_conjugate", lambda x, y: WreathElement(law(x, y).phi, x.q + 1))
        res = verify_infinite_certificate(G, fam, N=10)
        assert not res and res.reason == reason

    @pytest.mark.parametrize("name, literal, kind, point", [
        ("f2-wr-z2", "{0:a, 1:b}@0", "value-conjugation", 0),
        ("z2-wr-free2", "{1:1}@a*b", "q-translation", None),
        ("f2-wr-z2", "{0:a*b}@1", "g_d", 0),
        ("lamplighter", "{0:1, 3:1}@5", "lambda-translation", None),
    ])
    def test_wrong_walked_member_fails(self, name, literal, kind, point):
        # walked, g_d and lambda-translation members are read off the walk
        # or the lemma, not conjugated: the third member given the fourth's
        # value at q.y (y itself when q = 1), its acting part or, for
        # lambda-translation, whose acting part does not move in an abelian
        # Q, its map, fails the verifier's recomputation by products
        G = _family_group(name)
        g = G.parse_element(literal)
        fam = InfiniteFamilyCertificate(G, g, kind, point)
        assert verify_infinite_certificate(G, fam, N=10)
        prefix = fam.take(10)
        (h, conj), (_, after) = prefix[3:5]
        if kind == "lambda-translation":
            wrong = WreathElement(after.phi, conj.q)
        elif point is None:
            wrong = WreathElement(conj.phi, after.q)
        else:
            at = G.omega._act(g.q, point)
            value = G._map_value(after.phi, at)
            wrong = WreathElement(G._canon({**dict(conj.phi), at: value}.items()), conj.q)
        assert wrong != conj

        class Wrong(InfiniteFamilyCertificate):
            def members(self, count):
                yield from prefix[:3] + [(h, wrong)] + prefix[4:count]

        res = verify_infinite_certificate(G, Wrong(G, g, kind, point), N=10)
        assert not res and res.reason == "recorded conjugate does not match recomputation"
        assert res.counterexample == (h, wrong, conj)

    def test_duplicated_conjugates_fail(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        fam = InfiniteFamilyCertificate(G, g, "lambda-translation")

        class Repeats(InfiniteFamilyCertificate):
            def members(self, count):
                first = next(fam.members(1))
                for _ in range(count):
                    yield first

        bad = Repeats(G, g, fam.family_kind, fam.point, fam.seed_conjugator)
        res = verify_infinite_certificate(G, bad, N=10)
        assert not res and "duplicate" in res.reason

    def test_short_stream_fails(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        fam = InfiniteFamilyCertificate(G, g, "lambda-translation")

        class Short(InfiniteFamilyCertificate):
            def members(self, count):
                yield from fam.members(min(count, 4))

        bad = Short(G, g, fam.family_kind, fam.point, fam.seed_conjugator)
        assert not verify_infinite_certificate(G, bad, N=10)


def test_streams_are_restartable(lamplighter):
    G = lamplighter
    fam = InfiniteFamilyCertificate(G, WreathElement(G.zeta(1, 0), 0), "lambda-translation")
    assert fam.take(8) == fam.take(8)


@pytest.mark.parametrize("count", [0, -3])
def test_prefix_needs_a_member(lamplighter, count):
    G = lamplighter
    fam = InfiniteFamilyCertificate(G, WreathElement(G.zeta(1, 0), 0), "lambda-translation")
    with pytest.raises(PreconditionError):
        fam.take(count)


def test_prefix_past_the_cap_refused_before_a_member(lamplighter, monkeypatch):
    G = lamplighter
    fam = InfiniteFamilyCertificate(G, WreathElement(G.zeta(1, 0), 0), "lambda-translation")

    def no_stream():
        raise AssertionError("a conjugator was drawn")

    monkeypatch.setattr(G.Q, "ball_stream", no_stream)
    message = "^a certificate prefix of more than 1000000 members$"
    with pytest.raises(CertificateBudget, match=message):
        next(fam.members(groups_module._FINITE_SET_CAP + 1))
    # refused by the verifier too, not reported as a failed stream
    with pytest.raises(CertificateBudget, match=message):
        verify_infinite_certificate(G, fam, N=groups_module._FINITE_SET_CAP + 1)
    with pytest.raises(AssertionError):
        next(fam.members(groups_module._FINITE_SET_CAP))


def test_members_validate_what_they_conjugate(f2_wr_z2, monkeypatch):
    # a malformed base, seed conjugator or point is refused when the family
    # is made, before any arithmetic of its walk; every conjugator is built
    # from them and from the group's own ball or class elements
    G = f2_wr_z2
    g = WreathElement(G.zeta((1,), 0), 0)
    stored_identity = WreathElement(((0, ()),), 1)
    multiplied = []
    mul = G.D._multiply
    monkeypatch.setattr(G.D, "_multiply", lambda u, v: multiplied.append(v) or mul(u, v))
    assert InfiniteFamilyCertificate(G, g, "value-conjugation", point=0).take(2) and multiplied
    multiplied.clear()
    # a kind the table does not know has no key to stream by
    with pytest.raises(PreconditionError, match="^premise: probe: unknown family kind$"):
        InfiniteFamilyCertificate(G, g, "probe", point=0)
    for base, seed, point in (
        (stored_identity, None, None),
        (g, stored_identity, None),
        (g, None, "0"),
        (g, None, 1.5),
    ):
        with pytest.raises(KindMismatch):
            InfiniteFamilyCertificate(G, base, "value-conjugation", point, seed)
    assert multiplied == []


def test_a_ball_element_that_fails_validation_fails_the_stream(f2_wr_z2, monkeypatch):
    # D's product, replaced after the wreath product bound its own, leaves
    # a cancelling pair in each product of two nontrivial words: D's ball
    # stream, which a g_d family draws, refuses the first such element of
    # its second round, and the verifier reports the failed stream.  With
    # phi(y) = phi(q.y) = 1 the splice multiplies by 1 only, so it never
    # meets the broken product
    G = f2_wr_z2
    fam = InfiniteFamilyCertificate(G, G.parse_element("{}@1"), "g_d", 0)
    monkeypatch.setattr(G.D, "_multiply", lambda u, v: u + (1, -1) + v if u and v else u + v)
    res = verify_infinite_certificate(G, fam, N=20)
    assert not res and res.reason.startswith("stream failed: "), res.reason
    assert "not freely reduced" in res.reason

# (group, element literal, family kind, point, tamperings) for each kind
# of family; the dispatcher picks the family.  Each tampering changes one
# field of the certificate, (field, value) with the seed as an element
# literal, so that the premise of its (new) kind fails
FAMILY_CASES = [
    ("z2-wr-free2", "{}@a", "q-translation", None, (
        ("family_kind", "lambda-translation"),  # phi = eps
        ("point", ()),
        ("family_kind", "probe"),
    )),
    ("z2-wr-free2", "{1:1}@a*b", "q-translation", None, (
        ("seed_conjugator", "{}@b"),
        ("family_kind", "value-conjugation"),  # no point
    )),
    ("lamplighter", "{0:1, 3:1}@0", "lambda-translation", None, (
        ("point", 0),
        ("family_kind", "g_d"),  # D is finite
        ("family_kind", "q-translation"),  # q = 0 lies in FC(Z)
    )),
    ("lamplighter", "{}@2", "lambda-translation", None, (
        ("seed_conjugator", "{}@0"),  # a seed that leaves phi empty
        ("seed_conjugator", None),
        ("family_kind", "probe"),
    )),
    ("f2-wr-z2", "{0:a*b}@1", "g_d", 0, (
        ("seed_conjugator", "{0:a}@0"),
        ("family_kind", "value-conjugation"),  # q != 1
        ("point", None),
    )),
    ("f2-wr-z2", "{0:a, 1:b}@0", "value-conjugation", 0, (
        ("family_kind", "g_d"),  # q = 1 fixes the point
        ("seed_conjugator", "{0:a}@0"),
        ("family_kind", "lambda-translation"),  # a point given
    )),
    ("mixed-union-icc-base", "{(1; 2):b}@1", "g_d", (0, 0), (
        ("family_kind", "probe"),
        ("family_kind", "q-translation"),  # q = 1 lies in FC(Z)
    )),
    ("mixed-union-icc-base", "{(0; 0):a, (1; 1):b}@0", "value-conjugation", (0, 0), (
        ("point", (1, 2)),  # outside supp phi
        ("point", (0, 5)),  # outside supp phi, in the infinite orbit
    )),
    ("mixed-union-icc-base", "{(1; 2):b}@3", "g_d", (0, 0), (
        ("point", (1, 0)),  # 3 fixes the int-mod 3 part
    )),
]
# the dispatcher's inputs and outputs, without the tamperings
FAMILY_OUTPUTS = [case[:4] for case in FAMILY_CASES]
TAMPERED = [
    pytest.param(*case[:3], field, value, id=f"{case[0]}-{case[1]}-{field}={value}")
    for case in FAMILY_CASES
    for field, value in case[4]
]


def _forbid_drawing(monkeypatch, G):
    def no_stream():
        raise AssertionError("nothing may be drawn")

    monkeypatch.setattr(G.D, "ball_stream", no_stream)
    monkeypatch.setattr(G.Q, "ball_stream", no_stream)


def _family_group(name):
    if name == "z2-wr-free2":
        return WreathProduct(CyclicGroup(2), FreeGroup(2), RegularQSet(FreeGroup(2)))
    if name == "s20":
        return parse_instance("{D: cyclic 2; Q: symmetric 20; omega: trivial 1}").group
    return load_instance(name).group


# a transposition of S20, whose class has 190 members
S20_TRANSPOSITION = "{}@[1,0," + ",".join(map(str, range(2, 20))) + "]"
# every way a family can misfit its kind: (group, base, kind, point, seed,
# the reason after `premise: <kind>: `); a base or seed is an element
# literal, or an element as stored
MISFITS = [
    # a point or seed the kind does not take: the seed is named first
    ("f2-wr-z2", "{0:a*b}@1", "q-translation", 0, None, "takes no point"),
    ("f2-wr-z2", "{0:a*b}@1", "q-translation", None, "{}@1", "takes no seed"),
    ("f2-wr-z2", "{0:a*b}@1", "q-translation", 0, "{}@1", "takes no seed"),
    ("f2-wr-z2", "{0:a*b}@1", "lambda-translation", 0, None, "takes no point"),
    ("f2-wr-z2", "{0:a*b}@1", "g_d", None, None, "needs a point"),
    ("f2-wr-z2", "{0:a*b}@1", "g_d", 0, "{}@1", "takes no seed"),
    ("f2-wr-z2", "{0:a*b}@1", "g_d", None, "{}@1", "takes no seed"),
    ("f2-wr-z2", "{0:a}@0", "value-conjugation", None, None, "needs a point"),
    ("f2-wr-z2", "{0:a}@0", "value-conjugation", 0, "{}@1", "takes no seed"),
    # each premise reason of each kind
    ("lamplighter", "{}@1", "q-translation", None, None, "q lies in FC(Q)"),
    ("lamplighter", "{}@2", "lambda-translation", None, None, "phi = eps after the seed"),
    ("lamplighter", "{}@2", "lambda-translation", None, "{}@0", "phi = eps after the seed"),
    ("mixed-union-icc-base", "{(1; 0):a}@0", "lambda-translation", None, None,
     "no support point lies in a known-infinite orbit"),
    ("lamplighter", "{}@1", "g_d", 0, None, "D is finite"),
    ("f2-wr-z2", "{}@0", "g_d", 0, None, "q fixes the point"),
    ("f2-wr-z2", "{0:a}@1", "value-conjugation", 0, None, "q != 1"),
    ("f2-wr-z2", "{0:a}@0", "value-conjugation", 1, None, "the point is not in supp phi"),
    ("lamplighter", "{0:1}@0", "value-conjugation", 0, None, "D is not known to be icc"),
    # a kind no row names, whatever its point
    ("f2-wr-z2", "{0:a*b}@1", "probe", 0, None, "unknown family kind"),
    # the ROADMAP's two probes: classes of 3 and of 190 in a finite Q
    ("z2-wr-s3", "{}@[1,0,2]", "q-translation", None, None, "q lies in FC(Q)"),
    ("s20", S20_TRANSPOSITION, "q-translation", None, None, "q lies in FC(Q)"),
]
# a base, seed or point that fails validation: refused before its shape,
# with the validation error's type
STORED_IDENTITY = WreathElement(((0, ()),), 1)
INVALID = [
    ("f2-wr-z2", STORED_IDENTITY, "g_d", 0, None,
     "wreath(free(2); cyclic(2); regular over cyclic(2)): stored identity value at 0"),
    ("f2-wr-z2", "{0:a}@1", "lambda-translation", None, STORED_IDENTITY,
     "wreath(free(2); cyclic(2); regular over cyclic(2)): stored identity value at 0"),
    ("f2-wr-z2", "{0:a}@0", "value-conjugation", "0", None, "cyclic(2): bad payload '0'"),
    ("f2-wr-z2", "{0:a}@0", "q-translation", 1.5, None, "cyclic(2): bad payload 1.5"),
]


def _misfit(row, error):
    name, base, kind, point, seed, reason = row
    shown = seed if seed is None or isinstance(seed, str) else "stored"
    where = "" if name == "f2-wr-z2" else f"{name}-"
    return pytest.param(*row, error, id=f"{where}{kind}-{point}-{shown}-{reason}")


@pytest.mark.parametrize(
    "name, base, kind, point, seed, reason, error",
    [_misfit(row, PreconditionError) for row in MISFITS]
    + [_misfit(row, KindMismatch) for row in INVALID],
)
def test_members_refuse_a_point_or_seed_the_kind_does_not_take(
    monkeypatch, name, base, kind, point, seed, reason, error
):
    # every misfit, of shape, premise, kind or validity, gets one reason
    # from one check, made when the family is: no such family exists to
    # draw from or to verify, and nothing is drawn
    G = _family_group(name)
    base, seed = (G.parse_element(x) if isinstance(x, str) else x for x in (base, seed))
    _forbid_drawing(monkeypatch, G)
    named = f"premise: {kind}: {reason}"
    with pytest.raises(error, match=f"^{re.escape(named)}$"):
        InfiniteFamilyCertificate(G, base, kind, point, seed)


def _class_walk(H, x):
    """(c, c^-1 x c) for one c per member of x's class in H, with public
    arithmetic: breadth first from (1, x), each round's new members in
    `sort_key` order, each reached first from the earliest member of the
    round before by the generators, then by their inverses not listed."""
    moves = list(H.generators)
    moves += [t for t in dict.fromkeys(map(H.inverse, H.generators)) if t not in moves]
    frontier, seen = [(H.identity(), x)], {x}
    while frontier:
        yield from frontier
        fresh = {}
        for c, v in frontier:
            for t in moves:
                w = H.conjugate(v, t)
                if w not in seen:
                    seen.add(w)
                    fresh[w] = H.multiply(c, t)
        frontier = sorted(((c, w) for w, c in fresh.items()), key=lambda m: H.sort_key(m[1]))


def _documented_prefix(fam, count):
    """The first `count` members of `fam` built as its kind's docstring
    defines them, with public arithmetic: q-translation and
    value-conjugation walk a class; g_d and lambda-translation take
    conjugators in ball order, each after the seed, and lambda-translation
    keeps the first conjugate of each support."""
    G, y, one = fam.group, fam.point, fam.group.Q.identity()
    if fam.family_kind == "q-translation":
        hs = (WreathElement((), c) for c, _ in _class_walk(G.Q, fam.base.q))
    elif fam.family_kind == "value-conjugation":
        walk = _class_walk(G.D, dict(fam.base.phi)[y])
        hs = (WreathElement(G.zeta(c, y), one) for c, _ in walk)
    elif y is None:
        hs = (WreathElement((), q) for q in G.Q.ball_stream())
    else:
        hs = (WreathElement(G.zeta(d, y), one) for d in G.D.ball_stream())
    prefix, supports = [], set()
    for h in hs:
        if fam.seed_conjugator is not None:
            h = G.multiply(fam.seed_conjugator, h)
        conj = G.conjugate(fam.base, h)
        if fam.family_kind == "lambda-translation":
            if support(conj.phi) in supports:
                continue
            supports.add(support(conj.phi))
        prefix.append((h, conj))
        if len(prefix) == count:
            return prefix


@pytest.mark.parametrize("name, literal, kind, point", FAMILY_OUTPUTS)
def test_members_are_the_documented_conjugators(name, literal, kind, point):
    G = _family_group(name)
    g = G.parse_element(literal)
    fam = witness(G, decide_icc(G), g)
    assert (fam.family_kind, fam.point) == (kind, point)
    assert (fam.seed_conjugator is not None) == (literal == "{}@2")
    taken = fam.take(60)
    assert taken == _documented_prefix(fam, 60)
    assert len({conj for _, conj in taken}) == 60
    # elements, not bare tuples, which compare equal but do not validate
    assert {type(x) for member in taken for x in member} == {WreathElement}


@pytest.mark.parametrize("name, literal, kind, point", FAMILY_OUTPUTS)
def test_members_validate_once_per_call(name, literal, kind, point, monkeypatch):
    # making the family validates the base, then the seed, then the point,
    # once; `members` trusts the conjugators it builds from the ball
    # elements, which the ball stream validated, and validates each seeded
    # product once per call as it builds it (these seeded families skip no
    # conjugator)
    G = _family_group(name)
    fam = witness(G, decide_icc(G), G.parse_element(literal))
    validated, points = [], []
    monkeypatch.setattr(G, "validate", validated.append)
    monkeypatch.setattr(G.omega, "validate_point", points.append)
    seed = [] if fam.seed_conjugator is None else [fam.seed_conjugator]
    assert fam._replace() == fam
    assert validated == [fam.base] + seed
    assert points == ([] if point is None else [point])
    for count in (1, 40):
        validated.clear()
        points.clear()
        taken = fam.take(count)
        assert validated == ([h for h, _ in taken] if seed else [])
        assert points == []


@pytest.mark.parametrize("name, literal, kind, field, value", TAMPERED)
def test_tampered_certificates_fail_on_the_premise(
    name, literal, kind, field, value, monkeypatch
):
    # the dispatcher's certificate verifies; with one field changed, the
    # premise of its (new) kind fails when the family is made, although
    # the conjugates may well stay distinct
    G = _family_group(name)
    fam = witness(G, decide_icc(G), G.parse_element(literal))
    assert fam.family_kind == kind and verify_infinite_certificate(G, fam, N=20)
    if field == "seed_conjugator" and value is not None:
        value = G.parse_element(value)
    _forbid_drawing(monkeypatch, G)
    named = f"premise: {value if field == 'family_kind' else kind}: "
    with pytest.raises(PreconditionError, match=f"^{re.escape(named)}"):
        fam._replace(**{field: value})


@pytest.mark.parametrize("n", [2, 3])
def test_roadmap_probe_finite_class_on_z2_wr_s3(z2_wr_s3, n, monkeypatch):
    # {}@[1,0,2] has a class of 3 in a finite group, so the conjugates a
    # q-translation of it would list have a distinct prefix of 2 or 3
    # members, but its premise fails: no such family can be made
    G = z2_wr_s3
    g = G.parse_element("{}@[1,0,2]")
    conjugates = {G._conjugate(g, WreathElement((), q)) for q in G.Q.ball_stream()}
    assert len(conjugates) == 3 >= n
    _forbid_drawing(monkeypatch, G)
    with pytest.raises(PreconditionError, match=r"^premise: q-translation: q lies in FC\(Q\)$"):
        InfiniteFamilyCertificate(G, g, "q-translation")


def test_roadmap_probe_transposition_in_s20(monkeypatch):
    # the class of a transposition of S20 has 190 members, more than the
    # 100 that `wricc verify` checks, and the instance is not icc
    G = parse_instance("{D: cyclic 2; Q: symmetric 20; omega: trivial 1}").group
    g = G.parse_element("{}@[1,0," + ",".join(map(str, range(2, 20))) + "]")
    assert decide_icc(G).answer is Tri.NO
    _forbid_drawing(monkeypatch, G)
    with pytest.raises(PreconditionError, match=r"^premise: q-translation: q lies in FC\(Q\)$"):
        InfiniteFamilyCertificate(G, g, "q-translation")


def test_families_compare_and_hash_by_their_data():
    # two witness runs on two parses make equal families with equal
    # hashes; a family over other data differs, and none can be changed
    fams = []
    for _ in range(2):
        G = load_instance("f2-wr-z2").group
        fams.append(witness(G, decide_icc(G), G.parse_element("{0:a, 1:b}@0")))
    a, b = fams
    assert a is not b and a.group is not b.group
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    other = a._replace(point=1)
    assert other != a and other.take(5) != a.take(5)
    with pytest.raises(AttributeError):
        a.point = 1


def test_certificate_over_another_group_fails():
    # a q-translation built over the regular carrier of F2, checked against
    # the trivial one: another group, however alike their elements
    G = parse_instance("{D: cyclic 2; Q: free 2; omega: regular}").group
    H = parse_instance("{D: cyclic 2; Q: free 2; omega: trivial 1}").group
    fam = witness(G, decide_icc(G), G.parse_element("{}@a"))
    assert verify_infinite_certificate(G, fam, N=20)
    res = verify_infinite_certificate(H, fam, N=20)
    assert not res and res.reason == "certificate is over another group"


def _count_constructions(monkeypatch):
    """The families made from now on, each recorded as its check starts."""
    made = []
    check = InfiniteFamilyCertificate._check
    monkeypatch.setattr(InfiniteFamilyCertificate, "_check", lambda c: made.append(c) or check(c))
    return made


@pytest.mark.parametrize("name, literal, kind, point", FAMILY_OUTPUTS)
def test_verifier_checks_the_family_once(name, literal, kind, point, monkeypatch):
    # the family's one check ran when it was made: the verifier makes no
    # family and draws the prefix through `members` once; a family that
    # fails the check is never made, so nothing is drawn from it
    G = _family_group(name)
    fam = witness(G, decide_icc(G), G.parse_element(literal))
    made, drawn = _count_constructions(monkeypatch), []
    members = InfiniteFamilyCertificate.members
    monkeypatch.setattr(
        InfiniteFamilyCertificate, "members", lambda c, n: drawn.append(c) or members(c, n)
    )
    assert verify_infinite_certificate(G, fam, N=20)
    assert made == [] and drawn == [fam]
    drawn.clear()
    with pytest.raises(PreconditionError, match="^premise: probe: unknown family kind$"):
        fam._replace(family_kind="probe")
    assert len(made) == 1 and drawn == []


def test_witness_command_checks_the_family_once(tmp_path, capsys, monkeypatch):
    # the dispatcher makes the family, which checks it against its kind,
    # and the command lists its prefix without a second check
    made = _count_constructions(monkeypatch)
    path = tmp_path / "f2-wr-z2.wri"
    path.write_text(instance_text("f2-wr-z2"))
    assert main(["witness", "--json", "-i", str(path), "-g", "{1:b*a^-1}@1"]) == 0
    assert json.loads(capsys.readouterr().out)["distinct_prefix"] == 10
    assert len(made) == 1


# Yes verdicts whose value-conjugation or q-translation families draw many
# conjugators per fresh conjugate in D's or Q's ball: (instance, command)
WALKED_FAMILIES = [
    ("{D: wreath(cyclic 2; integers; regular); Q: cyclic 1; omega: trivial 1}",
     ["verify", "--seed", "7"]),
    ("{D: wreath(cyclic 2; integers; regular); Q: free 2; omega: trivial 1}",
     ["witness", "-g", "{0:{0:1}@0}@1", "--prefix", "2000"]),
    ("{D: wreath(cyclic 3; free 1; regular); Q: product(free 2); omega: union(union(trivial 1))}",
     ["verify", "--seed", "3"]),
    ("{D: product(free 2, free 2); Q: cyclic 1; omega: trivial 1}",
     ["witness", "-g", "{0:(a; 1)}@0", "--prefix", "2000"]),
    ("{D: cyclic 2; Q: product(free 2, free 2); omega: regular}",
     ["witness", "-g", "{}@(a; 1)", "--prefix", "2000"]),
]


@pytest.mark.parametrize(
    "text, argv", WALKED_FAMILIES, ids=[" ".join(argv) for _, argv in WALKED_FAMILIES]
)
def test_walked_families_list_and_verify(tmp_path, capsys, text, argv):
    # the class walk reaches a new conjugate with every conjugator, however
    # many of D's or Q's ball elements would repeat one
    path = tmp_path / "instance.wri"
    path.write_text(text)
    assert main([*argv, "--json", "-i", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    if argv[0] == "witness":
        assert record["distinct_prefix"] == 2000
    else:
        assert record["result"] == "PASS"


# more value-conjugation and q-translation inputs, as WALKED_FAMILIES
WALKED_BASES = [
    (instance_text("f2-wr-z2"), ["witness", "-g", "{0:a, 1:b}@0"]),
    (instance_text("mixed-union-icc-base"), ["witness", "-g", "{(0; 0):a, (1; 1):b}@0"]),
    ("{D: cyclic 2; Q: free 2; omega: regular}", ["witness", "-g", "{1:1}@a*b"]),
]


@pytest.mark.parametrize(
    "text, argv",
    WALKED_FAMILIES + WALKED_BASES,
    ids=[" ".join(argv) for _, argv in WALKED_FAMILIES + WALKED_BASES],
)
def test_walked_members_are_the_conjugates(text, argv, monkeypatch):
    # value-conjugation and q-translation read each conjugate off their
    # class walk, with no call of `_conjugate`; member by member, the first
    # 2000 are what the public, validating `conjugate` gives, for the
    # element given or each that `verify` draws with its seed
    G = parse_instance(text).group
    if argv[0] == "witness":
        elements = [G.parse_element(argv[2])]
    else:
        rng = random.Random(int(argv[2]))
        elements = [G.random_nontrivial_element(rng) for _ in range(5)]
    verdict = decide_icc(G)
    fams = [witness(G, verdict, g) for g in elements]
    fams = [fam for fam in fams if fam.family_kind in ("value-conjugation", "q-translation")]
    assert fams

    def no_conjugate(x, y):
        raise AssertionError("a walked member was conjugated")

    with monkeypatch.context() as m:
        m.setattr(G, "_conjugate", no_conjugate)
        prefixes = [fam.take(2000) for fam in fams]
    for fam, prefix in zip(fams, prefixes):
        for h, conj in prefix:
            assert conj == G.conjugate(fam.base, h)


# (instance, base, point, whether some d != 1 cancels the value at y and
# some the value at q.y) for g_d: y and q.y both in supp phi, one of them,
# neither; q.y sorting before y; union carriers; D a wreath or a direct
# product.  A value in D's ball, or whose inverse is, cancels on it
GD_BASES = [
    ("f2-wr-z2", "{0:a, 1:b}@1", 0, True),
    ("f2-wr-z2", "{0:a, 1:b}@1", 1, True),
    ("f2-wr-z2", "{0:a*b}@1", 0, True),
    ("f2-wr-z2", "{1:b*b}@1", 0, True),
    ("f2-wr-z2", "{}@1", 0, False),
    ("f2-wr-z2", "{}@1", 1, False),
    ("mixed-union-icc-base", "{(0; 0):a, (0; 1):b, (1; 1):a}@1", "(0; 0)", True),
    ("mixed-union-icc-base", "{(0; -3):a, (1; 0):b, (1; 1):a, (1; 2):b^-1}@1", "(1; 2)", True),
    ("mixed-union-icc-base", "{(0; 5):a}@2", "(1; 1)", False),
    ("{D: wreath(cyclic 2; integers; regular); Q: cyclic 2; omega: regular}",
     "{0:{0:1}@0, 1:{}@1}@1", 0, True),
    ("{D: wreath(cyclic 2; integers; regular); Q: cyclic 2; omega: regular}",
     "{1:{-1:1}@1}@1", 1, True),
    ("{D: product(free 2, free 2); Q: cyclic 2; omega: regular}",
     "{0:(a; 1), 1:(b; b^-1)}@1", 0, True),
]


@pytest.mark.parametrize("name, literal, point, cancels", GD_BASES)
def test_gd_members_are_the_conjugates(name, literal, point, cancels, monkeypatch):
    # g_d builds each member from the lemma's closed form, with no call of
    # `_conjugate` and no `_canon`; member by member, the first 2000 are
    # what the public, validating `conjugate` gives
    G = (parse_instance(name) if name.startswith("{") else load_instance(name)).group
    if isinstance(point, str):
        point = G.omega.parse_point(point)
    g = G.parse_element(literal)
    fam = InfiniteFamilyCertificate(G, g, "g_d", point)

    def no_call(*args):
        raise AssertionError("a g_d member was conjugated or canonicalised")

    with monkeypatch.context() as m:
        m.setattr(G, "_conjugate", no_call)
        m.setattr(G, "_canon", no_call)
        prefix = fam.take(2000)
    for h, conj in prefix:
        assert conj == G.conjugate(g, h)
    # past d = 1, a point drops out of the map only where its value cancels
    for z in (point, G.omega._act(g.q, point)):
        dropped = any(z not in support(conj.phi) for _, conj in prefix[1:])
        assert dropped == (cancels and z in support(g.phi))


# (instance, base) of lambda-translation families, seeded when phi = eps;
# in Z x S3 the acting part of the conjugate moves through q's class
_Z = "{D: cyclic 2; Q: integers; omega: regular}"
_Z_S3 = "{D: cyclic 2; Q: product(integers, symmetric 3); omega: regular}"
LAMBDA_FAMILIES = [
    (_Z, "{0:1, 3:1}@5"),
    (_Z, "{}@16"),
    (_Z_S3, "{(0; [0,1,2]):1}@(0; [1,0,2])"),
    (_Z_S3, "{}@(0; [1,0,2])"),
]


@pytest.mark.parametrize("text, literal", LAMBDA_FAMILIES)
def test_lambda_members_are_read_off_the_lemma(text, literal, monkeypatch):
    # `_conjugate` runs once, on the seed, or not at all; member by member,
    # the first 2000 are what the public, validating `conjugate` gives
    G = parse_instance(text).group
    fam = witness(G, decide_icc(G), G.parse_element(literal))
    seed = fam.seed_conjugator
    assert fam.family_kind == "lambda-translation" and (seed is None) == ("{}" not in literal)
    conjugated, law = [], G._conjugate
    with monkeypatch.context() as m:
        m.setattr(G, "_conjugate", lambda x, y: conjugated.append(y) or law(x, y))
        prefix = fam.take(2000)
    assert conjugated == ([] if seed is None else [seed])
    for h, conj in prefix:
        assert conj == G.conjugate(fam.base, h)
    assert len({conj.q for _, conj in prefix}) == (1 if text == _Z else 3)


def test_lambda_translation_skips_repeated_supports_without_a_budget(monkeypatch):
    # on Z x C2 acting regularly, (n; 0) and (n; 1) translate the support
    # {(0; 0), (0; 1)} alike: nearly every other ball conjugator repeats a
    # support and is skipped, and 2000 distinct conjugates still come out
    G = parse_instance("{D: cyclic 2; Q: product(integers, cyclic 2); omega: regular}").group
    fam = witness(G, decide_icc(G), G.parse_element("{(0; 0):1, (0; 1):1}@(0; 0)"))
    assert fam.family_kind == "lambda-translation" and fam.seed_conjugator is None
    drawn, stream = [], G.Q.ball_stream
    monkeypatch.setattr(G.Q, "ball_stream", lambda: (drawn.append(q) or q for q in stream()))
    taken = fam.take(2000)
    assert len({conj for _, conj in taken}) == 2000
    assert len(drawn) == 3997
    assert len({support(conj.phi) for _, conj in taken}) == 2000
    assert verify_infinite_certificate(G, fam, N=2000)


def test_verifier_validates_once_and_recomputes_by_products(f2_wr_z2, monkeypatch):
    # the base is validated once, when the family is made: the verifier
    # trusts the family for it and `members` for the conjugators; no
    # conjugate is recomputed with `_conjugate`
    G = f2_wr_z2
    g = WreathElement(G.zeta((1,), 1), 1)
    prefix = InfiniteFamilyCertificate(G, g, "g_d", 0).take(30)

    class Recorded(InfiniteFamilyCertificate):
        def members(self, count):
            yield from prefix[:count]

    validated = []
    check = G.validate
    monkeypatch.setattr(G, "validate", lambda x: validated.append(x) or check(x))
    cert = Recorded(G, g, "g_d", point=0)

    def no_conjugate(x, y):
        raise AssertionError("the verifier must recompute with products")

    monkeypatch.setattr(G, "_conjugate", no_conjugate)
    calls = []
    for name in ("_multiply", "_inverse"):
        op = getattr(G, name)
        monkeypatch.setattr(G, name, lambda *xs, name=name, op=op: calls.append(name) or op(*xs))
    assert verify_infinite_certificate(G, cert, N=30)
    assert validated == [g]
    # each member costs h^-1, then two products
    assert calls.count("_multiply") == 2 * 30 and calls.count("_inverse") == 30


def test_non_canonical_recorded_conjugate_fails(f2_wr_z2):
    # the right element with its map unsorted: recomputing h^-1 * base * h
    # compares representations, so the prefix cannot hold one element in
    # two forms; h * conj == base * h would re-sort conj and accept it
    G = f2_wr_z2
    g = WreathElement(G.zeta((1,), 1), 1)
    prefix = InfiniteFamilyCertificate(G, g, "g_d", 0).take(10)
    h, conj = prefix[3]
    assert len(conj.phi) == 2
    unsorted = WreathElement(conj.phi[::-1], conj.q)
    assert G._multiply(h, unsorted) == G._multiply(g, h)

    class Forged(InfiniteFamilyCertificate):
        def members(self, count):
            yield from prefix[:3] + [(h, unsorted)] + prefix[4:count]

    res = verify_infinite_certificate(G, Forged(G, g, "g_d", point=0), N=10)
    assert not res and res.reason == "recorded conjugate does not match recomputation"
    assert res.counterexample == (h, unsorted, conj)


# ---------------------------------------------------------------------------
# the verifier pauses the cyclic garbage collector
# ---------------------------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and switched
    back as it was after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _recorded(change):
    """f2-wr-z2, and a g_d family on its base whose members are the first
    10 of its own, changed by `change` (list -> list)."""
    G = load_instance("f2-wr-z2").group
    g = WreathElement(G.zeta((1,), 1), 1)
    prefix = change(InfiniteFamilyCertificate(G, g, "g_d", 0).take(10))

    class Recorded(InfiniteFamilyCertificate):
        def members(self, count):
            yield from prefix[:count]

    return G, Recorded(G, g, "g_d", point=0)


def _other_group(monkeypatch):
    G = load_instance("lamplighter").group
    fam = witness(G, decide_icc(G), G.parse_element("{0:1}@0"))
    return load_instance("f2-wr-z2").group, fam


def _repeating_stream(monkeypatch):
    G = _family_group("z2-wr-free2")
    g = G.parse_element("{}@a")
    pairs = InfiniteFamilyCertificate(G, g, "q-translation").take(2)
    monkeypatch.setitem(witness_module._KINDS, "q-translation", _stream_of(pairs + pairs[:1]))
    return G, InfiniteFamilyCertificate(G, g, "q-translation")


def _failing_multiply(monkeypatch):
    G, cert = _recorded(list)

    def fail(x, y):
        raise RuntimeError("multiply failed")

    monkeypatch.setattr(G, "_multiply", fail)
    return G, cert


# each way the verifier ends: outcome -> (G and a family, given
# monkeypatch; the reason, or None for an exception that escapes it)
VERIFIER_OUTCOMES = {
    "pass": (lambda mp: _recorded(list), "ok"),
    "other-group": (_other_group, "certificate is over another group"),
    "stream-failed": (
        _repeating_stream,
        "stream failed: q-translation: unexpected duplicate conjugate",
    ),
    "exhausted": (lambda mp: _recorded(lambda p: p[:9]), "stream exhausted after 9 members"),
    "mismatch": (
        lambda mp: _recorded(lambda p: [*p[:3], (p[3][0], p[4][1]), *p[4:]]),
        "recorded conjugate does not match recomputation",
    ),
    "duplicate": (
        lambda mp: _recorded(lambda p: p[:9] + p[:1]),
        "duplicate conjugate in the prefix",
    ),
    "escapes": (_failing_multiply, None),
}


@pytest.mark.parametrize("outcome", VERIFIER_OUTCOMES)
def test_the_verifier_restores_the_collector(monkeypatch, collector, outcome):
    # on or off, the caller's setting holds after every return and after an
    # exception that escapes the loop
    make, reason = VERIFIER_OUTCOMES[outcome]
    G, cert = make(monkeypatch)
    if reason is None:
        with pytest.raises(RuntimeError, match="^multiply failed$"):
            verify_infinite_certificate(G, cert, N=10)
    else:
        assert verify_infinite_certificate(G, cert, N=10).reason == reason
    assert gc.isenabled() is collector


def test_members_are_drawn_with_the_collector_paused(monkeypatch, collector):
    G = _family_group("z2-wr-free2")
    row = witness_module._KINDS["q-translation"]
    paused = []

    def spied(*args):
        for pair in row[3](*args):
            paused.append(not gc.isenabled())
            yield pair

    monkeypatch.setitem(witness_module._KINDS, "q-translation", (*row[:3], spied))
    fam = InfiniteFamilyCertificate(G, G.parse_element("{}@a"), "q-translation")
    assert verify_infinite_certificate(G, fam, N=50)
    assert paused == [True] * 50
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name, literal, kind, point", [
    ("f2-wr-z2", "{0:a, 1:b}@0", "value-conjugation", 0),
    ("z2-wr-free2", "{1:1}@a*b", "q-translation", None),
    ("f2-wr-z2", "{0:a*b}@1", "g_d", 0),
    ("lamplighter", "{0:1, 3:1}@5", "lambda-translation", None),
])
def test_a_verified_prefix_leaves_no_cycle(name, literal, kind, point):
    # the premise of the pause: members, conjugators and products hold no
    # reference cycle, so reference counting frees them all
    G = _family_group(name)
    fam = InfiniteFamilyCertificate(G, G.parse_element(literal), kind, point)
    gc.collect()
    assert verify_infinite_certificate(G, fam, N=2000)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# S(O, xi) as data: the lemma's premises against the exact closure
# ---------------------------------------------------------------------------


def _finite_orbit_group(case):
    if case == "nested-z2-wr-s3-base":
        return WreathProduct(load_instance("z2-wr-s3").group, Z, TrivialQSet(Z, 1))
    if case == "union-int-mod-12":
        text = "{D: cyclic 2; Q: integers; omega: union(regular, int-mod 12)}"
        return parse_instance(text).group
    return load_instance(case).group


def _listed(cert):
    """The same certificate with its set listed as a frozenset, which the
    verifier checks by exact closure."""
    return cert._replace(elements=frozenset(cert.elements))


FINITE_ORBIT_CASES = [
    "trivial-omega",
    "mixed-union",
    "z2-wr-s3",
    "s3-wr-s3",
    "nested-z2-wr-s3-base",
    "union-int-mod-12",
]


@pytest.mark.parametrize("case", FINITE_ORBIT_CASES)
def test_premises_agree_with_exact_closure(case):
    G = _finite_orbit_group(case)
    cert = cert_finite_orbit(G)
    assert isinstance(cert.elements, OrbitMaps) and cert.size <= 4096
    listed = _listed(cert)
    assert len(listed.elements) == cert.size
    assert cert.base in listed.elements
    assert list(cert.elements) == sorted(listed.elements, key=G.sort_key)
    structural = verify_finite_certificate(G, cert)
    exact = verify_finite_certificate(G, listed)
    assert structural.ok and exact.ok


@pytest.mark.parametrize("name", ["z2-wr-s3", "s3-wr-s3"])
def test_membership_is_membership_in_the_listing(name):
    G = load_instance(name).group
    S = cert_finite_orbit(G).elements
    listed = frozenset(S)
    for g in G.elements():
        assert (g in S) == (g in listed)
    # not canonical, not a pair, not hashable: never a member
    member = max(listed, key=lambda g: len(g.phi))
    assert WreathElement(member.phi[::-1], member.q) not in S
    for probe in ("x", (), (member.phi,), [member.phi, member.q], (list(member.phi), member.q)):
        assert probe not in S


def _orbit_maps_cert(G, orbit, xi):
    S = OrbitMaps(G, orbit, xi)
    return FiniteClassCertificate(S.first(), S, "finite-orbit", "")


def _s3_wr_s3_open_orbit():
    G = load_instance("s3-wr-s3").group
    S = cert_finite_orbit(G).elements
    return G, _orbit_maps_cert(G, S.orbit[:-1], S.xi)


def _s3_wr_s3_transposition_only():
    G = load_instance("s3-wr-s3").group
    return G, _orbit_maps_cert(G, (0, 1, 2), {(1, 0, 2)})


@pytest.mark.parametrize(
    "make, reason",
    [
        (_s3_wr_s3_open_orbit, "orbit O not closed under the generator [1,2,0] of Q"),
        (_s3_wr_s3_transposition_only, "xi not closed under conjugation by the generator"),
    ],
)
def test_negative_controls_name_the_premise(make, reason):
    G, cert = make()
    res = verify_finite_certificate(G, cert)
    assert not res and res.reason.startswith(reason)
    assert res.counterexample is not None
    assert not verify_finite_certificate(G, _listed(cert))


def test_premises_are_checked_at_the_base_too():
    G = load_instance("s3-wr-s3").group
    cert = cert_finite_orbit(G)
    outside = WreathElement(((0, (1, 0, 2)), (1, (1, 0, 2))), (1, 0, 2))
    # S(O, xi) and the same set listed, which is checked by exact closure
    for S in (cert, _listed(cert)):
        res = verify_finite_certificate(G, S._replace(base=outside))
        assert not res and res.reason == "base element missing from the set"
        assert res.counterexample == (outside,)
    other = load_instance("z2-wr-s3").group
    assert not verify_finite_certificate(other, cert)


def test_orbit_listing_a_point_twice_is_refused():
    # the formula counts |O| points, so each must be listed once
    G = load_instance("s3-wr-s3").group
    with pytest.raises(PreconditionError):
        OrbitMaps(G, (0, 1, 2, 0), {(1, 0, 2)})


def test_identity_in_xi_is_refused_when_made():
    # with e in xi the formula counts maps that take the value e, which are
    # no canonical maps: on s3-wr-s3 it said 124 members where 64 are
    # distinct, and the listing held the identity while `in` said it did not
    G = load_instance("s3-wr-s3").group
    S = cert_finite_orbit(G).elements
    with pytest.raises(PreconditionError, match="^xi must be a nonempty set of nontrivial"):
        OrbitMaps(G, S.orbit, S.xi | {G.D.identity()})


@pytest.mark.parametrize(
    "orbit, xi, error, message",
    [
        ((), {(1, 0, 2)}, PreconditionError, "the orbit O is empty"),
        ((0, 3), {(1, 0, 2)}, KindMismatch, None),
        ((0, 1, 2), set(), PreconditionError, "xi must be a nonempty set"),
        ((0, 1, 2), {(1, 0, 2), (0, 0, 0)}, KindMismatch, None),
    ],
)
def test_orbit_maps_refuse_invalid_data_when_made(orbit, xi, error, message):
    # the verifier checked these once; S(O, xi) over such data is no value
    G = load_instance("s3-wr-s3").group
    with pytest.raises(error) as info:
        OrbitMaps(G, orbit, xi)
    if message is not None:
        assert str(info.value).startswith(message)


def test_size_beyond_printing_and_listing():
    # 2^200 - 1 members: checked by the premises, never listed whole, and
    # the formula carries no value that is too long to read; the walk
    # builds only the members that are read, and with one value in xi the
    # first 20 are that value on the first k points of O
    G = parse_instance("{D: cyclic 2; Q: cyclic 200; omega: regular}").group
    cert = cert_finite_orbit(G)
    assert cert.size == 2**200 - 1
    assert cert.size_formula == "(|xi|+1)^|O| - 1 = (1+1)^200 - 1"
    assert cert.base in cert.elements
    assert verify_finite_certificate(G, cert)
    first = list(itertools.islice(cert.elements, 20))
    assert first == [WreathElement(tuple((y, 1) for y in range(k)), 0) for k in range(1, 21)]
    assert all(x in cert.elements for x in first)


def test_explicit_closure_validates_each_member_once(monkeypatch):
    # the exact path validates the members, then conjugates with the
    # unchecked law; generators outer, members inner
    G = load_instance("s3-wr-s3").group
    cert = _listed(cert_finite_orbit(G))
    validated, conjugated = [], []
    check, law = G.validate, G._conjugate
    monkeypatch.setattr(G, "validate", lambda x: validated.append(x) or check(x))
    monkeypatch.setattr(G, "_conjugate", lambda x, y: conjugated.append((y, x)) or law(x, y))
    assert verify_finite_certificate(G, cert)
    assert sorted(validated, key=G.sort_key) == sorted(cert.elements, key=G.sort_key)
    gens = G.generators
    assert conjugated == [(s, x) for s in gens for x in cert.elements]


def test_orbit_map_certificates_compare_and_hash_by_their_data(monkeypatch):
    # 2^25 - 1 members, past the listing cap: two witness runs on two
    # parses give equal certificates with equal hashes, and nothing is
    # listed to tell them apart from one over other data
    monkeypatch.setattr(OrbitMaps, "__iter__", _no_listing)
    text = "{D: cyclic 2; Q: integers; omega: union(regular, int-mod 25)}"
    certs = []
    for _ in range(2):
        G = parse_instance(text).group
        certs.append(witness(G, decide_icc(G)))
    a, b = certs
    assert a is not b and a.elements is not b.elements
    assert a == b and hash(a) == hash(b)
    assert a.elements == b.elements and hash(a.elements) == hash(b.elements)
    S = a.elements
    assert OrbitMaps(S.group, S.orbit[:-1], S.xi) != S
    assert OrbitMaps(S.group, S.orbit[::-1], S.xi) != S
    assert S != frozenset() and len({a, b}) == 1


def _stream_of(pairs):
    """A q-translation row whose conjugators are the given (h, conjugate)
    pairs, so that `members` meets what no lemma's walk yields."""
    row = witness_module._KINDS["q-translation"]
    return (*row[:3], lambda G, g, y, seed: iter(pairs))


def test_members_fault_on_a_repeat_and_on_an_exhausted_stream(monkeypatch):
    G = _family_group("z2-wr-free2")
    g = G.parse_element("{}@a")
    pairs = InfiniteFamilyCertificate(G, g, "q-translation").take(2)
    monkeypatch.setitem(witness_module._KINDS, "q-translation", _stream_of(pairs + pairs[:1]))
    fam = InfiniteFamilyCertificate(G, g, "q-translation")
    with pytest.raises(WriccError, match="^q-translation: unexpected duplicate conjugate$"):
        fam.take(3)
    res = verify_infinite_certificate(G, fam, N=3)
    assert not res and res.reason == "stream failed: q-translation: unexpected duplicate conjugate"
    monkeypatch.setitem(witness_module._KINDS, "q-translation", _stream_of(pairs))
    assert fam.take(2) == pairs
    exhausted = "^q-translation: conjugator stream exhausted after 2 members$"
    with pytest.raises(CertificateBudget, match=exhausted):
        fam.take(3)


def test_no_certificate_for_an_unknown_verdict(lamplighter):
    verdict = decide_icc(lamplighter)._replace(answer=Tri.UNKNOWN)
    with pytest.raises(PreconditionError, match="^no certificate for an Unknown verdict$"):
        witness(lamplighter, verdict, lamplighter.parse_element("{0:1}@0"))


def test_a_yes_verdict_without_ii_or_iii_matches_no_construction(lamplighter):
    # q = 0 lies in FC(Z), so only (ii) or (iii) could pick the family
    verdict = decide_icc(lamplighter)._replace(cond_ii=Tri.UNKNOWN, cond_iii=Tri.UNKNOWN)
    with pytest.raises(PreconditionError, match="^verdict does not match any certificate"):
        witness(lamplighter, verdict, lamplighter.parse_element("{0:1}@0"))


def test_an_empty_explicit_set_fails(z2_wr_s3):
    g = z2_wr_s3.parse_element("{0:1}@[0,1,2]")
    cert = FiniteClassCertificate(g, frozenset(), "condition-i", "")
    res = verify_finite_certificate(z2_wr_s3, cert)
    assert not res and res.reason == "certificate set is empty"


def test_a_prefix_of_one_member_is_refused(lamplighter):
    fam = witness(lamplighter, decide_icc(lamplighter), lamplighter.parse_element("{0:1}@0"))
    with pytest.raises(PreconditionError, match="^N must be at least 2$"):
        verify_infinite_certificate(lamplighter, fam, N=1)


def test_orbit_maps_repr_names_its_sizes(z2_wr_s3):
    assert repr(cert_finite_orbit(z2_wr_s3).elements) == "OrbitMaps(|O|=3, |xi|=1)"
