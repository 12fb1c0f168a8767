import random

import pytest

import wricc.groups
from wricc.decision import decide_icc
from wricc.errors import (
    CertificateBudget,
    EmptyOmega,
    KindMismatch,
    PreconditionError,
    Unsupported,
)
from wricc.groups import (
    AT_LEAST,
    EXACT_FINITE,
    CyclicGroup,
    DirectProductGroup,
    FreeGroup,
    IntegersGroup,
    SymmetricGroup,
)
from wricc.qsets import (
    DisjointUnionQSet,
    IntModQSet,
    NaturalQSet,
    QSet,
    RegularQSet,
    TrivialQSet,
)
from wricc.tri import Tri

from wricc.wreath import WreathProduct

from conftest import OpaqueQSet, orbit_closure

Z = IntegersGroup()
S3 = SymmetricGroup(3)

REG_Z = RegularQSet(Z)
MOD3 = IntModQSet(Z, 3)
TRIV = TrivialQSet(Z, 1)
NAT3 = NaturalQSet(S3)
UNION = DisjointUnionQSet((RegularQSet(Z), IntModQSet(Z, 3)))


class TestAct:
    def test_regular_translation(self):
        assert REG_Z.act(3, 4) == 7

    def test_int_mod(self):
        assert MOD3.act(1, 2) == 0
        assert MOD3.act(-5, 1) == 2

    def test_trivial(self):
        assert TRIV.act(99, 0) == 0

    def test_natural(self):
        assert NAT3.act((1, 0, 2), 0) == 1
        assert NAT3.act((1, 2, 0), 2) == 0

    def test_union_routes_by_tag(self):
        assert UNION.act(2, (0, 5)) == (0, 7)
        assert UNION.act(2, (1, 2)) == (1, 1)

    def test_bad_point(self):
        with pytest.raises(KindMismatch):
            MOD3.validate_point(3)
        with pytest.raises(KindMismatch):
            UNION.validate_point((2, 0))
        with pytest.raises(KindMismatch):
            NAT3.validate_point(5)


OMEGAS = [REG_Z, MOD3, TRIV, NAT3, UNION, RegularQSet(FreeGroup(2))]


@pytest.mark.parametrize("S", OMEGAS, ids=lambda s: s.carrier_kind)
def test_action_axioms_random(S):
    rng = random.Random(999)
    e = S.Q.identity()
    for _ in range(200):
        q1 = S.Q.random_element(rng)
        q2 = S.Q.random_element(rng)
        x = S.random_point(rng)
        assert S.act(e, x) == x
        assert S.act(S.Q.multiply(q1, q2), x) == S.act(q1, S.act(q2, x))


class TestOrbitBounded:
    # a bounded orbit closure, and the finite orbit each carrier reads off
    # its structure
    def test_int_mod_exact(self):
        rep = orbit_closure(MOD3, 0, 100)
        assert rep.status == EXACT_FINITE
        assert rep.elements == (0, 1, 2) == MOD3.finite_orbit_example()

    def test_regular_exceeds(self):
        rep = orbit_closure(REG_Z, 0, 25)
        assert rep.status == AT_LEAST and rep.stopped_by == "max_size"
        assert rep.count == 25 and rep.elements is None
        assert REG_Z.finite_orbit_example() is None

    def test_trivial_singleton(self):
        rep = orbit_closure(TRIV, 0, 10)
        assert rep.status == EXACT_FINITE
        assert rep.elements == (0,) == TRIV.finite_orbit_example()

    def test_natural_full(self):
        rep = orbit_closure(NAT3, 1, 10)
        assert rep.status == EXACT_FINITE
        assert rep.elements == (0, 1, 2) == NAT3.finite_orbit_example()


class TestStructuralOracles:
    def test_all_orbits_infinite(self):
        assert REG_Z.all_orbits_infinite() is Tri.YES
        assert MOD3.all_orbits_infinite() is Tri.NO
        assert TRIV.all_orbits_infinite() is Tri.NO
        assert NAT3.all_orbits_infinite() is Tri.NO
        assert UNION.all_orbits_infinite() is Tri.NO
        assert RegularQSet(S3).all_orbits_infinite() is Tri.NO

    def test_finite_orbit_examples_closed(self):
        for S in (MOD3, TRIV, NAT3, UNION):
            orb = S.finite_orbit_example()
            assert orb
            pts = set(orb)
            for p in pts:
                for s in S.Q.generators:
                    assert S.act(s, p) in pts
        assert REG_Z.finite_orbit_example() is None

    def test_kernel_meets_fc(self):
        ans, q0 = REG_Z.kernel_meets_fc()
        assert ans is Tri.NO and q0 is None

        ans, q0 = MOD3.kernel_meets_fc()
        assert ans is Tri.YES and q0 == 3

        ans, q0 = TRIV.kernel_meets_fc()
        assert ans is Tri.YES and q0 == 1

        ans, q0 = NAT3.kernel_meets_fc()
        assert ans is Tri.NO and q0 is None

    def test_witness_really_acts_trivially(self):
        for S in (MOD3, TRIV):
            ans, q0 = S.kernel_meets_fc()
            assert ans is Tri.YES
            assert S.Q.fc_contains(q0)
            assert q0 != S.Q.identity()
            for p in {S.random_point(random.Random(k)) for k in range(20)}:
                assert S.act(q0, p) == p

    def test_free_action(self):
        assert REG_Z.is_free_action() is Tri.YES
        assert MOD3.is_free_action() is Tri.NO
        assert TRIV.is_free_action() is Tri.NO
        assert NAT3.is_free_action() is Tri.NO
        assert UNION.is_free_action() is Tri.NO

    def test_kernel_descriptions(self):
        assert REG_Z.kernel_description() == ("trivial",)
        assert MOD3.kernel_description() == ("nZ", 3)
        assert TRIV.kernel_description() == ("full",)
        assert NAT3.kernel_description() == ("trivial",)


class TestPublicOraclesValidate:
    # regression probes: a malformed operand raises KindMismatch, never a
    # verdict or a TypeError; 99 is a point of the regular carrier over the
    # integers, so 99 probes the regular carrier over S3 only
    CARRIERS = [REG_Z, RegularQSet(S3), MOD3, NAT3, UNION]
    BAD_POINTS = [(S, x) for S in CARRIERS for x in ("junk", 99) if (S, x) != (REG_Z, 99)]

    @pytest.mark.parametrize(
        "S, x", BAD_POINTS, ids=lambda v: v.carrier_kind if isinstance(v, QSet) else repr(v)
    )
    def test_orbit_infinite_rejects_a_bad_point(self, S, x):
        with pytest.raises(KindMismatch):
            S.orbit_infinite(x)

    @pytest.mark.parametrize("S", CARRIERS, ids=lambda s: s.carrier_kind)
    def test_fixes_all_points_rejects_a_bad_element(self, S):
        with pytest.raises(KindMismatch):
            S.fixes_all_points("junk")


@pytest.mark.parametrize(
    "S, reps",
    [
        (REG_Z, (0,)),
        (RegularQSet(S3), ((0, 1, 2),)),
        (MOD3, (0,)),
        (TrivialQSet(Z, 3), (0, 1, 2)),
        (NAT3, (0,)),
        (DisjointUnionQSet((NAT3, TrivialQSet(S3, 2))), ((0, 0), (1, 0), (1, 1))),
        (UNION, ((0, 0), (1, 0))),
        (DisjointUnionQSet((TrivialQSet(Z, 2), MOD3, REG_Z)), ((0, 0), (0, 1), (1, 0), (2, 0))),
    ],
    ids=lambda v: v.carrier_kind if isinstance(v, QSet) else repr(v),
)
def test_orbit_representatives(S, reps):
    # sized and re-iterable: its length is read before it is listed, and
    # each listing gives the same points
    listed = S.orbit_representatives()
    assert len(listed) == len(reps)
    assert tuple(listed) == tuple(listed) == reps
    if S.is_finite_carrier:
        # one point of each orbit: the orbits of the representatives
        # partition the carrier
        orbits = [set(orbit_closure(S, y, 1000).elements) for y in reps]
        assert sum(map(len, orbits)) == len(set().union(*orbits)) == len(list(S.points()))


class TestUnion:
    def test_points_stream_interleaves_parts(self):
        head = [p for p, _ in zip(UNION.points_stream(), range(9))]
        assert {p for p in head if p[0] == 1} == {(1, 0), (1, 1), (1, 2)}
        assert len({p for p in head if p[0] == 0}) == 6

    def test_kernel_intersection_lcm(self):
        U = DisjointUnionQSet((IntModQSet(Z, 4), IntModQSet(Z, 6)))
        assert U.kernel_description() == ("nZ", 12)
        ans, q0 = U.kernel_meets_fc()
        assert ans is Tri.YES and q0 == 12
        for p in U.points():
            assert U.act(q0, p) == p

    def test_kernel_trivial_when_regular_part(self):
        assert UNION.kernel_description() == ("trivial",)
        ans, q0 = UNION.kernel_meets_fc()
        assert ans is Tri.NO and q0 is None

    def test_orbit_infinite_per_point(self):
        assert UNION.orbit_infinite((0, 0)) is Tri.YES
        assert UNION.orbit_infinite((1, 0)) is Tri.NO


def test_point_literals_roundtrip():
    cases = [(REG_Z, 7), (MOD3, 2), (NAT3, 1), (UNION, (0, -4)), (UNION, (1, 2))]
    for S, p in cases:
        assert S.parse_point(S.format_point(p)) == p


def test_points_stream_deterministic():
    for S in OMEGAS:
        a = [p for p, _ in zip(S.points_stream(), range(12))]
        b = [p for p, _ in zip(S.points_stream(), range(12))]
        assert a == b
        assert len({S.point_key(p) for p in a}) == len(a)


C6 = CyclicGroup(6)
S4 = SymmetricGroup(4)
NAT4 = NaturalQSet(S4)
# finite carriers over finite Q, and over the integers (int-mod, trivial)
FINITE = [
    RegularQSet(S3),
    RegularQSet(C6),
    RegularQSet(DirectProductGroup((CyclicGroup(2), S3))),
    IntModQSet(Z, 5),
    TrivialQSet(Z, 3),
    TrivialQSet(S3, 3),
    NaturalQSet(SymmetricGroup(1)),
    NaturalQSet(SymmetricGroup(2)),
    NAT3,
    NAT4,
    NaturalQSet(SymmetricGroup(5)),
    DisjointUnionQSet((NAT3, RegularQSet(S3), TrivialQSet(S3, 2))),
    DisjointUnionQSet((IntModQSet(Z, 5), TrivialQSet(Z, 3), MOD3)),
    DisjointUnionQSet((RegularQSet(C6), TrivialQSet(C6, 2))),
    DisjointUnionQSet((NAT4, RegularQSet(S4))),
    DisjointUnionQSet((DisjointUnionQSet((NAT3, TrivialQSet(S3, 2))), TrivialQSet(S3, 1))),
]


def _point_set(S):
    """The carrier's points, from its construction rather than its streams."""
    if isinstance(S, RegularQSet):
        return set(S.Q.elements())
    if isinstance(S, DisjointUnionQSet):
        return {(i, p) for i, part in enumerate(S.parts) for p in _point_set(part)}
    return set(range(S.size))


@pytest.mark.parametrize("S", FINITE, ids=lambda s: s.carrier_kind)
def test_derived_oracles_match_the_action(S):
    # the oracles QSet derives from the kernel description, the orbit
    # representatives and points_stream, and the structural answers each
    # carrier reads off its kind, agree with the action itself
    pts = list(S.points())
    assert len(pts) == len(set(pts)) and set(pts) == _point_set(S)
    qs = list(S.Q.elements()) if S.Q.is_finite else range(-30, 31)
    for q in qs:
        fixes = all(S.act(q, p) == p for p in pts)
        assert S.fixes_all_points(q) is (Tri.YES if fixes else Tri.NO)
    assert S.all_orbits_infinite() is Tri.NO
    assert all(S.orbit_infinite(p) is Tri.NO for p in pts)
    e = S.Q.identity()
    free = not any(S.act(q, p) == p for q in qs if q != e for p in pts)
    assert S.is_free_action() is (Tri.YES if free else Tri.NO)
    orbits = [set(orbit_closure(S, y, len(pts) + 1).elements) for y in S.orbit_representatives()]
    assert sum(map(len, orbits)) == len(set().union(*orbits)) == len(pts)
    orb = S.finite_orbit_example()
    assert len(orb) == len(set(orb))
    assert set(orb) == set(orbit_closure(S, orb[0], len(pts) + 1).elements)


@pytest.mark.parametrize(
    "S",
    [
        RegularQSet(S3),
        NAT4,
        IntModQSet(Z, 5),
        TrivialQSet(S3, 3),
        UNION,
        DisjointUnionQSet((TrivialQSet(C6, 2), RegularQSet(C6))),
    ],
    ids=lambda s: s.carrier_kind,
)
def test_finite_orbit_example_is_one_orbit(S):
    # `wricc verify` reads the size of the base point's orbit as the
    # example's length, so every point of it has exactly that orbit
    orb = S.finite_orbit_example()
    for y in orb:
        rep = orbit_closure(S, y, len(orb) + 1)
        assert rep.status == EXACT_FINITE and set(rep.elements) == set(orb)


@pytest.mark.parametrize("S", [REG_Z, UNION], ids=lambda s: s.carrier_kind)
def test_infinite_carrier_has_no_point_list(S):
    with pytest.raises(Unsupported):
        S.points()


@pytest.mark.parametrize("opaque_first", [False, True])
def test_union_with_an_unknown_kernel_stays_unknown(opaque_first):
    # a part with no kernel rule leaves the union's kernel unknown, so the
    # derived oracles answer Unknown and so does condition (i)
    parts = (RegularQSet(Z), OpaqueQSet(Z))
    S = DisjointUnionQSet(parts[::-1] if opaque_first else parts)
    assert S.kernel_description() is None
    assert S.kernel_meets_fc() == (Tri.UNKNOWN, None)
    assert S.fixes_all_points(1) is Tri.UNKNOWN
    assert decide_icc(WreathProduct(CyclicGroup(2), Z, S)).cond_i is Tri.UNKNOWN


@pytest.mark.parametrize("parts", [(MOD3, TRIV), (TRIV, MOD3)], ids=["mod-first", "trivial-first"])
def test_union_kernel_meets_the_full_kernel(parts):
    # the full kernel of a trivial part leaves the other part's kernel
    S = DisjointUnionQSet(parts)
    assert S.kernel_description() == ("nZ", 3)
    assert S.kernel_meets_fc() == (Tri.YES, 3)
    assert S.fixes_all_points(6) is Tri.YES and S.fixes_all_points(2) is Tri.NO


def test_full_kernel_over_an_unknown_fc_is_unknown():
    # a trivial carrier asks Q for an FC element; a wreath Q whose own
    # verdict is Unknown has no FC rule, so condition (i) is Unknown
    W = WreathProduct(CyclicGroup(2), Z, OpaqueQSet(Z))
    assert decide_icc(W).answer is Tri.UNKNOWN
    assert TrivialQSet(W, 1).kernel_meets_fc() == (Tri.UNKNOWN, None)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: IntModQSet(S3, 3), PreconditionError),
        (lambda: IntModQSet(Z, 0), EmptyOmega),
        (lambda: DisjointUnionQSet(()), EmptyOmega),
        (lambda: DisjointUnionQSet((REG_Z, RegularQSet(S3))), PreconditionError),
    ],
    ids=["int-mod-over-S3", "int-mod-0", "empty-union", "union-over-two-Qs"],
)
def test_construction_refusals(make, error):
    with pytest.raises(error):
        make()


def test_finite_orbit_past_the_cap_is_refused(monkeypatch):
    # the size is compared with the cap before any point is listed
    monkeypatch.setattr(wricc.groups, "_FINITE_SET_CAP", 39)
    assert len(IntModQSet(Z, 39).finite_orbit_example()) == 39
    with pytest.raises(CertificateBudget, match="a finite orbit of more than 39 points$"):
        IntModQSet(Z, 40).finite_orbit_example()


def test_union_of_infinite_orbits_has_no_finite_orbit():
    assert DisjointUnionQSet((REG_Z, RegularQSet(Z))).finite_orbit_example() is None
