import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wricc.oracle as oracle
from wricc.decision import decide_icc
from wricc import groups
from wricc.errors import CertificateBudget, PreconditionError, WriccError
from wricc.groups import EXACT_FINITE, ClassReport, Closure, SymmetricGroup, class_closure
from wricc.instances import parse_instance
from wricc.oracle import AT_LEAST, class_lower_bound, enumerate_class
from wricc.qsets import NaturalQSet, TrivialQSet
from wricc.witness import witness
from wricc.wreath import WreathElement

from conftest import load_instance, orbit_closure, word_ball


class TestFiniteClasses:
    def test_z2_wr_s3_class_sizes_divide_order(self, z2_wr_s3):
        G = z2_wr_s3
        for g in G.elements():
            rep = enumerate_class(G, g, radius=50, max_size=100)
            assert rep.status == EXACT_FINITE
            assert G.order() % rep.count == 0

    def test_class_closed_under_random_conjugation(self, z2_wr_s3):
        G = z2_wr_s3
        rng = random.Random(21)
        g = G.random_nontrivial_element(rng)
        rep = enumerate_class(G, g, radius=50, max_size=100)
        cls = set(rep.elements)
        for _ in range(100):
            h = G.random_element(rng)
            assert G.conjugate(g, h) in cls

    def test_identity_class_is_singleton(self, z2_wr_s3, lamplighter):
        for G in (z2_wr_s3, lamplighter):
            rep = enumerate_class(G, G.identity(), radius=5, max_size=10)
            assert rep.status == EXACT_FINITE
            assert rep.elements == (G.identity(),)


S3 = SymmetricGroup(3)


# each closure runs from a start with 3 elements in its closure, or from a
# start that is its own closure
def _class(max_size, radius=100, singleton=False):
    return class_closure(S3, (0, 1, 2) if singleton else (1, 0, 2), radius, max_size).report()


def _oracle(max_size, radius=100, singleton=False):
    G = load_instance("z2-wr-s3").group
    g = G.parse_element("{}@[0,1,2]" if singleton else "{0:1}@[0,1,2]")
    return enumerate_class(G, g, radius, max_size)


def _orbit(max_size, radius=None, singleton=False):
    assert radius is None  # an orbit has no round budget
    S = TrivialQSet(S3, 1) if singleton else NaturalQSet(S3)
    return orbit_closure(S, 0, max_size)


@pytest.mark.parametrize(
    "run, closed_status, has_radius",
    [
        (_class, EXACT_FINITE, True),
        (_oracle, EXACT_FINITE, True),
        (_orbit, EXACT_FINITE, False),
    ],
    ids=["class_closure", "enumerate_class", "orbit_closure"],
)
def test_one_budget_rule(run, closed_status, has_radius):
    full = run(max_size=1000)
    n = full.count
    assert n == 3 and full.status == closed_status and full.stopped_by == "closed"
    assert full.rounds_used >= 2  # the last round adds nothing
    # a closure of exactly max_size elements is not known to be closed
    cut = run(max_size=n)
    assert (cut.status, cut.stopped_by, cut.count, cut.elements) == (
        AT_LEAST, "max_size", n, None
    )
    assert run(max_size=n + 1) == full
    # the start alone fills a budget of 1, before any round
    for singleton in (False, True):
        one = run(max_size=1, singleton=singleton)
        assert (one.status, one.stopped_by, one.count, one.elements, one.rounds_used) == (
            AT_LEAST, "max_size", 1, None, 0
        )
    single = run(max_size=2, singleton=True)
    assert (single.status, single.stopped_by, single.count) == (closed_status, "closed", 1)
    if has_radius:
        radius = full.rounds_used - 1
        short = run(max_size=1000, radius=radius)
        assert (short.status, short.stopped_by, short.rounds_used) == (
            AT_LEAST, "radius", radius
        )
        assert short.elements is None


class TestInfiniteClasses:
    def test_lamplighter_lamp_class_grows(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        rep = enumerate_class(G, g, radius=6, max_size=1000)
        assert rep.status == AT_LEAST
        assert rep.count >= 7  # at least the translates of the lamp show up
        assert rep.elements is None

    def test_truncation_at_max_size(self, f2_wr_z2):
        G = f2_wr_z2
        g = WreathElement(G.zeta((1,), 0), 0)
        rep = enumerate_class(G, g, radius=6, max_size=50)
        assert rep.status == AT_LEAST and rep.stopped_by == "max_size"
        assert rep.count >= 50

    def test_monotone_in_radius(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 1)
        counts = [
            enumerate_class(G, g, radius=r, max_size=5000).count for r in (2, 4, 6)
        ]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0]

    def test_budget_rejection(self, lamplighter):
        with pytest.raises(PreconditionError):
            enumerate_class(lamplighter, lamplighter.identity(), radius=0)

    def test_max_size_past_the_cap_refused_before_a_conjugate(self, lamplighter, monkeypatch):
        # the closure would keep up to max_size conjugates; none is built
        g = lamplighter.parse_element("{0:1}@1")
        assert enumerate_class(lamplighter, g, 2, groups._FINITE_SET_CAP).count == 6

        def no_closure(*args):
            raise AssertionError("a closure was started")

        monkeypatch.setattr(oracle, "class_closure", no_closure)
        with pytest.raises(
            CertificateBudget, match="^enumerate_class: max_size of more than 1000000 conjugates$"
        ):
            enumerate_class(lamplighter, g, 2, groups._FINITE_SET_CAP + 1)


class TestLamplighterRadius8:
    """Exact radius-8 class counts on the lamplighter, pinned against the
    conjugates by every word of length <= 8, not against the oracle."""

    def test_word_ball_size(self, lamplighter):
        assert len(word_ball(lamplighter, 8)) == 490

    # {}@1 toggles overlapping pairs of lamps {y, y+1}; {}@-2 and {}@19
    # toggle disjoint ones.  A lone lamp {0:1}@0 only moves: 2*8+1 places.
    @pytest.mark.parametrize(
        "literal, count",
        [("{}@1", 129), ("{}@-2", 129), ("{}@19", 129), ("{0:1}@0", 17)],
    )
    def test_exact_count(self, lamplighter, literal, count):
        G = lamplighter
        g = G.parse_element(literal)
        direct = {G.conjugate(g, h) for h in word_ball(G, 8)}
        assert len(direct) == count
        rep = enumerate_class(G, g, radius=8, max_size=10000)
        assert rep.status == AT_LEAST and rep.rounds_used == 8
        assert rep.stopped_by == "radius"
        assert rep.count == count


class TestClassLowerBound:
    @pytest.fixture
    def radii(self, monkeypatch):
        """The round budgets class_lower_bound runs its closure with: the
        closure's budget each time it is reported."""
        seen = []
        report = Closure.report

        def spy(bfs):
            seen.append(bfs.radius)
            return report(bfs)

        monkeypatch.setattr(Closure, "report", spy)
        return seen

    @pytest.mark.parametrize(
        "literal, expected, count",
        [("{}@1", [8, 32], 10000), ("{-12:1, 16:1}@-3", [8], 490)],
    )
    def test_returns_at_first_budget_reaching_target(
        self, lamplighter, radii, literal, expected, count
    ):
        # a full enumeration at the final radius finds `count` conjugates
        # (10000 fills its budget); the bound stops at target + 1 of them
        G = lamplighter
        g = G.parse_element(literal)
        rep, radius = class_lower_bound(G, g, 200)
        assert radii == expected and radius == expected[-1]
        assert (rep.status, rep.count, rep.stopped_by) == (AT_LEAST, 201, "max_size")
        assert enumerate_class(G, g, radius, 10000).count == count

    @pytest.mark.parametrize("target", [1, 50, 200])
    def test_never_builds_more_than_target_plus_one(self, f2_wr_z2, monkeypatch, target):
        built = []

        def spy(G, g, radius, max_size):
            bfs = class_closure(G, g, radius, max_size)
            built.append(bfs)
            return bfs

        monkeypatch.setattr(oracle, "class_closure", spy)
        G = f2_wr_z2
        rep, radius = class_lower_bound(G, WreathElement(G.zeta((1,), 0), 1), target)
        assert (rep.status, rep.count, rep.stopped_by, radius) == (
            AT_LEAST, target + 1, "max_size", 8
        )
        assert built and all(len(bfs.reached) <= target + 1 for bfs in built)

    def test_moves_that_fix_a_member_skip_their_inverses(self, mixed_union_icc, monkeypatch):
        # conjugation by each zeta at (0; 0) returns this element itself,
        # and so would its inverse; a closure stepping every move but the
        # one back took 607 steps of two products to reach 201 members
        G = mixed_union_icc
        products = 0
        multiply = G._multiply

        def spy(a, b):
            nonlocal products
            products += 1
            return multiply(a, b)

        monkeypatch.setattr(G, "_multiply", spy)
        rep, radius = class_lower_bound(G, G.parse_element("{(1; 0):a^-2*b^-1*a*b^-1}@0"), 200)
        assert (rep.status, rep.count, rep.rounds_used, rep.stopped_by, radius) == (
            AT_LEAST, 201, 4, "max_size", 8
        )
        assert products <= 2 * 419

    @pytest.mark.parametrize("target", [0, -5])
    def test_target_below_one_rejected(self, lamplighter, target):
        # the library's message; `wricc verify` names its own flag
        message = "^class_lower_bound: target must be at least 1$"
        with pytest.raises(PreconditionError, match=message):
            class_lower_bound(lamplighter, lamplighter.parse_element("{0:1}@0"), target)

    def test_target_past_the_cap_refused_before_a_conjugate(self, lamplighter, monkeypatch):
        # the closure would keep target + 1 conjugates; none is built
        def no_closure(*args):
            raise AssertionError("a closure was started")

        monkeypatch.setattr(oracle, "class_closure", no_closure)
        g = lamplighter.parse_element("{0:1}@0")
        with pytest.raises(
            CertificateBudget, match="^class_lower_bound: target of more than 1000000 conjugates$"
        ):
            class_lower_bound(lamplighter, g, groups._FINITE_SET_CAP + 1)
        with pytest.raises(AssertionError):
            class_lower_bound(lamplighter, g, groups._FINITE_SET_CAP)

    def test_stops_on_exact_finite_class(self, z2_wr_s3, radii):
        G = z2_wr_s3
        g = G.random_nontrivial_element(random.Random(3))
        rep, radius = class_lower_bound(G, g, 200)
        assert radii == [8] and radius == 8
        assert rep.status == EXACT_FINITE and rep.count < 200
        assert rep.stopped_by == "closed"

    @pytest.mark.parametrize(
        "start, expected", [(8, [8, 32, 128, 512]), (10, [10, 40, 160, 512])]
    )
    def test_never_past_512_rounds(self, lamplighter, monkeypatch, start, expected):
        # every report of the closure is an open class below the target,
        # so the round budget escalates as far as it may
        seen = []

        def open_below_target(bfs):
            seen.append(bfs.radius)
            return ClassReport(AT_LEAST, None, 50, bfs.radius, "radius")

        monkeypatch.setattr(Closure, "report", open_below_target)
        G = lamplighter
        rep, radius = class_lower_bound(G, G.parse_element("{}@1"), 100, radius=start)
        assert seen == expected and radius == 512
        assert rep.status == AT_LEAST and rep.count == 50

    def test_start_beyond_cap_rejected(self, lamplighter):
        with pytest.raises(PreconditionError):
            class_lower_bound(lamplighter, lamplighter.identity(), 200, radius=600)


ICC = ["lamplighter", "f2-wr-z2", "mixed-union-icc-base"]
TRANSLATIONS = [f"{{}}@{k}" for k in range(-20, 21) if k]


class TestResumedClosure:
    """class_lower_bound resumes one closure when it escalates; what it
    reports is what one enumeration at the final budget reports."""

    @settings(max_examples=60)
    @given(
        element=st.one_of(
            st.tuples(st.sampled_from(ICC), st.integers(0, 2**32 - 1)),
            st.tuples(st.just("lamplighter"), st.sampled_from(TRANSLATIONS)),
        ),
        target=st.sampled_from([1, 50, 200]),
    )
    def test_resumed_equals_fresh(self, element, target):
        name, x = element
        G = load_instance(name).group
        g = G.parse_element(x) if isinstance(x, str) else G.random_element(random.Random(x))
        rep, radius = class_lower_bound(G, g, target)
        assert radius in (8, 32, 128, 512)
        assert rep == enumerate_class(G, g, radius, target + 1)

    def test_closing_after_resumption_verifies_every_member(self, monkeypatch):
        # the class has 331 members after 6 rounds, open, and closes in
        # round 9 with 384: every member but g is verified exactly once, in
        # the order reached, those of the open run while it is open
        G = parse_instance("{D: cyclic 4; Q: symmetric 4; omega: natural}").group
        g = G.parse_element("{0:1}@[1,2,3,0]")
        checked = []
        law = G._conjugate

        def spy(x, h):
            checked.append(law(x, h))
            return checked[-1]

        # each run's members and the members checked before it, as the
        # run is reported
        runs = []
        report = Closure.report

        def report_spy(bfs):
            rep = report(bfs)
            runs.append((list(bfs.reached), list(checked)))
            return rep

        monkeypatch.setattr(G, "_conjugate", spy)
        monkeypatch.setattr(Closure, "report", report_spy)
        rep, radius = class_lower_bound(G, g, 5000, radius=6)
        assert (rep.status, rep.count, rep.rounds_used, radius) == (EXACT_FINITE, 384, 9, 24)
        (opened, before_open), (closed, before_close) = runs
        assert len(opened) == 331 and closed[:331] == opened and opened[0] == g
        assert before_open == [] and before_close == opened[1:]
        assert checked == closed[1:]
        assert sorted(closed, key=G.sort_key) == list(rep.elements)
        assert rep == enumerate_class(G, g, 24, 5001)

    @pytest.mark.parametrize(
        "name, literal",
        [
            ("lamplighter", "{}@1"),  # escalates to 32 rounds
            ("lamplighter", "{-12:1, 16:1}@-3"),
            ("f2-wr-z2", "{0:a}@1"),
            ("z2-wr-s3", "{0:1}@[1,0,2]"),  # closes
        ],
    )
    def test_validates_only_g(self, monkeypatch, name, literal):
        G = load_instance(name).group
        g = G.parse_element(literal)
        seen = []
        validate = G.validate

        def spy(x):
            seen.append(x)
            validate(x)

        monkeypatch.setattr(G, "validate", spy)
        rep, radius = class_lower_bound(G, g, 200)
        assert seen == [g]
        seen.clear()
        enumerate_class(G, g, radius, 201)
        assert seen == [g]

    def test_product_corrupted_at_one_late_member_is_caught(self, lamplighter, monkeypatch):
        # {0:1, 3:1}@1 has 350 conjugates within 8 rounds; the product is
        # wrong only where it gives member 300, which is reached in the last
        # round, so no later member is built from it
        G = lamplighter
        g = G.parse_element("{0:1, 3:1}@1")
        bfs = class_closure(G, g, 8)
        bfs.report()
        assert len(bfs.reached) == 350
        late = list(bfs.reached)[300]
        product = G._multiply

        def corrupted(a, b):
            y = product(a, b)
            return WreathElement(y.phi, y.q + 1) if y == late else y

        monkeypatch.setattr(G, "_multiply", corrupted)
        with pytest.raises(WriccError, match="bad conjugator"):
            enumerate_class(G, g, 8, 10000)

    def test_law_broken_beyond_radius_8_is_caught(self, lamplighter, monkeypatch):
        # {}@1 has 129 conjugates within 8 rounds; the law is wrong only on
        # members first reached after them, in the resumed rounds
        G = lamplighter
        g = G.parse_element("{}@1")
        bfs = class_closure(G, g, 8)
        bfs.report()
        early = set(bfs.reached)
        law = G._conjugate

        def broken(x, h):
            y = law(x, h)
            return y if y in early else WreathElement(y.phi, y.q + 1)

        monkeypatch.setattr(G, "_conjugate", broken)
        assert enumerate_class(G, g, 8, 201).count == 129
        with pytest.raises(WriccError, match="bad conjugator"):
            class_lower_bound(G, g, 200)


class TestMultiOrbitCarriers:
    """The generators put zeta_d in every orbit, so a class is closed under
    all of G, not under a subgroup."""

    def test_icc_class_grows_on_the_finite_part(self, mixed_union_icc):
        # acts by 0 with its only value on the int-mod part: with zeta_d on
        # the regular part alone, this class closed at 3 conjugates
        G = mixed_union_icc
        g = G.parse_element("{(1; 0):a^-2*b^-1*a*b^-1}@0")
        rep, radius = class_lower_bound(G, g, 200)
        assert (rep.status, rep.count, radius) == (AT_LEAST, 201, 8)

    def test_class_on_the_finite_part_is_exact(self, s3_union):
        # the transposition at one point of Z/3 is conjugate to each of
        # the 3 transpositions at each of the 3 points
        G = s3_union
        rep = enumerate_class(G, G.parse_element("{(1; 0):[1,0,2]}@0"), radius=30, max_size=100)
        assert (rep.status, rep.count) == (EXACT_FINITE, 9)
        assert {y for e in rep.elements for y, _ in e.phi} == {(1, 0), (1, 1), (1, 2)}


class TestCrossChecks:
    @pytest.mark.parametrize("name", ["trivial-omega", "mixed-union", "s3-wr-s3"])
    def test_finite_certificates_absorb_oracle_classes(self, name):
        # every class met inside a finite certificate must stay inside it
        G = load_instance(name).group
        v = decide_icc(G)
        cert = witness(G, v)
        for g in sorted(cert.elements, key=G.sort_key)[:5]:
            rep = enumerate_class(G, g, radius=30, max_size=cert.size + 1)
            assert rep.status == EXACT_FINITE
            assert all(x in cert.elements for x in rep.elements)

    def test_family_members_meet_oracle(self, lamplighter):
        # conjugates produced by a certificate family reappear in the
        # oracle's enumeration when the radius is generous enough
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        v = decide_icc(G)
        fam = witness(G, v, g)
        members = {c for _, c in fam.take(7)}
        rep = enumerate_class(G, g, radius=12, max_size=100000)
        assert rep.count >= len(members)

    def test_distinct_oracle_conjugates_exceed_declared(self, f2_wr_z2):
        G = f2_wr_z2
        g = WreathElement(G.zeta((1,), 0), 1)
        rep = enumerate_class(G, g, radius=8, max_size=300)
        assert rep.status == AT_LEAST and rep.count >= 300


class TestReportOrder:
    """`report()` only counts: it expands the rounds in the order reached
    and sorts a closed class once, at the end."""

    @pytest.mark.parametrize(
        "name, literal",
        [
            ("lamplighter", "{}@18"),  # escalates to 32 rounds
            ("f2-wr-z2", "{0:a*b}@1"),
            ("mixed-union-icc-base", "{(0; 0):a, (1; 0):a}@0"),
        ],
    )
    def test_an_open_class_calls_no_sort_key(self, monkeypatch, name, literal):
        G = load_instance(name).group
        g = G.parse_element(literal)
        calls = []
        key = G.sort_key
        monkeypatch.setattr(G, "sort_key", lambda x: calls.append(x) or key(x))
        rep, _ = class_lower_bound(G, g, 200)
        assert rep.status == AT_LEAST and rep.count == 201
        assert calls == []

    @pytest.mark.parametrize(
        "name, literal",
        [("z2-wr-s3", "{0:1, 1:1}@[1,0,2]"), ("s3-wr-s3", "{0:[1,0,2], 1:[1,2,0]}@[1,0,2]")],
    )
    def test_a_closed_class_is_sorted_once(self, monkeypatch, name, literal):
        G = load_instance(name).group
        bfs = class_closure(G, G.parse_element(literal))
        calls = []
        key = G.sort_key
        monkeypatch.setattr(bfs, "_key", lambda x: calls.append(x) or key(x))
        rep = bfs.report()
        assert rep.status == EXACT_FINITE and rep.count > 1
        assert rep.elements == tuple(sorted(bfs.reached, key=G.sort_key))
        # one key per member: the closed class is sorted once, no round is
        assert sorted(calls, key=key) == list(rep.elements)

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(ICC + ["z2-wr-s3"]),
        seed=st.integers(0, 2**32 - 1),
        radius=st.integers(1, 6),
        max_size=st.sampled_from([1, 7, 60, 201, 1500]),
        iterated=st.integers(0, 3),
    )
    def test_reported_equals_iterated_then_reported(self, name, seed, radius, max_size, iterated):
        # a closure that is only reported, and one that first yields up to
        # `iterated` sorted rounds, then is reported, agree on everything
        # the report says and on the set reached; a `max_size` stop keeps
        # a part of its last round that depends on the order, and the
        # rounds before it
        G = load_instance(name).group
        g = G.random_element(random.Random(seed))
        only = class_closure(G, g, radius, max_size)
        rep = only.report()
        walked = class_closure(G, g, radius, max_size)
        rounds = list(itertools.islice(walked, iterated))
        assert all(r == sorted(r, key=G.sort_key) for r in rounds)
        assert walked.report() == rep
        last = rep.rounds_used if rep.stopped_by == "max_size" else rep.rounds_used + 1
        assert _within(walked.reached, last) == _within(only.reached, last)


def _within(reached, rounds):
    """The elements of a closure's `reached` found in fewer than `rounds`
    rounds, read off the chain of moves that reached each."""
    depth = {}
    for y, arrival in reached.items():
        depth[y] = 0 if arrival is None else depth[arrival[0]] + 1
    return {y for y, d in depth.items() if d < rounds}


def test_deterministic(lamplighter):
    G = lamplighter
    g = WreathElement(G.zeta(1, 0), 1)
    a = enumerate_class(G, g, radius=5, max_size=400)
    b = enumerate_class(G, g, radius=5, max_size=400)
    assert a == b


def test_broken_conjugation_law_is_caught(lamplighter, monkeypatch):
    # the BFS steps with products only, so re-verifying its members through
    # `conjugate` checks the conjugation law against them
    G = lamplighter
    g = WreathElement(G.zeta(1, 0), 1)
    law = G._conjugate
    monkeypatch.setattr(G, "_conjugate", lambda x, y: WreathElement(law(x, y).phi, x.q + 1))
    with pytest.raises(WriccError, match="bad conjugator"):
        enumerate_class(G, g, radius=3, max_size=100)
    with pytest.raises(WriccError, match="bad conjugator"):
        class_lower_bound(G, g, 200)


def imported_names(tree):
    """The dotted parts of every import in the tree, at any depth:
    `from .decision import decide_icc` gives ["decision", "decide_icc"]."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            for alias in node.names:
                yield base + [alias.name]


def test_oracle_imports_neither_decision_nor_witness():
    # the oracle is the cross-check of the verdicts and certificates, so it
    # imports nothing from the modules that produce them
    tree = ast.parse(Path(oracle.__file__).read_text())
    imports = list(imported_names(tree))
    assert ["groups", "Closure"] in imports
    assert [parts for parts in imports if {"decision", "witness"} & set(parts)] == []
