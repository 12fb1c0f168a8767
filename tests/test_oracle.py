import random

import pytest

from wricc import PreconditionError, WreathElement, witness, decide_icc
import wricc.oracle as oracle
from wricc.oracle import (
    AT_LEAST,
    EXACT_FINITE_UNDER_GENS,
    class_lower_bound,
    enumerate_class,
)

from conftest import load_instance, word_ball


class TestFiniteClasses:
    def test_z2_wr_s3_class_sizes_divide_order(self, z2_wr_s3):
        G = z2_wr_s3
        for g in G.elements():
            rep = enumerate_class(G, g, radius=50, max_size=100)
            assert rep.status == EXACT_FINITE_UNDER_GENS
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
            assert rep.status == EXACT_FINITE_UNDER_GENS
            assert rep.elements == (G.identity(),)


class TestInfiniteClasses:
    def test_lamplighter_lamp_class_grows(self, lamplighter):
        G = lamplighter
        g = WreathElement(G.zeta(1, 0), 0)
        rep = enumerate_class(G, g, radius=6, max_size=1000)
        assert rep.status == AT_LEAST
        assert rep.count >= 7  # at least the window translates show up
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
        """The round budgets class_lower_bound runs the oracle with."""
        seen = []

        def spy(G, g, radius, max_size):
            seen.append(radius)
            return enumerate_class(G, g, radius, max_size)

        monkeypatch.setattr(oracle, "enumerate_class", spy)
        return seen

    @pytest.mark.parametrize(
        "literal, expected, count",
        [("{}@1", [8, 32], 10000), ("{-12:1, 16:1}@-3", [8], 490)],
    )
    def test_returns_at_first_budget_reaching_target(
        self, lamplighter, radii, literal, expected, count
    ):
        G = lamplighter
        rep, radius = class_lower_bound(G, G.parse_element(literal), 200)
        assert radii == expected and radius == expected[-1]
        assert rep.status == AT_LEAST and rep.count == count

    def test_stops_on_exact_finite_class(self, z2_wr_s3, radii):
        G = z2_wr_s3
        g = G.random_nontrivial_element(random.Random(3))
        rep, radius = class_lower_bound(G, g, 200)
        assert radii == [8] and radius == 8
        assert rep.status == EXACT_FINITE_UNDER_GENS and rep.count < 200
        assert rep.stopped_by == "closed"

    @pytest.mark.parametrize(
        "start, expected", [(8, [8, 32, 128, 512]), (10, [10, 40, 160, 512])]
    )
    def test_never_past_512_rounds(self, lamplighter, radii, start, expected):
        # max_size below the target: the class can never reach it
        G = lamplighter
        rep, radius = class_lower_bound(
            G, G.parse_element("{}@1"), 100, radius=start, max_size=50
        )
        assert radii == expected and radius == 512
        assert rep.status == AT_LEAST and rep.count == 50

    def test_start_beyond_cap_rejected(self, lamplighter):
        with pytest.raises(PreconditionError):
            class_lower_bound(lamplighter, lamplighter.identity(), 200, radius=600)


class TestCrossChecks:
    @pytest.mark.parametrize("name", ["trivial-omega", "mixed-union", "s3-wr-s3"])
    def test_finite_certificates_absorb_oracle_classes(self, name):
        # every class met inside a finite certificate must stay inside it
        G = load_instance(name).group
        v = decide_icc(G)
        cert = witness(G, v)
        for g in sorted(cert.elements, key=G.sort_key)[:5]:
            rep = enumerate_class(G, g, radius=30, max_size=len(cert.elements) + 1)
            assert rep.status == EXACT_FINITE_UNDER_GENS
            assert set(rep.elements) <= cert.elements

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


def test_deterministic(lamplighter):
    G = lamplighter
    g = WreathElement(G.zeta(1, 0), 1)
    a = enumerate_class(G, g, radius=5, max_size=400)
    b = enumerate_class(G, g, radius=5, max_size=400)
    assert a == b
