import math
import time

import pytest

from wricc.decision import decide_icc, decide_icc_free
from wricc.errors import EmptyOmega, NotFreeAction, TrivialD, UnsupportedQKind
from wricc.groups import CyclicGroup, FreeGroup, IntegersGroup
from wricc.instances import parse_group, parse_instance
from wricc.qsets import RegularQSet, TrivialQSet
from wricc.tri import Tri, tri_and, tri_not, tri_of, tri_or
from wricc.wreath import WreathProduct

from conftest import CORPUS, EXTRA, FREE_CARRIERS, OpaqueQSet, load_instance

Z = IntegersGroup()


class TestKleene:
    def test_not(self):
        assert tri_not(Tri.YES) is Tri.NO
        assert tri_not(Tri.NO) is Tri.YES
        assert tri_not(Tri.UNKNOWN) is Tri.UNKNOWN

    def test_and(self):
        assert tri_and(Tri.YES, Tri.YES) is Tri.YES
        assert tri_and(Tri.NO, Tri.UNKNOWN) is Tri.NO
        assert tri_and(Tri.YES, Tri.UNKNOWN) is Tri.UNKNOWN

    def test_or(self):
        assert tri_or(Tri.NO, Tri.NO) is Tri.NO
        assert tri_or(Tri.YES, Tri.UNKNOWN) is Tri.YES
        assert tri_or(Tri.NO, Tri.UNKNOWN) is Tri.UNKNOWN

    def test_of(self):
        assert tri_of(True) is Tri.YES
        assert tri_of(False) is Tri.NO
        assert tri_of(None) is Tri.UNKNOWN


@pytest.mark.parametrize(
    "name,answer,ci,cii,ciii", CORPUS + EXTRA, ids=[c[0] for c in CORPUS + EXTRA]
)
def test_corpus_verdicts(name, answer, ci, cii, ciii):
    G = load_instance(name).group
    v = decide_icc(G)
    assert str(v.answer) == answer
    assert str(v.cond_i) == ci
    assert str(v.cond_ii) == cii
    assert str(v.cond_iii) == ciii
    assert not v.corollary_used
    assert v.reason


def test_formula_matches_components():
    for name, *_ in CORPUS + EXTRA:
        v = decide_icc(load_instance(name).group)
        assert v.answer is tri_and(v.cond_i, tri_or(v.cond_ii, v.cond_iii))


class TestHypotheses:
    """Every G is built by `WreathProduct`, which refuses it when the
    criterion's hypotheses fail, with the messages the CLI prints."""

    def test_trivial_base_rejected(self):
        with pytest.raises(TrivialD, match="^D must be nontrivial$"):
            WreathProduct(CyclicGroup(1), Z, RegularQSet(Z))

    def test_empty_carrier_rejected(self):
        class Empty(OpaqueQSet):
            def points_stream(self):
                return iter(())

        with pytest.raises(EmptyOmega, match="^the carrier must be nonempty$"):
            WreathProduct(CyclicGroup(2), Z, Empty(Z))

    def test_faulty_points_stream_propagates(self):
        # a fault in the carrier's stream is not an empty carrier
        class Faulty(OpaqueQSet):
            def points_stream(self):
                raise RuntimeError("broken stream")

        with pytest.raises(RuntimeError, match="broken stream"):
            WreathProduct(CyclicGroup(2), Z, Faulty(Z))

    @pytest.mark.parametrize(
        "q",
        [
            "wreath(cyclic 2; integers; regular)",
            "product(cyclic 2, wreath(cyclic 2; integers; regular))",
        ],
    )
    def test_wreath_in_q_rejected(self, q):
        Q = parse_group(q)
        with pytest.raises(UnsupportedQKind, match="^wreath products cannot act, even as factors"):
            WreathProduct(CyclicGroup(2), Q, TrivialQSet(Q, 1))


def check_free_corollary(G, name):
    free, direct = decide_icc_free(G), decide_icc(G)
    fields = ("answer", "cond_i", "cond_ii", "cond_iii")
    assert [getattr(free, f) for f in fields] == [getattr(direct, f) for f in fields], name
    assert free.corollary_used


class TestFreeCorollary:
    def test_agrees_on_free_instances(self):
        # (i) and (iii) come from freeness, not from the carrier's oracles
        # that decide_icc reads, so every field is a cross-check
        for name in ("lamplighter", "f2-wr-z2"):
            check_free_corollary(load_instance(name).group, name)
        for text in FREE_CARRIERS:
            check_free_corollary(parse_instance(text).group, text)

    def test_rejects_non_free(self):
        for name in ("trivial-omega", "s3-wr-s3", "mixed-union"):
            with pytest.raises(NotFreeAction):
                decide_icc_free(load_instance(name).group)

    def test_finite_q_free_action_not_icc(self):
        Q = CyclicGroup(4)
        G = WreathProduct(FreeGroup(2), Q, RegularQSet(Q))
        free = decide_icc_free(G)
        assert free.answer is Tri.YES  # base icc rescues finite Q
        G2 = WreathProduct(CyclicGroup(2), Q, RegularQSet(Q))
        assert decide_icc_free(G2).answer is Tri.NO
        assert decide_icc(G2).answer is Tri.NO


class TestUnknownPropagation:
    def test_all_unknown(self):
        G = WreathProduct(CyclicGroup(2), Z, OpaqueQSet(Z))
        v = decide_icc(G)
        assert v.answer is Tri.UNKNOWN
        assert "unknown" in v.reason

    def test_kernel_hit_forces_no(self):
        G = WreathProduct(FreeGroup(2), Z, OpaqueQSet(Z, kernel_ans=Tri.YES))
        v = decide_icc(G)
        assert v.answer is Tri.NO
        assert v.cond_i is Tri.NO

    def test_icc_base_not_enough_without_cond_i(self):
        G = WreathProduct(FreeGroup(2), Z, OpaqueQSet(Z, orbits_ans=Tri.YES))
        v = decide_icc(G)
        assert v.cond_ii is Tri.YES and v.cond_iii is Tri.YES
        assert v.answer is Tri.UNKNOWN

    def test_unknown_orbits_with_kernel_clear(self):
        G = WreathProduct(CyclicGroup(2), Z, OpaqueQSet(Z, kernel_ans=Tri.NO))
        v = decide_icc(G)
        assert v.cond_i is Tri.YES
        assert v.answer is Tri.UNKNOWN

    def test_free_corollary_requires_known_freeness(self):
        G = WreathProduct(CyclicGroup(2), Z, OpaqueQSet(Z))
        with pytest.raises(NotFreeAction):
            decide_icc_free(G)


def test_union_asks_its_parts_for_orbit_infinitude(monkeypatch):
    # a finite part answers "not every orbit is infinite" without listing
    # its million orbit representatives
    text = "{D: cyclic 2; Q: integers; omega: union(regular, trivial %d)}"
    G = parse_instance(text % 1000000).group
    expected = decide_icc(parse_instance(text % 3).group)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        v = decide_icc(G)
        best = min(best, time.perf_counter() - t0)
    assert v == expected and v.answer is Tri.NO and v.cond_iii is Tri.NO
    assert best < 0.010
    part = G.omega.parts[1]
    monkeypatch.setattr(part, "orbit_representatives", lambda: pytest.fail("listed"))
    assert G.omega.all_orbits_infinite() is Tri.NO
