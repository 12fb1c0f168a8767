import copy
import itertools
import math
import random

import pytest

from wricc import groups
from wricc.errors import CertificateBudget, KindMismatch, ParseError, PreconditionError, Unsupported
from wricc.groups import (
    AT_LEAST,
    EXACT_FINITE,
    Closure,
    CyclicGroup,
    DirectProductGroup,
    FreeGroup,
    IntegersGroup,
    SymmetricGroup,
    _reduce_concat,
    class_closure,
)
from wricc.instances import parse_group
from wricc.qsets import RegularQSet
from wricc.tri import Tri
from wricc.wreath import WreathElement, WreathProduct

from conftest import OpaqueQSet, load_instance

Z = IntegersGroup()
Z2 = CyclicGroup(2)
Z3 = CyclicGroup(3)
S3 = SymmetricGroup(3)
F2 = FreeGroup(2)

# 0-based image arrays for the transpositions and 3-cycles of S3
P12 = (1, 0, 2)
P13 = (2, 1, 0)
P23 = (0, 2, 1)
P123 = (1, 2, 0)
P132 = (2, 0, 1)

A = (1,)
B = (2,)


class TestMultiply:
    def test_integers(self):
        assert Z.multiply(2, 3) == 5

    def test_free_cancellation(self):
        ab = F2.multiply(A, B)
        assert F2.multiply(ab, F2.inverse(B)) == A

    def test_s3(self):
        # composed by hand: (12)(13) = (132)
        assert S3.multiply(P12, P13) == P132

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            Z.multiply(2, "x")
        with pytest.raises(KindMismatch):
            Z3.validate(3)
        with pytest.raises(KindMismatch):
            S3.validate((0, 0, 1))
        with pytest.raises(KindMismatch):
            F2.validate((1, -1))


class TestInverse:
    def test_integers(self):
        assert Z.inverse(5) == -5

    def test_free(self):
        assert F2.inverse(F2.multiply(A, B)) == (-2, -1)

    def test_cyclic(self):
        assert Z3.inverse(2) == 1


class TestConjugate:
    def test_abelian(self):
        assert Z.conjugate(4, 7) == 4

    def test_s3(self):
        # (13)(12)(13) = (23), evaluated by hand
        assert S3.conjugate(P12, P13) == P23

    def test_free_reduced(self):
        w = F2.conjugate(A, B)
        assert w == (-2, 1, 2)
        assert len(w) == 3


class TestClassEnum:
    def test_integers_singleton(self):
        rep = class_closure(Z, 3, 5, 100).report()
        assert rep.status == EXACT_FINITE
        assert rep.elements == (3,)
        # one round that added nothing closes the class
        assert rep.stopped_by == "closed" and rep.rounds_used == 1

    def test_s3_transpositions(self):
        rep = class_closure(S3, P12, 3, 100).report()
        assert rep.status == EXACT_FINITE
        assert set(rep.elements) == {P12, P13, P23}
        assert rep.stopped_by == "closed" and rep.count == 3

    def test_free_at_least(self):
        rep = class_closure(F2, A, 6, 50).report()
        assert rep.status == AT_LEAST
        assert rep.count >= 50

    def test_free_radius_exhausted(self):
        rep = class_closure(F2, A, 1, 1000).report()
        assert rep.status == AT_LEAST and rep.elements is None
        assert rep.stopped_by == "radius" and rep.rounds_used == 1
        assert rep.count > 1

    def test_exact_closure_is_closed(self):
        rep = class_closure(S3, P123, 10, 100).report()
        assert rep.status == EXACT_FINITE
        S = set(rep.elements)
        for s in S:
            for g in S3.generators:
                assert S3.conjugate(s, g) in S

    def test_class_size_divides_order(self):
        for G in (S3, Z3, SymmetricGroup(4)):
            for x in G.elements():
                rep = class_closure(G, x, G.order() + 1, G.order() + 1).report()
                assert rep.status == EXACT_FINITE
                assert G.order() % rep.count == 0

    def test_zero_budget(self):
        with pytest.raises(PreconditionError):
            class_closure(Z, 1, 0, 10)

    @pytest.mark.parametrize(
        "x, radius, max_size, stop",
        [(A, 3, 10**6, "radius"), (A, 5, 200, "max_size"), (P123, 8, 100, "closed")],
    )
    def test_resumed_closure_equals_one_run(self, x, radius, max_size, stop):
        # a closure stopped by its round budget carries on from its frontier
        G = S3 if x == P123 else F2
        bfs = class_closure(G, x, 1, max_size)
        first = bfs.report()
        assert first.stopped_by == "radius" and bfs.report() == first
        bfs.radius = radius
        fresh = class_closure(G, x, radius, max_size)
        assert bfs.report() == fresh.report() and fresh.stopped_by == stop
        assert list(bfs.reached.items()) == list(fresh.reached.items())
        if stop != "radius":
            # a closed or filled closure stays as it stopped
            for stopped in (bfs, fresh):
                stopped.radius = radius + 10
                assert list(stopped) == [] and stopped.report() == fresh.report()


def _listed_moves(gens, inverse):
    """The moves as a list scan builds them: gens, then each inverse not
    already listed, in order."""
    moves = list(gens)
    for s in gens:
        if inverse(s) not in moves:
            moves.append(inverse(s))
    return moves


@pytest.mark.parametrize("name", ["lamplighter", "s3-wr-s3", "self-inverse"])
def test_closure_moves_keep_the_listed_order(name):
    if name == "self-inverse":
        # the transpositions of S3 are their own inverses: no move is added
        G, gens = S3, (P12, P13, P23)
        assert [G._inverse(s) for s in gens] == list(gens)
    else:
        G = load_instance(name).group
        gens = G.generators
        pairs = [(s, G._inverse(s)) for s in gens]
        inverse_pair = lambda m: (m[1], m[0])
        assert class_closure(G, G.identity()).moves == _listed_moves(pairs, inverse_pair)
    moves = Closure(G.identity(), gens, G._inverse, G._multiply, G.sort_key).moves
    assert moves == _listed_moves(gens, G._inverse)
    assert len(set(moves)) == len(moves) >= len(gens)
    assert (len(moves) == len(gens)) == (name == "self-inverse")


def _bfs_taking_every_move(start, moves, step, key, radius, max_size):
    """`reached`, the rounds run and the stop of a BFS that applies every
    move to every element: rounds of new elements, each sorted by `key`,
    or expanded in the order reached for a key of None, stopped as
    `Closure` documents."""
    reached, frontier = {start: None}, [start]
    if max_size <= 1:
        return reached, 0, "max_size"
    for rounds in range(1, radius + 1):
        fresh = []
        for x in frontier:
            for s in moves:
                y = step(x, s)
                if y not in reached:
                    reached[y] = (x, s)
                    fresh.append(y)
                    if len(reached) >= max_size:
                        return reached, rounds, "max_size"
        if not fresh:
            return reached, rounds, "closed"
        frontier = fresh if key is None else sorted(fresh, key=key)
    return reached, radius, "radius"


@pytest.mark.parametrize("resume", [False, True])
@pytest.mark.parametrize("run", ["report", "iterate"])
@pytest.mark.parametrize("kind", ["class", "ball"])
@pytest.mark.parametrize(
    "name, literal, max_size",
    [
        ("lamplighter", "{0:1}@1", math.inf),
        ("f2-wr-z2", "{0:a}@1", math.inf),
        # every move of z2-wr-s3 but one 3-cycle is its own inverse, and
        # the class closes
        ("z2-wr-s3", "{0:1}@[1,0,2]", math.inf),
        # conjugation by each zeta at (0; 0) fixes the element, as the
        # oracle's growth check meets it, with its budget of 201
        ("mixed-union-icc-base", "{(1; 0):a^-2*b^-1*a*b^-1}@0", 201),
    ],
)
def test_closure_never_steps_back_along_the_arriving_move(
    name, literal, max_size, kind, run, resume
):
    # a spy on the step sees no move applied to x that inverts the move
    # that reached x, nor one that inverts a move that fixed x, and the
    # closure still reaches what a BFS taking every move reaches, in the
    # same order and from the same parents, in as many rounds and with
    # the same stop: the order reached when it is only reported, sorted
    # rounds when it is iterated; resumed after a "radius" stop in the
    # same mode, it runs as one longer run
    G = load_instance(name).group
    radius = 4
    first = 2 if resume else radius
    if kind == "class":
        bfs = class_closure(G, G.parse_element(literal), first, max_size)
        inverse = lambda m: (m[1], m[0])
    else:
        bfs = Closure(
            G.identity(), G.generators, G._inverse, G._multiply, G.sort_key, first, max_size
        )
        inverse = G._inverse
    step, steps = bfs._step, []

    def spy(x, s):
        steps.append((x, s))
        return step(x, s)

    bfs._step = spy
    for _ in range(2 if resume else 1):
        if run == "report":
            bfs.report()
        else:
            list(bfs)
        bfs.radius = radius
    fixing = {}
    for x, s in steps:
        arrival = bfs.reached[x]
        assert arrival is None or s != inverse(arrival[1])
        assert all(s != inverse(m) for m in fixing.get(x, ()))
        if step(x, s) == x:
            fixing.setdefault(x, []).append(s)
    # a product by a generator fixes nothing; of the classes, those of
    # z2-wr-s3 and mixed-union-icc-base meet moves that fix a member
    assert bool(fixing) == (kind == "class" and name in ("z2-wr-s3", "mixed-union-icc-base"))
    start = next(iter(bfs.reached))
    key = G.sort_key if run == "iterate" else None
    everything, rounds, stopped_by = _bfs_taking_every_move(
        start, bfs.moves, step, key, radius, max_size
    )
    assert list(bfs.reached.items()) == list(everything.items())
    assert (bfs.rounds, bfs.stopped_by) == (rounds, stopped_by)


class TestFcContains:
    def test_integers(self):
        assert Z.fc_contains(17)

    def test_free_nonidentity(self):
        assert not F2.fc_contains(A)
        assert F2.fc_contains(())
        # cross-check: the class blows past any budget
        rep = class_closure(F2, A, 4, 30).report()
        assert rep.status != EXACT_FINITE

    def test_finite(self):
        assert S3.fc_contains(P123)

    def test_free_rank1_like_integers(self):
        F1 = FreeGroup(1)
        assert F1.fc_contains((1, 1))
        assert F1.icc_status().answer is Tri.NO


class TestFiniteInvariantSet:
    def test_z2(self):
        assert Z2.finite_invariant_set_example() == frozenset({1})

    def test_s3_transposition_class(self):
        assert S3.finite_invariant_set_example() == frozenset({P12, P13, P23})

    def test_integers(self):
        assert Z.finite_invariant_set_example() == frozenset({1})

    def test_free_icc_error(self):
        with pytest.raises(PreconditionError):
            F2.finite_invariant_set_example()

    def test_product_embeds_factor_witness(self):
        P = DirectProductGroup((Z2, F2))
        xi = P.finite_invariant_set_example()
        assert xi == frozenset({(1, ())})

    def test_free_rank_one(self):
        assert FreeGroup(1).finite_invariant_set_example() == frozenset({(1,)})

    @pytest.mark.parametrize("first", [CyclicGroup(1), F2], ids=["trivial", "icc"])
    def test_product_skips_a_first_factor_with_trivial_fc(self, first):
        # xi comes from the first factor whose FC is nontrivial: S3's
        # transpositions, embedded
        xi = DirectProductGroup((first, S3)).finite_invariant_set_example()
        e = first.identity()
        assert xi == frozenset({(e, P12), (e, P13), (e, P23)})

    def test_product_all_factors_icc_or_trivial(self):
        with pytest.raises(PreconditionError):
            DirectProductGroup((CyclicGroup(1), F2)).finite_invariant_set_example()

    def test_product_with_a_wreath_factor(self, z2_wr_s3):
        # the class of z2-wr-s3's certificate base, one lamp on at the last
        # of the 3 points, embedded: not the whole 7-member certificate
        xi = DirectProductGroup((F2, z2_wr_s3)).finite_invariant_set_example()
        one = S3.identity()
        assert xi == frozenset({((), WreathElement(((y, 1),), one)) for y in range(3)})

    def test_class_refused_past_the_listing_cap(self, monkeypatch):
        # the one cap setting in `groups` bounds the derived class too
        monkeypatch.setattr(groups, "_FINITE_SET_CAP", 2)
        with pytest.raises(
            CertificateBudget, match="^the class of the FC element has more than 2 elements$"
        ):
            S3.finite_invariant_set_example()


class TestWreathFcElement:
    def test_no_verdict_gives_the_certificate_base(self, z2_wr_s3):
        assert z2_wr_s3.fc_nontrivial_element() == WreathElement(((2, 1),), S3.identity())

    def test_yes_verdict_has_trivial_fc(self, lamplighter):
        assert lamplighter.fc_nontrivial_element() is None
        with pytest.raises(PreconditionError):
            lamplighter.finite_invariant_set_example()

    def test_unknown_verdict_is_unsupported(self):
        G = WreathProduct(Z2, Z, OpaqueQSet(Z))
        with pytest.raises(Unsupported):
            G.fc_nontrivial_element()

    def test_fc_membership_stays_unsupported(self, z2_wr_s3):
        with pytest.raises(Unsupported):
            z2_wr_s3.fc_contains(z2_wr_s3.identity())


class TestIccStatus:
    def test_declared_facts(self):
        assert Z.icc_status().answer is Tri.NO
        assert Z2.icc_status().answer is Tri.NO
        assert S3.icc_status().answer is Tri.NO
        assert F2.icc_status().answer is Tri.YES

    def test_product(self):
        assert DirectProductGroup((F2, FreeGroup(3))).icc_status().answer is Tri.YES
        assert DirectProductGroup((F2, Z2)).icc_status().answer is Tri.NO
        assert DirectProductGroup((CyclicGroup(1), F2)).icc_status().answer is Tri.YES
        assert DirectProductGroup((CyclicGroup(1),)).icc_status().answer is Tri.NO

    def test_icc_implies_infinite_nontrivial(self):
        for G in (Z, Z2, S3, F2, DirectProductGroup((F2, Z2))):
            st = G.icc_status()
            if st.answer is Tri.YES:
                assert not G.is_finite and not G.is_trivial
            if G.is_trivial or G.is_finite:
                assert st.answer is Tri.NO


GROUPS = [Z, Z2, Z3, S3, SymmetricGroup(4), F2, FreeGroup(1), DirectProductGroup((Z3, S3))]


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.kind)
def test_group_axioms_random(G):
    rng = random.Random(12345)
    e = G.identity()
    for _ in range(300):
        a, b, c = (G.random_element(rng) for _ in range(3))
        assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))
        assert G.multiply(a, e) == a
        assert G.multiply(e, a) == a
        assert G.multiply(a, G.inverse(a)) == e
        assert G.conjugate(a, b) == G.multiply(G.multiply(G.inverse(b), a), b)


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.kind)
def test_ball_stream_deterministic_and_fresh(G):
    first = list(x for x, _ in zip(G.ball_stream(), range(30)))
    second = list(x for x, _ in zip(G.ball_stream(), range(30)))
    assert first == second
    assert len(set(first)) == len(first)
    assert first[0] == G.identity()


# the groups whose balls are streamed, and two wreath products: an
# infinite one and a finite one
BALL_GROUPS = GROUPS + [load_instance("lamplighter").group, load_instance("z2-wr-s3").group]


def unstreamed(G):
    """A copy of the handle G that keeps no streamed ball."""
    H = copy.copy(G)
    vars(H).pop("_ball", None)
    vars(H).pop("_ball_closed", None)
    return H


def bfs_prefix(G, n):
    """The first n elements of a fresh Closure BFS from the identity."""
    e = G.identity()
    out = [e]
    for fresh in Closure(e, G.generators, G._inverse, G._multiply, G.sort_key):
        out += fresh
        if len(out) >= n:
            break
    return out[:n]


@pytest.mark.parametrize("G", BALL_GROUPS, ids=lambda g: g.kind)
def test_interleaved_and_restarted_streams_follow_one_bfs(G):
    H = unstreamed(G)
    expect = bfs_prefix(G, 400)
    # a closed stream leaves a prefix of 7; a keeps that prefix while b
    # pulls past it, then a pulls past it with its own closure
    assert list(itertools.islice(H.ball_stream(), 7)) == expect[:7]
    a = H.ball_stream()
    head = list(itertools.islice(a, 3))
    b = H.ball_stream()
    assert list(itertools.islice(b, 300)) == expect[:300]
    b.close()
    assert head + list(itertools.islice(a, 297)) == expect[:300]
    a.close()
    # restarts, within the kept prefix and past it
    assert list(itertools.islice(H.ball_stream(), 7)) == expect[:7]
    assert list(itertools.islice(H.ball_stream(), 400)) == expect


@pytest.mark.parametrize("G", [G for G in BALL_GROUPS if G.is_finite], ids=lambda g: g.kind)
def test_finite_stream_ends_at_the_order_twice(G):
    H = unstreamed(G)
    whole = list(H.ball_stream())
    assert len(whole) == len(set(whole)) == H.order()
    assert list(H.ball_stream()) == whole


@pytest.mark.parametrize("G", BALL_GROUPS, ids=lambda g: g.kind)
def test_restreamed_prefix_multiplies_nothing(G):
    H = unstreamed(G)
    head = list(itertools.islice(H.ball_stream(), 50))
    calls = []
    multiply = H._multiply

    def counted(a, b):
        calls.append(None)
        return multiply(a, b)

    H._multiply = counted
    assert list(itertools.islice(H.ball_stream(), 50)) == head
    assert calls == []
    if not H.is_finite:
        # pulling past the prefix runs the BFS, through the counted product
        assert list(itertools.islice(H.ball_stream(), 51)) == bfs_prefix(G, 51)
        assert calls


def record_validations(H):
    """Make the handle H list each element it validates; return the list."""
    validated = []
    check = H.validate
    H.validate = lambda x: validated.append(x) or check(x)
    return validated


@pytest.mark.parametrize("G", BALL_GROUPS, ids=lambda g: g.kind)
def test_stream_validates_each_element_once_as_it_is_built(G):
    # the first stream validates each element it builds, once and in
    # stream order; a later stream within the kept prefix validates nothing
    H = unstreamed(G)
    validated = record_validations(H)
    expect = bfs_prefix(G, 200)
    assert list(itertools.islice(H.ball_stream(), 200)) == expect
    assert validated == expect
    validated.clear()
    assert list(itertools.islice(H.ball_stream(), 200)) == expect
    assert validated == []


def test_stream_refuses_an_element_that_fails_validation():
    # a product that leaves a cancelling pair in the word builds an
    # invalid element, which the stream refuses before yielding or keeping
    H = unstreamed(F2)
    H._multiply = lambda u, v: u + (1, -1) + v
    for _ in range(2):
        with pytest.raises(KindMismatch, match="not freely reduced"):
            list(itertools.islice(H.ball_stream(), 5))
        assert H._ball == ((),)


FINITE_GROUPS = [
    CyclicGroup(1),
    Z3,
    S3,
    SymmetricGroup(4),
    DirectProductGroup((Z2, S3)),
    DirectProductGroup((S3, DirectProductGroup((Z3, Z2)))),
    load_instance("z2-wr-s3").group,
    load_instance("s3-wr-s3").group,
]


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=lambda g: g.kind)
def test_elements_in_sort_key_order(G):
    # RegularQSet.finite_orbit_example returns elements() unsorted
    elems = list(G.elements())
    assert elems == sorted(elems, key=G.sort_key)
    assert len(set(elems)) == G.order()
    assert RegularQSet(G).finite_orbit_example() == tuple(elems)


def test_free_literals_roundtrip():
    for text in ["1", "a", "a*b^-1*a", "a^3*b^-2", "b^-1*a*b"]:
        w = F2.parse_element(text)
        assert F2.parse_element(F2.format_element(w)) == w


def test_product_literals_roundtrip():
    P = DirectProductGroup((Z, S3))
    x = (4, P13)
    assert P.parse_element(P.format_element(x)) == x
    assert P.format_element(x) == "(4; [2,1,0])"


@pytest.mark.parametrize("bad", [(0.0, 1.0, 2.0), (True, 0, 2), (0, 1, 2.0), (1, 0, False)])
def test_symmetric_rejects_entries_that_only_compare_equal(bad):
    # 0.0 and True compare equal to 0 and 1, but are no literal's points
    with pytest.raises(KindMismatch):
        S3.validate(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_literals_round_trip(n):
    S = SymmetricGroup(n)
    for x in S.elements():
        S.validate(x)
        assert S.parse_element(S.format_element(x)) == x


def _naive_reduce(word):
    """Free reduction of any word with a stack, letter by letter."""
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_reduce_concat_matches_naive_reduction(rank):
    rng = random.Random(rank)
    F = FreeGroup(rank)
    words = [F.random_element(rng) for _ in range(60)]
    for u in words:
        u_inv = F._inverse(u)
        assert _reduce_concat(u, ()) == _reduce_concat((), u) == u
        assert _reduce_concat(u, u_inv) == _reduce_concat(u_inv, u) == ()
        # every length of partial cancellation, past the shorter operand too
        for k in range(len(u) + 1):
            for tail in words[:10]:
                v = _naive_reduce(F._inverse(u[len(u) - k:]) + tail)
                assert _reduce_concat(u, v) == _naive_reduce(u + v)
        for v in words:
            assert _reduce_concat(u, v) == _naive_reduce(u + v)
    if rank >= 2:
        # the whole shorter operand cancels, on either side
        assert _reduce_concat((1, 2), (-2, -1, 2)) == (2,)
        assert _reduce_concat((2, 1, 2), (-2, -1)) == (2,)


def test_free_literal_cancels_while_parsing():
    assert F2.parse_element("a*a^-1*b") == B
    assert F2.parse_element("a*b*b^-1*a^-1") == ()


def test_free_literal_refused_past_the_listing_cap(monkeypatch):
    # the letters written are counted, before any is built or cancelled
    monkeypatch.setattr(groups, "_FINITE_SET_CAP", 5)
    assert F2.parse_element("a^3*b^-2") == (1, 1, 1, -2, -2)
    for text in ("a^3*b^-3", "a^3*a^-3", "a^6", "a^1000000000000"):
        with pytest.raises(ParseError, match=r"^free\(2\): word literal of more than 5 letters$"):
            F2.parse_element(text)
    # more digits than Python converts to an int
    with pytest.raises(ParseError, match=r"^free\(2\): exponent of 5000 digits$"):
        F2.parse_element("a^" + "9" * 5000)


def test_symmetric_degree_refused_past_the_listing_cap(monkeypatch):
    # refused before the degree's lists are built
    monkeypatch.setattr(groups, "_FINITE_SET_CAP", 5)
    assert SymmetricGroup(5).order() == 120
    for n in (0, 6, 10**12):
        with pytest.raises(PreconditionError, match=r"^symmetric: degree must be in 1\.\.5$"):
            SymmetricGroup(n)


@pytest.mark.parametrize(
    "text, order",
    [
        ("cyclic 7", 7),
        ("symmetric 4", 24),
        ("symmetric 5", 120),
        ("product(symmetric 3, cyclic 4)", 24),
        ("product(cyclic 5, symmetric 3, cyclic 2)", 60),
    ],
)
def test_capped_order_is_the_order_up_to_the_cap(monkeypatch, text, order):
    # at the cap of 100 the order stands, one past it stands for more
    monkeypatch.setattr(groups, "_FINITE_SET_CAP", 100)
    G = parse_group(text)
    assert G.order() == order
    assert G._capped_order() == min(order, 101)


def test_capped_order_builds_no_huge_factorial(monkeypatch):
    # 900000! would take seconds to build; the capped order stops at 10!
    monkeypatch.setattr(groups.math, "factorial", None)
    for text in ("symmetric 900000", "product(cyclic 2, symmetric 900000)"):
        assert parse_group(text)._capped_order() == groups._FINITE_SET_CAP + 1
    assert parse_group("symmetric 9")._capped_order() == 362880


# (descriptor, class): two groups are equal exactly when their classes
# match, whichever way the descriptor was spelled or nested
IDENTITY_CLASSES = [
    ("integers", "Z"),
    ("cyclic 1", "C1"),
    ("cyclic 2", "C2"),
    ("cyclic(2)", "C2"),
    ("Cyclic 2", "C2"),
    ("cyclic 3", "C3"),
    ("symmetric 2", "S2"),
    ("symmetric 3", "S3"),
    ("symmetric(3)", "S3"),
    ("free 1", "F1"),
    ("free 2", "F2"),
    ("free(2)", "F2"),
    ("product(integers)", "P(Z)"),
    ("product(cyclic 2)", "P(C2)"),
    ("product(cyclic(2))", "P(C2)"),
    ("product(product(cyclic 2))", "P(P(C2))"),
    ("product(cyclic 2, cyclic 3)", "P(C2,C3)"),
    ("product(cyclic(2),cyclic(3))", "P(C2,C3)"),
    ("product(cyclic 3, cyclic 2)", "P(C3,C2)"),
    ("product(product(cyclic 2), cyclic 3)", "P(P(C2),C3)"),
    ("product(cyclic 2, product(cyclic 3))", "P(C2,P(C3))"),
    ("product(cyclic 2, cyclic 3, integers)", "P(C2,C3,Z)"),
    ("product(product(cyclic 2, cyclic 3), integers)", "P(P(C2,C3),Z)"),
    ("product(cyclic 2, product(cyclic 3, integers))", "P(C2,P(C3,Z))"),
    ("wreath(cyclic 2; integers; regular)", "W(C2;Z;reg)"),
    ("wreath(cyclic(2); integers; regular)", "W(C2;Z;reg)"),
    ("wreath(cyclic 3; integers; regular)", "W(C3;Z;reg)"),
    ("wreath(cyclic 2; product(integers); regular)", "W(C2;P(Z);reg)"),
    ("wreath(cyclic 2; cyclic 3; regular)", "W(C2;C3;reg)"),
    ("wreath(cyclic 2; cyclic 3; trivial 1)", "W(C2;C3;T1)"),
    ("wreath(cyclic 2; integers; trivial 1)", "W(C2;Z;T1)"),
    ("wreath(cyclic 2; cyclic 3; trivial 2)", "W(C2;C3;T2)"),
    ("wreath(cyclic 2; cyclic 1; trivial 1)", "W(C2;C1;T1)"),
    ("wreath(cyclic 2; cyclic 1; regular)", "W(C2;C1;reg)"),
    ("wreath(cyclic 2; integers; int-mod 3)", "W(C2;Z;M3)"),
    ("wreath(cyclic 2; integers; intmod 3)", "W(C2;Z;M3)"),
    ("wreath(cyclic 2; integers; mod(3))", "W(C2;Z;M3)"),
    ("wreath(cyclic 2; integers; int-mod 4)", "W(C2;Z;M4)"),
    ("wreath(cyclic 2; symmetric 3; natural)", "W(C2;S3;nat)"),
    ("wreath(cyclic 2; symmetric 4; natural)", "W(C2;S4;nat)"),
    ("wreath(cyclic 2; integers; union(regular))", "W(C2;Z;U(reg))"),
    ("wreath(cyclic 2; integers; union(regular, int-mod 3))", "W(C2;Z;U(reg,M3))"),
    ("wreath(cyclic 2; integers; union(int-mod 3, regular))", "W(C2;Z;U(M3,reg))"),
    ("wreath(cyclic 2; integers; union(union(regular), int-mod 3))", "W(C2;Z;U(U(reg),M3))"),
    ("wreath(cyclic 2; symmetric 3; union(natural, trivial 1))", "W(C2;S3;U(nat,T1))"),
    ("wreath(cyclic 2; symmetric 3; union(trivial 1, natural))", "W(C2;S3;U(T1,nat))"),
    ("wreath(free 2; integers; regular)", "W(F2;Z;reg)"),
    ("wreath(wreath(cyclic 2; integers; regular); integers; regular)", "W(W(C2;Z;reg);Z;reg)"),
    ("wreath(wreath(cyclic(2); integers; regular); integers; regular)", "W(W(C2;Z;reg);Z;reg)"),
    ("wreath(wreath(cyclic 2; cyclic 3; regular); integers; regular)", "W(W(C2;C3;reg);Z;reg)"),
    ("wreath(product(wreath(cyclic 2; integers; regular)); integers; regular)", "W(P(W);Z;reg)"),
    ("product(wreath(cyclic 2; integers; regular), cyclic 2)", "P(W(C2;Z;reg),C2)"),
]


def test_group_identity_is_the_kind():
    parsed = [(parse_group(text), cls) for text, cls in IDENTITY_CLASSES]
    for G, a in parsed:
        assert G != G.kind  # a group never equals its kind string
        for H, b in parsed:
            assert (G == H) is (a == b), (G.kind, H.kind)
            if a == b:
                assert hash(G) == hash(H)


@pytest.mark.parametrize(
    "G",
    [F2, SymmetricGroup(5), load_instance("lamplighter").group, load_instance("z2-wr-s3").group],
    ids=lambda g: g.kind,
)
def test_ball_memo_keeps_at_most_the_cap(G, monkeypatch):
    # with a cap of 50, symmetric 5 (120 elements) is streamed past it and
    # z2-wr-s3 (48) closes within it
    monkeypatch.setattr(groups, "_BALL_MEMO_CAP", 50)
    H = unstreamed(G)
    expect = bfs_prefix(G, 130)
    a = H.ball_stream()
    head = list(itertools.islice(a, 20))
    pulled = 0
    for n in (30, 130, 40, 130):
        assert list(itertools.islice(H.ball_stream(), n)) == expect[:n]
        pulled = max(pulled, n)
        assert len(H._ball) == min(pulled, 50, len(expect))
    # a stream started before the cap filled carries on past it
    assert head + list(itertools.islice(a, 110)) == expect
    assert len(H._ball) == min(50, len(expect))
    if H.is_finite:
        assert list(H.ball_stream()) == expect
        assert H._ball_closed is (H.order() < 50)


@pytest.mark.parametrize(
    "G",
    [F2, SymmetricGroup(5), load_instance("lamplighter").group, load_instance("z2-wr-s3").group],
    ids=lambda g: g.kind,
)
def test_elements_past_the_memo_cap_are_validated_on_every_stream(G, monkeypatch):
    # with a cap of 50 a kept element is validated once; one past the cap
    # is not kept, so every stream that yields it validates it again
    monkeypatch.setattr(groups, "_BALL_MEMO_CAP", 50)
    H = unstreamed(G)
    validated = record_validations(H)
    expect = bfs_prefix(G, 130)
    for built in (expect, expect[50:], expect[50:]):
        assert list(itertools.islice(H.ball_stream(), 130)) == expect
        assert validated == built
        validated.clear()
