import functools
import importlib
import itertools
import math
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from wricc.errors import CertificateBudget, KindMismatch
from wricc.groups import CyclicGroup, FreeGroup, Group, IntegersGroup, SymmetricGroup
from wricc.instances import build_wreath, parse_group, parse_instance
from wricc.qsets import DisjointUnionQSet, IntModQSet, RegularQSet
from wricc.wreath import WreathElement, WreathProduct, support

from conftest import CORPUS, EXTRA, OpaqueQSet, lambda_translate, load_instance, pointwise_mul

Z = IntegersGroup()
Z2 = CyclicGroup(2)

groups_module = importlib.import_module("wricc.groups")

SHIPPED = [name for name, *_ in CORPUS + EXTRA]
# (D, Q, omega) of carriers beyond the shipped instances
BUILT = {
    "z2-wr-free2": ("cyclic 2", "free 2", "regular"),
    "z3-wr-product": ("cyclic 3", "product(integers, cyclic 2)", "regular"),
    "s3-wr-free2-union": ("symmetric 3", "free 2", "union(regular, trivial 2)"),
    "s3-wr-s3-union": ("symmetric 3", "symmetric 3", "union(natural, regular, trivial 2)"),
    "z2-wr-free-product": ("cyclic 2", "product(free 1, cyclic 2)", "regular"),
    "s3-union": ("symmetric 3", "integers", "union(regular, int-mod 3)"),
    "nested-base": ("wreath(cyclic 2; integers; regular)", "integers", "regular"),
    "s3-wr-product-union": ("symmetric 3", "product(integers, cyclic 2)", "union(regular, trivial 2)"),
}


@functools.cache
def _group(name):
    if name in BUILT:
        d, q, omega = BUILT[name]
        return build_wreath(parse_group(d), parse_group(q), omega)
    return load_instance(name).group


@pytest.fixture
def G(lamplighter):
    return lamplighter


class TestZetaAndMaps:
    def test_zeta_singleton(self, G):
        assert G.zeta(1, 0) == ((0, 1),)

    def test_zeta_identity_value(self, G):
        assert G.zeta(0, 5) == ()

    # the lambda-action is the map part of a product by (eps, q)
    def test_lambda_shifts_support(self, G):
        f = G.zeta(1, 0)
        assert lambda_translate(G, 1, f) == ((1, 1),)
        assert lambda_translate(G, 0, f) == f

    def test_lambda_is_action(self, G):
        rng = random.Random(7)
        for _ in range(100):
            f = G.random_element(rng).phi
            q1, q2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
            assert lambda_translate(G, q1 + q2, f) == lambda_translate(
                G, q1, lambda_translate(G, q2, f)
            )

    def test_lambda_validates_the_map(self, G):
        # an invalid value would be moved as it is, and a stored identity
        # would silently vanish
        for f in (((0, 7),), ((0, 0),), ((1, 1), (0, 1))):
            with pytest.raises(KindMismatch):
                G.multiply(WreathElement((), 1), WreathElement(f, 0))
        with pytest.raises(KindMismatch):
            G.multiply(WreathElement((), 1.5), WreathElement(((0, 1),), 0))

    def test_pointwise_mul_cancels(self, G):
        f = pointwise_mul(G, G.zeta(1, 0), G.zeta(1, 0))
        assert f == ()

    def test_map_helpers_are_private(self, G):
        # they trust maps the group built: G.pointwise_mul(((0, 7),), ())
        # returned the invalid map ((0, 7),) while they were public; the
        # map product is now the tests' own (`conftest.pointwise_mul`)
        assert not hasattr(G, "map_value") and hasattr(G, "_map_value")
        assert not hasattr(G, "pointwise_mul") and not hasattr(G, "_pointwise_mul")

    def test_map_value_defaults_to_identity(self, G):
        f = G.zeta(1, 3)
        assert G._map_value(f, 3) == 1
        assert G._map_value(f, 4) == 0


class TestArithmetic:
    def test_lamplighter_square(self, G):
        g = WreathElement(G.zeta(1, 0), 1)
        assert G.multiply(g, g) == WreathElement(((0, 1), (1, 1)), 2)

    def test_identity_neutral(self, G):
        rng = random.Random(11)
        e = G.identity()
        for _ in range(50):
            g = G.random_element(rng)
            assert G.multiply(g, e) == g
            assert G.multiply(e, g) == g

    def test_inverse(self, G):
        g = WreathElement(G.zeta(1, 0), 1)
        assert G.inverse(g) == WreathElement(((-1, 1),), -1)
        assert G.multiply(g, G.inverse(g)) == G.identity()

    def test_inverse_of_pure_q(self, G):
        assert G.inverse(WreathElement((), 4)) == WreathElement((), -4)

    def test_conjugation_law(self, G):
        # h^-1 (eps,q) h with h = (zeta_d^y, 1) lands on the closed form
        # (zeta_{d^-1}^y * zeta_d^{qy}, q)
        g = WreathElement((), 1)
        h = WreathElement(G.zeta(1, 0), 0)
        out = G.conjugate(g, h)
        assert out == WreathElement(pointwise_mul(G, G.zeta(1, 0), G.zeta(1, 1)), 1)

    def test_group_axioms_random(self, f2_wr_z2):
        G = f2_wr_z2
        rng = random.Random(31)
        e = G.identity()
        for _ in range(150):
            a, b, c = (G.random_element(rng) for _ in range(3))
            assert G.multiply(G.multiply(a, b), c) == G.multiply(a, G.multiply(b, c))
            assert G.multiply(a, G.inverse(a)) == e

    def test_semidirect_relation(self, G):
        # q * phi * q^-1 == lambda(q)(phi) inside the group
        rng = random.Random(5)
        for _ in range(50):
            f = G.random_element(rng).phi
            q = rng.randrange(-4, 5)
            lhs = G.multiply(
                G.multiply(WreathElement((), q), WreathElement(f, 0)),
                WreathElement((), -q),
            )
            # the carrier is regular: q.y = y + q
            assert lhs == WreathElement(tuple((y + q, d) for y, d in f), 0)


class TestCanonicalForm:
    def test_identity_values_dropped(self, G):
        with pytest.raises(KindMismatch):
            G.validate(WreathElement(((0, 0),), 0))

    def test_unsorted_rejected(self, G):
        with pytest.raises(KindMismatch):
            G.validate(WreathElement(((1, 1), (0, 1)), 0))

    def test_duplicate_keys_rejected(self, G):
        with pytest.raises(KindMismatch):
            G.validate(WreathElement(((0, 1), (0, 1)), 0))

    def test_support(self, G):
        g = G.multiply(WreathElement(G.zeta(1, 0), 1), WreathElement(G.zeta(1, 1), -1))
        assert support(g.phi) == (0, 2)

    @pytest.mark.parametrize("points", [(), (4,), (-3, 0, 5)])
    def test_support_lists_the_stored_points_in_order(self, G, points):
        phi = G._canon((y, 1) for y in points)
        assert len(phi) == len(points)
        assert support(phi) == points and type(support(phi)) is tuple


class TestFiniteWreath:
    def test_order(self, z2_wr_s3):
        # |Z2 wr S3| over the natural 3-point set = 2^3 * 6
        assert z2_wr_s3.order() == 48
        assert len(list(z2_wr_s3.elements())) == 48

    def test_elements_form_group(self, z2_wr_s3):
        G = z2_wr_s3
        els = set(G.elements())
        rng = random.Random(13)
        sample = rng.sample(sorted(els, key=G.sort_key), 12)
        for a in sample:
            assert G.inverse(a) in els
            for b in sample:
                assert G.multiply(a, b) in els


# carrier kind -> (D, Q, omega, acting element, bad acting element, two
# points in increasing order, bad point, value of D)
BOUNDARY = {
    "regular": ("cyclic 2", "integers", "regular", 1, 1.5, (0, 1), "0", 1),
    "int-mod": ("cyclic 2", "integers", "int-mod 3", 1, "1", (0, 1), 3, 1),
    "trivial": ("cyclic 2", "integers", "trivial 2", 1, True, (0, 1), 2, 1),
    "finite-explicit": ("cyclic 2", "symmetric 3", "natural", (1, 0, 2), (0, 0, 1), (0, 1), 3, 1),
    "union": (
        "cyclic 2", "integers", "union(regular, int-mod 3)", 1, 1.5, ((0, 0), (1, 0)), (2, 0), 1,
    ),
    "wreath-base": (
        "wreath(cyclic 2; integers; regular)", "integers", "regular", 1, 1.5, (0, 1), "0",
        WreathElement(((0, 1),), 0),
    ),
}


def _rejected(call, x) -> bool:
    try:
        call(x)
    except KindMismatch:
        return True
    return False


class TestBoundary:
    """Public arithmetic rejects every operand the group did not build."""

    @pytest.mark.parametrize("kind", list(BOUNDARY))
    def test_public_arithmetic_rejects_bad_operands(self, kind):
        d, q, omega, a, bad_a, (y0, y1), bad_y, v = BOUNDARY[kind]
        G = build_wreath(parse_group(d), parse_group(q), omega)
        good = WreathElement(((y0, v),), a)
        assert G.conjugate(good, G.multiply(good, G.inverse(good))) == good
        bad = {
            "bad q": WreathElement(((y0, v),), bad_a),
            "bad point": WreathElement(((bad_y, v),), a),
            "stored identity value": WreathElement(((y0, G.D.identity()),), a),
            "unsorted phi": WreathElement(((y1, v), (y0, v)), a),
        }
        ops = {
            "multiply(x, g)": lambda x: G.multiply(x, good),
            "multiply(g, x)": lambda x: G.multiply(good, x),
            "inverse(x)": G.inverse,
            "conjugate(x, g)": lambda x: G.conjugate(x, good),
            "conjugate(g, x)": lambda x: G.conjugate(good, x),
        }
        accepted = [
            (what, op) for what, x in bad.items() for op, call in ops.items() if not _rejected(call, x)
        ]
        assert accepted == []
        assert _rejected(lambda q: G.omega.act(q, y0), bad_a)
        assert _rejected(lambda y: G.omega.act(a, y), bad_y)

    def test_nested_bad_value_rejected(self):
        # a value of the base that is itself not canonical
        G = build_wreath(parse_group(BOUNDARY["wreath-base"][0]), Z, "regular")
        good = WreathElement(((0, WreathElement(((0, 1),), 0)),), 1)
        x = WreathElement(((0, WreathElement(((0, 0),), 0)),), 1)
        assert _rejected(lambda x: G.multiply(good, x), x)
        assert _rejected(lambda x: G.conjugate(good, x), x)
        assert _rejected(G.inverse, x)

    def test_only_the_boundary_validates(self, f2_wr_z2, monkeypatch):
        G = f2_wr_z2
        assert G.omega.Q is G.Q
        calls = []
        for label, H in (("D", G.D), ("Q", G.Q)):
            check = H.validate
            monkeypatch.setattr(
                H, "validate", lambda x, label=label, check=check: calls.append((label, x)) or check(x)
            )
        rng = random.Random(3)
        pairs = [(G.random_element(rng), G.random_element(rng)) for _ in range(20)]
        assert any(x.phi and y.phi for x, y in pairs)
        for x, y in pairs:
            G._conjugate(x, y)
            assert calls == []
            G.validate(x)
            G.validate(y)
            expected = calls.copy()
            calls.clear()
            G.conjugate(x, y)
            assert calls == expected and expected
            calls.clear()


class TestTupleElements:
    """Elements are named tuples (phi, q): a bare tuple compares equal to
    one but is still not an element of the group."""

    def test_fields_and_repr(self):
        g = WreathElement(((0, 1),), 2)
        assert WreathElement._fields == ("phi", "q")
        assert (g.phi, g.q) == (((0, 1),), 2)
        assert repr(g) == "WreathElement(phi=((0, 1),), q=2)"

    def test_bare_tuple_rejected(self, G):
        good = WreathElement(G.zeta(1, 0), 1)
        bare = ((), 1)
        assert bare == WreathElement((), 1)
        calls = {
            "validate": G.validate,
            "multiply(x, g)": lambda x: G.multiply(x, good),
            "multiply(g, x)": lambda x: G.multiply(good, x),
            "conjugate(x, g)": lambda x: G.conjugate(x, good),
            "conjugate(g, x)": lambda x: G.conjugate(good, x),
        }
        assert [op for op, call in calls.items() if not _rejected(call, bare)] == []

    def test_nested_base_roundtrip(self):
        G = _group("nested-base")
        rng = random.Random(19)
        values = 0
        for _ in range(40):
            x = G.random_element(rng)
            y = G.parse_element(G.format_element(x))
            assert y == x and type(y) is WreathElement
            assert all(type(d) is WreathElement for _, d in y.phi)
            values += len(y.phi)
        assert values


def test_generators_generate_small_ball(lamplighter):
    G = lamplighter
    seen = {G.identity()}
    frontier = [G.identity()]
    gens = list(G.generators) + [G.inverse(s) for s in G.generators]
    for _ in range(3):
        frontier = [
            y
            for x in frontier
            for s in gens
            if (y := G.multiply(x, s)) not in seen and not seen.add(y)
        ]
    # the ball of radius 3 in the lamplighter has strictly more than
    # the 2*3+1 pure translations
    assert len(seen) > 7
    assert WreathElement(((0, 1),), 1) in seen


def test_generators_generate_finite_multi_orbit_group():
    # two orbits, {0, 1, 2} and the fixed point: zeta_1 at one point of each
    G = parse_instance("{D: cyclic 2; Q: symmetric 3; omega: union(natural, trivial 1)}").group
    assert [s.phi for s in G.generators][:2] == [(((0, 0), 1),), (((1, 0), 1),)]
    assert G.order() == 2**4 * 6
    assert len(list(G.ball_stream())) == G.order()


def test_generators_refused_past_the_listing_cap(monkeypatch):
    # one zeta at each of 5 orbits, then Q's generator: 6 elements
    G = build_wreath(parse_group("cyclic 2"), parse_group("cyclic 3"), "trivial 5")
    monkeypatch.setattr(groups_module, "_FINITE_SET_CAP", 6)
    assert len(G.generators) == 6
    monkeypatch.setattr(groups_module, "_FINITE_SET_CAP", 5)
    with pytest.raises(CertificateBudget, match="the generating set has 6 elements, more than 5"):
        G.generators


class _Unlisted:
    """Orbit representatives whose length is known and which fail when
    listed."""

    def __len__(self):
        return 2_000_000

    def __iter__(self):
        raise AssertionError("orbit representatives listed")


def test_union_generators_counted_before_listed(monkeypatch):
    # a union reads its length off its parts, so a generating set past the
    # cap is refused without listing a part's representatives
    G = build_wreath(Z2, Z, "union(regular, trivial 2)")
    monkeypatch.setattr(G.omega.parts[1], "orbit_representatives", _Unlisted)
    with pytest.raises(
        CertificateBudget, match="the generating set has 2000002 elements, more than 1000000$"
    ):
        G.generators


def test_element_literals_roundtrip(lamplighter, f2_wr_z2, z2_wr_s3):
    rng = random.Random(77)
    for G in (lamplighter, f2_wr_z2, z2_wr_s3):
        for _ in range(25):
            g = G.random_element(rng)
            assert G.parse_element(G.format_element(g)) == g
    assert lamplighter.format_element(lamplighter.identity()) == "{}@0"
    assert lamplighter.parse_element("{0:1, 2:1}@-1") == WreathElement(((0, 1), (2, 1)), -1)


def test_nested_wreath_as_base():
    inner = WreathProduct(Z2, Z, RegularQSet(Z))
    outer = WreathProduct(inner, Z, RegularQSet(Z))
    rng = random.Random(3)
    e = outer.identity()
    for _ in range(30):
        a, b = outer.random_element(rng), outer.random_element(rng)
        assert outer.multiply(outer.multiply(a, b), outer.inverse(outer.multiply(a, b))) == e
        assert outer.multiply(a, outer.inverse(a)) == e


class TestFusedMultiply:
    """`multiply` moves g2's support and multiplies values in one pass; it
    must agree with the two-step product it replaced."""

    @staticmethod
    def two_step(G, g1, g2):
        moved = G._canon((G.omega.act(g1.q, y), d) for y, d in g2.phi)
        phi = pointwise_mul(G, g1.phi, moved)
        return WreathElement(phi, G.Q.multiply(g1.q, g2.q))

    @staticmethod
    def assert_canonical(G, g):
        keys = [G.omega.point_key(y) for y in support(g.phi)]
        assert all(a < b for a, b in zip(keys, keys[1:])), g
        G.validate(g)

    @pytest.mark.parametrize("name", SHIPPED + list(BUILT))
    def test_matches_two_step_product(self, name):
        G = _group(name)
        rng = random.Random(name)
        for _ in range(80):
            a, b = G.random_element(rng), G.random_element(rng)
            # shared support points, cancelling values and an empty side
            for x, y in ((a, b), (b, a), (a, a), (a, G.inverse(a)), (a, G.identity())):
                out = G.multiply(x, y)
                assert out == self.two_step(G, x, y)
                self.assert_canonical(G, out)
                self.assert_canonical(G, G.inverse(out))

    def test_non_injective_action_rejected(self):
        class Collapsing(IntModQSet):
            """Sends every point to 0, so it is not an action of Z."""

            def _act(self, q, x):
                self.validate_point(x)
                return 0

        G = WreathProduct(Z2, Z, Collapsing(Z, 3))
        two_points = WreathElement(((0, 1), (1, 1)), 0)
        with pytest.raises(KindMismatch):
            G.inverse(two_points)
        # a product by (eps, q), the lambda-action, and by general elements
        # whose maps of one and three points merge into the moved right map
        three_points = WreathElement(((0, 1), (1, 1), (2, 1)), 1)
        for g1 in (G.identity(), WreathElement((), 1), WreathElement(((2, 1),), 1), three_points):
            with pytest.raises(KindMismatch):
                G.multiply(g1, two_points)
            # the two points collapse whichever side they are on
            with pytest.raises(KindMismatch):
                G.conjugate(two_points, g1)
            with pytest.raises(KindMismatch):
                G.conjugate(g1, two_points)

    def test_small_maps_skip_the_keyed_sort(self, G, monkeypatch):
        # a map of fewer than two points is canonical as it is; the same
        # results as sorted, with no call of the point key
        calls = []
        ZwrZ = build_wreath(Z, Z, "regular")
        for H in (G, ZwrZ):
            key = H._item_key
            monkeypatch.setattr(H, "_item_key", lambda yd, key=key: calls.append(yd) or key(yd))
        one = WreathElement(((0, 1),), 0)
        shift = WreathElement((), 1)
        moved = WreathElement(((0, 1),), 1)
        assert G._multiply(shift, one) == WreathElement(((1, 1),), 1)
        assert G._multiply(one, shift) == moved
        assert G._inverse(moved) == WreathElement(((-1, 1),), -1)
        assert G._conjugate(one, shift) == WreathElement(((-1, 1),), 0)
        assert G._conjugate(moved, one) == WreathElement(((1, 1),), 1)
        assert G._multiply(WreathElement((), 2), one) == WreathElement(((2, 1),), 2)
        assert calls == []

        def spliced(H, g1, g2, want):
            # a one-point phi2 is spliced into phi1 at its bisected place:
            # the key is read for the moved point and for at most
            # 1 + log2 |phi1| points of phi1, where a sort reads all of them
            calls.clear()
            assert H._multiply(g1, g2) == want
            assert 0 < len(calls) <= 1 + len(g1.phi).bit_length()

        # the moved point lands on a point of phi1 and cancels the value
        # there (D = Z2) or replaces it (D = Z), or is new to phi1
        two = WreathElement(((0, 1), (1, 1)), 1)
        spliced(G, two, WreathElement(((0, 1),), 0), WreathElement(((0, 1),), 1))
        spliced(G, two, WreathElement(((-1, 1),), 3), WreathElement(((1, 1),), 4))
        three = WreathElement(((-2, 5), (0, 1), (1, 1)), 1)
        for right, product in [
            ((-1, 2), ((-2, 5), (0, 3), (1, 1))),
            ((0, -1), ((-2, 5), (0, 1))),
            ((-2, 7), ((-2, 5), (-1, 7), (0, 1), (1, 1))),
        ]:
            spliced(ZwrZ, three, WreathElement((right,), 0), WreathElement(product, 1))
        # two moved points are sorted
        calls.clear()
        assert G._multiply(moved, moved) == WreathElement(((0, 1), (1, 1)), 2)
        assert calls


# the groups the kernels' branches for maps of at most one point are
# checked on: points in native order (lamplighter), free-group values on
# two points (f2-wr-z2), a union carrier (mixed-union-icc-base) and free-group
# points acted on by a free Q (z2-wr-free2)
SMALL_MAP_GROUPS = ["lamplighter", "f2-wr-z2", "mixed-union-icc-base", "z2-wr-free2"]


def _value(D, rng):
    """A random value of D other than the identity."""
    e = D.identity()
    return next(d for d in (D.random_element(rng) for _ in range(64)) if d != e)


def _operand(G, rng, size, first=None):
    """A random element of G whose map has `size` points, or every point
    of a smaller carrier, the (point, value) pair `first` among them when
    it is given."""
    items = dict([first] if first else [])
    for _ in range(64):
        if len(items) >= size:
            break
        items.setdefault(G.omega.random_point(rng), _value(G.D, rng))
    return WreathElement(G._canon(items.items()), G.Q.random_element(rng))


@pytest.mark.parametrize("name", SMALL_MAP_GROUPS)
@settings(settings.get_profile("wricc"), max_examples=60)
@given(
    sizes=st.tuples(st.sampled_from([0, 1, 2, 3]), st.sampled_from([0, 1, 2, 3])),
    meet=st.sampled_from(["apart", "replace", "cancel"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_maps_follow_the_product_law(name, sizes, meet, seed):
    """Operands with 0, 1 and 2+ points on each side.  Unless `meet` is
    "apart", the second operand's first point meets a point of the first
    operand's map inside the kernel, with a value that replaces or
    cancels the value there.  Each kernel gives a canonical element: the
    product equals the two-step product, x x^-1 = x^-1 x = e, and
    conjugation equals the generic law y^-1 x y of `Group._conjugate`."""
    G = _group(name)
    rng = random.Random(seed)
    dinv, e = G.D._inverse, G.identity()
    x = _operand(G, rng, sizes[0])

    def onto(move, cancelling):
        """A pair that `move` sends onto a point z of x's map, with the
        value `cancelling` gives for x's value there, or a random one."""
        if meet == "apart" or not x.phi or not sizes[1]:
            return None
        z, d = x.phi[rng.randrange(len(x.phi))]
        return move(z), cancelling(d) if meet == "cancel" else _value(G.D, rng)

    # the product moves y's points by x's acting part onto x's map
    qinv = G.Q._inverse(x.q)
    y = _operand(G, rng, sizes[1], onto(lambda z: G.omega._act(qinv, z), dinv))
    out = G._multiply(x, y)
    assert out == TestFusedMultiply.two_step(G, x, y)
    TestFusedMultiply.assert_canonical(G, out)
    for a in (x, y):
        ainv = G._inverse(a)
        TestFusedMultiply.assert_canonical(G, ainv)
        assert G._multiply(a, ainv) == e == G._multiply(ainv, a)
    # conjugation merges psi^-1 with phi at the points they share
    y = _operand(G, rng, sizes[1], onto(lambda z: z, lambda d: d))
    for a, b in ((x, y), (y, x)):
        out = G._conjugate(a, b)
        assert out == Group._conjugate(G, a, b)
        TestFusedMultiply.assert_canonical(G, out)


def _dict_product(G, g1, g2):
    """(phi1 * lambda(q1) phi2, q1 q2) through one dict, with public
    arithmetic: phi1's values, then each point of phi2 moved by q1, its
    value multiplied on the right of the value there; identities dropped
    and points sorted at the end."""
    values = dict(g1.phi)
    for y, d in g2.phi:
        z = G.omega.act(g1.q, y)
        values[z] = G.D.multiply(values[z], d) if z in values else d
    e = G.D.identity()
    kept = [(z, d) for z, d in values.items() if d != e]
    kept.sort(key=lambda item: G.omega.point_key(item[0]))
    return WreathElement(tuple(kept), G.Q.multiply(g1.q, g2.q))


@pytest.mark.parametrize("right", [0, 1, 2, 3])
@pytest.mark.parametrize("left", [0, 1, 3])
@pytest.mark.parametrize("name", ["f2-wr-z2", "mixed-union-icc-base", "s3-wr-s3"])
def test_products_equal_a_dict_product(name, left, right):
    """D = F2 and D = S3, both nonabelian: a left map of 0, 1 or 3 points
    (f2-wr-z2 has two, so mixed-union-icc-base gives F2 three) times a
    right map of 0-3 points.  The right map's first point, moved by the
    left acting part, meets a point of the left map with a value that
    stays or cancels there, or no moved point meets one.  The product is
    the dict product."""
    G = _group(name)
    rng = random.Random(f"{name} {left} {right}")
    missed = 0
    for meet in ("meet", "cancel", "miss"):
        for _ in range(12):
            x = _operand(G, rng, left)
            first = z = None
            if meet != "miss" and x.phi and right:
                z, d = x.phi[rng.randrange(len(x.phi))]
                value = G.D.inverse(d) if meet == "cancel" else _value(G.D, rng)
                first = (G.omega.act(G.Q.inverse(x.q), z), value)
            y = _operand(G, rng, right, first)
            moved = {G.omega.act(x.q, p) for p in support(y.phi)}
            if meet == "miss" and moved & set(support(x.phi)):
                continue
            out = G.multiply(x, y)
            assert out == _dict_product(G, x, y)
            assert type(out) is WreathElement
            if meet == "cancel" and z is not None:
                assert z not in support(out.phi)
            if meet == "miss":
                missed += 1
                assert len(out.phi) == len(x.phi) + len(y.phi)
    # two maps miss each other unless together they need more points than
    # the carrier has
    points = {"f2-wr-z2": 2, "s3-wr-s3": 3}.get(name, math.inf)
    assert missed or min(left, points) + min(right, points) > points


@pytest.mark.parametrize("where", ["before", "between", "after", "on", "cancel"])
@pytest.mark.parametrize("name", ["z-wr-z", "s3-union", "s3-wr-free2-union"])
def test_spliced_product_equals_the_general_path(name, where, monkeypatch):
    """A right map of one point, moved by the left acting part before,
    between or after the 6 points of the left map, or onto one of them
    with a value that stays or cancels there, is spliced into the left
    map.  A second right point that lands on no point of either takes the
    product through the general path; with that point dropped, it is the
    spliced product.  Points in native order, of Z and of a union, and by
    a `point_key` (F2 beside two fixed points), with values in Z and in S3,
    which is nonabelian."""
    G = build_wreath(Z, Z, "regular") if name == "z-wr-z" else _group(name)
    rng = random.Random(f"{name} {where}")
    calls = []
    key = G._item_key
    monkeypatch.setattr(G, "_item_key", lambda yd: calls.append(yd) or key(yd))
    e = G.D.identity()
    for _ in range(10):
        points = {G.omega.random_point(rng) for _ in range(64)}
        points = rng.sample(sorted(points, key=G.omega.point_key), 7)
        points.sort(key=G.omega.point_key)
        z = {"before": points[0], "between": points[3], "after": points[-1]}.get(where)
        if z is None:
            z = points[rng.randrange(6)]
            points.pop()
        else:
            points.remove(z)
        x = WreathElement(tuple((p, _value(G.D, rng)) for p in points), G.Q.random_element(rng))
        d = G._map_value(x.phi, z)
        if where == "cancel":
            value = G.D.inverse(d)
        else:
            values = (_value(G.D, rng) for _ in range(64))
            value = next(v for v in values if G.D.multiply(d, v) != e)
        qinv = G.Q.inverse(x.q)
        y = WreathElement(((G.omega.act(qinv, z), value),), G.Q.random_element(rng))
        calls.clear()
        out = G.multiply(x, y)
        assert len(calls) <= 1 + len(x.phi).bit_length()
        others = (G.omega.random_point(rng) for _ in range(64))
        w = next(p for p in others if p != z and p not in points)
        two = G._canon([y.phi[0], (G.omega.act(qinv, w), _value(G.D, rng))])
        general = G.multiply(x, WreathElement(two, y.q))
        assert out == WreathElement(tuple(item for item in general.phi if item[0] != w), general.q)
        assert out == _dict_product(G, x, y)
        grown = {"on": 0, "cancel": -1}.get(where, 1)
        assert len(out.phi) == len(x.phi) + grown and (z in support(out.phi)) == (grown >= 0)


def _word(G, rng):
    """A product of one to three of G's random elements."""
    x = G.random_element(rng)
    for _ in range(rng.randint(0, 2)):
        x = G._multiply(x, G.random_element(rng))
    return x


@pytest.mark.parametrize("name", SHIPPED + list(BUILT))
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_conjugate_is_the_product_definition(name, seed):
    """The fused conjugation law agrees with h^-1 x h as two products, on
    shared support points, cancelling values and empty maps."""
    G = _group(name)
    rng = random.Random(seed)
    x, y = _word(G, rng), _word(G, rng)
    e = G.identity()
    for a, b in ((x, y), (y, x), (x, x), (x, G._inverse(x)), (x, e), (e, y)):
        out = G._conjugate(a, b)
        assert out == G._multiply(G._multiply(G._inverse(b), a), b)
        G.validate(out)


@pytest.mark.parametrize("name", SHIPPED + list(BUILT))
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_inverse_is_a_two_sided_inverse(name, seed):
    """`_inverse(x)` is a valid element and x x^-1 = x^-1 x = e.  Every
    kernel path returns a `WreathElement`, never a bare tuple, which
    compares equal but which `validate` rejects."""
    G = _group(name)
    rng = random.Random(seed)
    x, y = _word(G, rng), _word(G, rng)
    e = G.identity()
    xinv = G._inverse(x)
    G.validate(xinv)
    assert G._multiply(x, xinv) == e == G._multiply(xinv, x)
    outputs = [e, xinv, G._inverse(e)]
    for a, b in ((x, y), (x, e), (e, y), (x, xinv)):
        outputs += [G._multiply(a, b), G._conjugate(a, b)]
    assert {type(out) for out in outputs} == {WreathElement}


def _kinds(G):
    """The carrier of G with its parts, and the groups D and Q, of G and
    of a wreath product in the D position."""
    carriers = [G.omega, *getattr(G.omega, "parts", ())]
    groups_ = [G.D, G.Q]
    if isinstance(G.D, WreathProduct):
        inner_carriers, inner_groups = _kinds(G.D)
        carriers += inner_carriers
        groups_ += inner_groups
    return carriers, groups_


@pytest.mark.parametrize("name", SHIPPED + list(BUILT))
def test_native_order_agrees_with_the_keys(name):
    """A carrier or group that declares native order sorts its points or
    elements natively exactly as by its key: negative integers, union
    tags, product tuples and permutations.  The wreath kernels then sort
    maps by the point itself, in C, and by the keyed lambda otherwise."""
    G = _group(name)
    rng = random.Random(name)
    carriers, groups_ = _kinds(G)
    for S in carriers:
        if S.native_order:
            pts = {S.random_point(rng) for _ in range(60)}
            pts |= set(itertools.islice(S.points_stream(), 40))
            assert sorted(pts) == sorted(pts, key=S.point_key), S.carrier_kind
    for H in groups_:
        if H.native_order:
            elems = {H.random_element(rng) for _ in range(60)}
            assert sorted(elems) == sorted(elems, key=H.sort_key), H.kind
    assert isinstance(G._item_key, itemgetter) == G.omega.native_order


def test_native_order_declarations():
    declared = {
        "integers": True,
        "cyclic 4": True,
        "symmetric 3": True,
        "product(integers, symmetric 3)": True,
        "free 2": False,
        "product(free 1, cyclic 2)": False,
    }
    for text, native in declared.items():
        H = parse_group(text)
        assert H.native_order is native, text
        assert RegularQSet(H).native_order is native, text
    for name, native in (("lamplighter", True), ("z2-wr-free2", False), ("s3-wr-s3-union", True)):
        assert _group(name).omega.native_order is native, name
    assert not _group("s3-wr-free2-union").omega.native_order
    # a wreath product declares nothing: its key is not its tuple order
    assert not _group("nested-base").D.native_order


def test_free_regular_carrier_keeps_length_word_order():
    """On z2 wr F2 the point b = (2,) sorts before a^2 = (1, 1) by
    (len, word), after it natively: maps keep the (len, word) order."""
    G = _group("z2-wr-free2")
    assert not G.omega.native_order
    b, aa = (2,), (1, 1)
    assert sorted([b, aa]) == [aa, b]
    x = G.multiply(WreathElement(((aa, 1),), ()), WreathElement(((b, 1),), ()))
    assert x.phi == ((b, 1), (aa, 1))
    # moved by a, the points b and a^2 go to a*b and a^3, in that order
    assert G.conjugate(x, WreathElement((), (-1,))).phi == (((1, 2), 1), ((1, 1, 1), 1))


def test_undeclared_carrier_gets_the_keyed_sort():
    """A carrier that declares nothing is sorted by its `point_key`: here
    by absolute value, then sign, which is not the native order."""
    G = WreathProduct(Z2, Z, OpaqueQSet(Z))
    assert not isinstance(G._item_key, itemgetter)
    x = WreathElement(((2, 1),), 0)
    for y in (-1, 1):
        x = G.multiply(x, WreathElement(((y, 1),), 0))
    assert x.phi == ((1, 1), (-1, 1), (2, 1))
    assert G.inverse(WreathElement(x.phi, 3)).phi == ((-1, 1), (-2, 1), (-4, 1))


class _CollapsingIntMod(IntModQSet):
    """Sends every point to 0, so it is not an action of Z."""

    def _act(self, q, x):
        return 0


class _CollapsingRegular(RegularQSet):
    """Sends every point to 0, so it is not an action of Z."""

    def _act(self, q, x):
        return 0


@pytest.mark.parametrize(
    "omega, pts",
    [
        (DisjointUnionQSet((_CollapsingIntMod(Z, 3), RegularQSet(Z))), ((0, 0), (0, 1))),
        (DisjointUnionQSet((RegularQSet(Z), _CollapsingRegular(Z))), ((1, 0), (1, 1))),
        (_CollapsingRegular(Z), (0, 1)),
    ],
    ids=["union-int-mod", "union-regular", "regular"],
)
def test_action_overrides_survive_the_binding(omega, pts):
    """The union binds its parts' actions once and the regular carrier
    acts through Q's product, yet a part's own `_act` override is the one
    that runs: two points it sends to one are rejected."""
    G = WreathProduct(Z2, Z, omega)
    two_points = WreathElement(((pts[0], 1), (pts[1], 1)), 0)
    G.validate(two_points)
    with pytest.raises(KindMismatch):
        G.inverse(two_points)
    for g1 in (G.identity(), WreathElement((), 1)):
        with pytest.raises(KindMismatch):
            G.multiply(g1, two_points)
        with pytest.raises(KindMismatch):
            G.conjugate(two_points, g1)
        with pytest.raises(KindMismatch):
            G.conjugate(g1, two_points)
