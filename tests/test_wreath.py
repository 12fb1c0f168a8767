import random

import pytest

from wricc import (
    CyclicGroup,
    FreeGroup,
    IntegersGroup,
    IntModQSet,
    KindMismatch,
    RegularQSet,
    SymmetricGroup,
    WreathElement,
    WreathProduct,
    support,
)
from wricc.instances import build_wreath, parse_group

from conftest import CORPUS, EXTRA, load_instance

Z = IntegersGroup()
Z2 = CyclicGroup(2)

SHIPPED = [name for name, *_ in CORPUS + EXTRA]
# (D, Q, omega) of carriers beyond the shipped instances
BUILT = {
    "z2-wr-free2": ("cyclic 2", "free 2", "regular"),
    "z3-wr-product": ("cyclic 3", "product(integers, cyclic 2)", "regular"),
    "s3-wr-free2-union": ("symmetric 3", "free 2", "union(regular, trivial 2)"),
    "s3-wr-s3-union": ("symmetric 3", "symmetric 3", "union(natural, regular, trivial 2)"),
    "z2-wr-free-product": ("cyclic 2", "product(free 1, cyclic 2)", "regular"),
}


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

    def test_lambda_shifts_support(self, G):
        f = G.zeta(1, 0)
        assert G.lambda_act(1, f) == ((1, 1),)
        assert G.lambda_act(0, f) == f

    def test_lambda_is_action(self, G):
        rng = random.Random(7)
        for _ in range(100):
            f = G.random_element(rng).phi
            q1, q2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
            assert G.lambda_act(q1 + q2, f) == G.lambda_act(q1, G.lambda_act(q2, f))

    def test_pointwise_mul_cancels(self, G):
        f = G.pointwise_mul(G.zeta(1, 0), G.zeta(1, 0))
        assert f == ()

    def test_map_value_defaults_to_identity(self, G):
        f = G.zeta(1, 3)
        assert G.map_value(f, 3) == 1
        assert G.map_value(f, 4) == 0


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
        assert out == WreathElement(G.pointwise_mul(G.zeta(1, 0), G.zeta(1, 1)), 1)

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
            assert lhs == WreathElement(G.lambda_act(q, f), 0)


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
        phi = G.pointwise_mul(g1.phi, G.lambda_act(g1.q, g2.phi))
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

            def act(self, q, x):
                self.validate_point(x)
                return 0

        G = WreathProduct(Z2, Z, Collapsing(Z, 3))
        two_points = WreathElement(((0, 1), (1, 1)), 0)
        for g1 in (G.identity(), WreathElement(((2, 1),), 1)):
            with pytest.raises(KindMismatch):
                G.multiply(g1, two_points)
