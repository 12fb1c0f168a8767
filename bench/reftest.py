"""Tests of the benchmark's reference arithmetic against products worked by
hand.  Run: python3 bench/reftest.py"""

import itertools
import unittest

from reference import F2, FACTS, S3, Wreath, Z, Z2, Regular, Symmetric


def word_ball(W, letters, radius):
    """Every product of at most `radius` letters."""
    ball = {W.one}
    layer = {W.one}
    for _ in range(radius):
        layer = {W.mul(x, s) for x in layer for s in letters}
        ball |= layer
    return ball


def lamp(phi, q):
    return FACTS["lamplighter"].group.elem(phi, q)


class LamplighterByHand(unittest.TestCase):
    W = FACTS["lamplighter"].group

    def test_product_shifts_the_right_factor(self):
        # {0:1}@1 * {0:1}@1 = {0:1} * lambda_1{0:1} @ 2 = {0:1, 1:1}@2
        self.assertEqual(self.W.mul(lamp({0: 1}, 1), lamp({0: 1}, 1)), lamp({0: 1, 1: 1}, 2))

    def test_inverse(self):
        self.assertEqual(self.W.inv(lamp({0: 1}, 1)), lamp({-1: 1}, -1))
        self.assertEqual(self.W.mul(lamp({0: 1}, 1), lamp({-1: 1}, -1)), self.W.one)

    def test_translation_conjugated_by_a_lamp(self):
        # ({0:1}@0)^-1 {}@1 {0:1}@0 = ({0:1}@1)({0:1}@0) = {0:1, 1:1}@1
        self.assertEqual(self.W.conj(lamp({}, 1), lamp({0: 1}, 0)), lamp({0: 1, 1: 1}, 1))

    def test_radius_8_conjugate_counts(self):
        letters = [lamp({0: 1}, 0), lamp({}, 1), lamp({}, -1)]
        ball = word_ball(self.W, letters, 8)
        self.assertEqual(len(ball), 490)
        self.assertEqual(len({self.W.conj(lamp({0: 1}, 0), h) for h in ball}), 17)
        self.assertEqual(len({self.W.conj(lamp({}, 1), h) for h in ball}), 129)


class BaseGroupsByHand(unittest.TestCase):
    def test_permutations_compose_right_to_left(self):
        # apply (0 2 1)-image [0,2,1] first, then [1,0,2]: 0->0->1, 1->2->2, 2->1->0
        self.assertEqual(S3.mul((1, 0, 2), (0, 2, 1)), (1, 2, 0))
        self.assertEqual(S3.inv((1, 2, 0)), (2, 0, 1))

    def test_transposition_conjugated(self):
        a = (0, 2, 1)
        self.assertEqual(S3.mul(S3.mul(S3.inv(a), (1, 0, 2)), a), (2, 1, 0))

    def test_symmetric_generators_generate(self):
        W = Symmetric(3)
        seen = {W.one}
        frontier = [W.one]
        while frontier:
            frontier = [y for x in frontier for s in W.gens if (y := W.mul(x, s)) not in seen]
            seen.update(frontier)
        self.assertEqual(len(seen), 6)

    def test_free_words_reduce(self):
        self.assertEqual(F2.mul((1, 2), (-2, 1)), (1, 1))
        self.assertEqual(F2.mul((1, 2), (-2, -1)), ())
        self.assertEqual(F2.inv((1, -2)), (2, -1))

    def test_cyclic_and_integers(self):
        self.assertEqual(Z2.mul(1, 1), 0)
        self.assertEqual(Z.inv(5), -5)


class CarriersByHand(unittest.TestCase):
    def test_union_of_regular_and_int_mod_3(self):
        omega = FACTS["mixed-union"].group.omega
        self.assertEqual(omega.act(3, (1, 2)), (1, 2))
        self.assertEqual(omega.act(3, (0, 5)), (0, 8))
        self.assertEqual(omega.act(-1, (1, 0)), (1, 2))
        self.assertEqual(omega.orbit_reps(), ((0, 0), (1, 0)))

    def test_natural_action_is_a_left_action(self):
        omega = FACTS["s3-wr-s3"].group.omega
        perms = list(itertools.permutations(range(3)))
        for a, b in itertools.product(perms, perms):
            for x in range(3):
                self.assertEqual(omega.act(S3.mul(a, b), x), omega.act(a, omega.act(b, x)))

    def test_natural_wreath_product(self):
        W = FACTS["s3-wr-s3"].group
        g = W.elem({0: (1, 0, 2)}, (1, 2, 0))
        h = W.elem({0: (0, 2, 1)}, S3.one)
        # lambda_(1,2,0) moves point 0 to 1
        self.assertEqual(W.mul(g, h), W.elem({0: (1, 0, 2), 1: (0, 2, 1)}, (1, 2, 0)))

    def test_free_regular_carrier(self):
        W = Wreath(Z2, F2, Regular(F2))
        g = W.elem({(): 1}, (1,))
        h = W.elem({}, (2,))
        # h^-1 g = {b^-1:1}@b^-1*a, then times h: {b^-1:1}@b^-1*a*b
        self.assertEqual(W.conj(g, h), W.elem({(-2,): 1}, (-2, 1, 2)))


class ClosureByHand(unittest.TestCase):
    W = FACTS["s3-union"].group

    def maps_on_part_1(self, values):
        out = set()
        for choice in itertools.product([None, *values], repeat=3):
            phi = {(1, y): d for y, d in enumerate(choice) if d is not None}
            if phi:
                out.add(self.W.elem(phi, 0))
        return out

    def test_generating_set(self):
        # Q-generator 1, and two transpositions at (0;0) and at (1;0)
        self.assertEqual(len(self.W.generating_set()), 5)

    def test_value_conjugation_at_part_1(self):
        g = self.W.elem({(1, 0): (1, 0, 2)}, 0)
        h = self.W.elem({(1, 0): (0, 2, 1)}, 0)
        self.assertEqual(self.W.conj(g, h), self.W.elem({(1, 0): (2, 1, 0)}, 0))

    def test_one_transposition_is_not_invariant(self):
        S = self.maps_on_part_1([(1, 0, 2)])
        self.assertEqual(len(S), 7)
        self.assertIsNotNone(self.W.closure_counterexample(S))

    def test_all_transpositions_are_invariant(self):
        S = self.maps_on_part_1([(1, 0, 2), (0, 2, 1), (2, 1, 0)])
        self.assertEqual(len(S), 63)
        self.assertIsNone(self.W.closure_counterexample(S))


class CriterionFacts(unittest.TestCase):
    def test_verdicts(self):
        icc = {name for name, f in FACTS.items() if f.icc}
        self.assertEqual(icc, {"lamplighter", "f2-wr-z2", "mixed-union-icc-base", "z2-wr-f2"})

    def test_family_kinds(self):
        self.assertEqual(FACTS["z2-wr-f2"].family_kind((1,)), "q-translation")
        self.assertEqual(FACTS["z2-wr-f2"].family_kind(()), "lambda-translation")
        self.assertEqual(FACTS["f2-wr-z2"].family_kind(1), "g_d")
        self.assertEqual(FACTS["f2-wr-z2"].family_kind(0), "value-conjugation")


if __name__ == "__main__":
    unittest.main()
