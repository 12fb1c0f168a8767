"""Malformed literals and descriptors, and questions that an infinite group
cannot answer, are refused in-process, each with its error type: one
parametrized test per module, and two refusals through `cli.main`."""

import random

import pytest

from wricc._parsing import head_and_args, split_top, strip_outer
from wricc.cli import EXIT_USAGE, main
from wricc.errors import KindMismatch, ParseError, PreconditionError, Unsupported
from wricc.groups import CyclicGroup, DirectProductGroup, FreeGroup, IntegersGroup, SymmetricGroup
from wricc.instances import parse_group, parse_instance, parse_omega
from wricc.qsets import DisjointUnionQSet, IntModQSet, RegularQSet
from wricc.wreath import WreathProduct

from conftest import instance_text, load_instance

Z = IntegersGroup()


@pytest.mark.parametrize(
    "call",
    [
        lambda: split_top("a)(b", ","),
        lambda: split_top("(a, b", ","),
        lambda: strip_outer("a", "(", ")"),
        lambda: strip_outer("(a)(b)", "(", ")"),
        lambda: strip_outer("((a)", "(", ")"),
        lambda: head_and_args(" "),
        lambda: head_and_args("cyclic(2"),
    ],
    ids=["close-first", "open-left", "no-brackets", "two-groups", "open-inside", "empty", "unclosed"],
)
def test_parsing_refusals(call):
    with pytest.raises(ParseError):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: IntegersGroup().parse_element("1.5"), ParseError),
        (lambda: CyclicGroup(3).parse_element("x"), ParseError),
        (lambda: SymmetricGroup(3).parse_element("[0,x,2]"), ParseError),
        (lambda: SymmetricGroup(3).parse_element("[0,1]"), KindMismatch),
        (lambda: FreeGroup(2).parse_element("a*c"), ParseError),
        (lambda: FreeGroup(2).parse_element("a^"), ParseError),
        (lambda: DirectProductGroup((Z, Z)).parse_element("(1)"), ParseError),
        (lambda: FreeGroup(0), PreconditionError),
        (lambda: FreeGroup(27), PreconditionError),
        (lambda: CyclicGroup(0), PreconditionError),
        (lambda: DirectProductGroup(()), PreconditionError),
        (lambda: CyclicGroup(1).first_nontrivial(), PreconditionError),
        (lambda: Z.order(), Unsupported),
        (lambda: FreeGroup(2).elements(), Unsupported),
    ],
    ids=[
        "integer", "cyclic", "symmetric-entry", "symmetric-length", "word-rank",
        "word-token", "product-arity", "free-0", "free-27", "cyclic-0",
        "empty-product", "trivial-first-nontrivial", "infinite-order", "infinite-listing",
    ],
)
def test_group_refusals(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_group("cyclic"),
        lambda: parse_group("cyclic x"),
        lambda: parse_omega("trivial", Z),
        lambda: parse_group("product()"),
        lambda: parse_group("wreath()"),
        lambda: parse_group("wreath(cyclic 2; integers)"),
        lambda: parse_omega("union()", Z),
        lambda: parse_instance("D cyclic 2\nQ: integers\nomega: regular\n"),
    ],
    ids=[
        "missing-number", "bad-number", "missing-carrier-number", "empty-product",
        "empty-wreath", "two-part-wreath", "empty-union", "no-colon",
    ],
)
def test_instance_refusals(call):
    with pytest.raises(ParseError):
        call()


UNION = DisjointUnionQSet((RegularQSet(Z), IntModQSet(Z, 3)))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: IntModQSet(Z, 3).parse_point("x"), ParseError),
        (lambda: IntModQSet(Z, 3).parse_point("3"), KindMismatch),
        (lambda: UNION.parse_point("(1, 2)"), ParseError),
        (lambda: UNION.parse_point("(x; 2)"), ParseError),
        (lambda: UNION.parse_point("(2; 0)"), ParseError),
    ],
    ids=["int-point", "int-point-range", "union-no-part", "union-part-index", "union-part-range"],
)
def test_point_refusals(call, error):
    with pytest.raises(error):
        call()


def _always_identity():
    G = load_instance("lamplighter").group
    G.random_element = lambda rng: G.identity()
    return G.random_nontrivial_element(random.Random(0))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: load_instance("lamplighter").group.parse_element("{0:1, 0:1}@0"), KindMismatch),
        (lambda: load_instance("lamplighter").group.parse_element("{0}@0"), ParseError),
        (lambda: WreathProduct(CyclicGroup(2), Z, RegularQSet(CyclicGroup(3))), PreconditionError),
        (_always_identity, PreconditionError),
        (lambda: load_instance("lamplighter").group.order(), Unsupported),
        (lambda: next(load_instance("lamplighter").group.elements()), Unsupported),
    ],
    ids=[
        "repeated-point", "bad-map-entry", "carrier-over-another-Q", "only-identity-draws",
        "infinite-order", "infinite-listing",
    ],
)
def test_wreath_refusals(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (["witness", "-g", "{0:1, 0:1}@0"], None, "kind-mismatch"),
        (["decide"], "{D: cyclic x; Q: integers; omega: regular}", "parse-error"),
    ],
)
def test_cli_reports_a_refusal_without_a_traceback(tmp_path, capsys, argv, text, code):
    path = tmp_path / "instance.wri"
    path.write_text(text or instance_text("lamplighter"))
    assert main([*argv, "-i", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error [{code}]: ") and "Traceback" not in err
