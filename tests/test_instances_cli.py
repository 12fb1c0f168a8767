import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wricc.decision import decide_icc
from wricc.errors import EmptyOmega, ParseError, TrivialD, UnsupportedQKind
from wricc.groups import CyclicGroup, IntegersGroup, SymmetricGroup
from wricc.instances import InstanceSpec, parse_instance
from wricc.witness import FiniteClassCertificate, witness
from wricc.wreath import WreathProduct
import wricc.cli as cli
import wricc.verify
from wricc.cli import EXIT_FAIL, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, build_parser, main

from conftest import CORPUS, EXTRA, OpaqueQSet, instance_text, load_instance


def nested_instance(kind, levels):
    """An instance whose Q (product), carrier (union) or D (wreath) nests
    `levels` descriptors of that kind."""
    inner = {"product": "integers", "union": "regular", "wreath": "cyclic 2"}[kind]
    for _ in range(levels):
        inner = f"wreath({inner}; integers; regular)" if kind == "wreath" else f"{kind}({inner})"
    d, q, omega = {
        "product": ("cyclic 2", inner, "regular"),
        "union": ("cyclic 2", "integers", inner),
        "wreath": (inner, "integers", "regular"),
    }[kind]
    return f"{{D: {d}; Q: {q}; omega: {omega}}}"


def write_instance(tmp_path, name, text=None):
    path = tmp_path / f"{name}.wri"
    path.write_text(text if text is not None else instance_text(name))
    return str(path)


class TestParseInstance:
    def test_line_format(self):
        spec = parse_instance("D: cyclic 2\nQ: integers\nomega: regular\n")
        assert isinstance(spec.group, WreathProduct)
        assert spec.group.Q.kind == "integers"

    def test_one_liner(self):
        spec = parse_instance("{D: cyclic 2; Q: integers; omega: regular}")
        assert spec.group.kind == load_instance("lamplighter").group.kind

    def test_comments(self):
        spec = parse_instance("# a comment\nD: free 2 # the base\nQ: integers\nomega: regular\n")
        assert spec.group.D.kind == "free(2)" and spec.d_text == "free 2"

    ONE_LINER = "{D: cyclic 2; Q: integers; omega: regular}"

    @pytest.mark.parametrize(
        "text",
        [
            f"# lamplighter\n{ONE_LINER}",
            f"{ONE_LINER}\n# a note\n",
            f"\n  # lamplighter\n\n{ONE_LINER}  # a note\n# and another\n",
        ],
    )
    def test_comment_lines_around_a_one_liner(self, text):
        # comments are stripped before the form is chosen, so a one-liner
        # reads the same with the shipped files' comment header
        bare, commented = parse_instance(self.ONE_LINER), parse_instance(text)
        assert commented.group.kind == bare.group.kind
        assert commented[1:] == bare[1:]
        assert commented.instance_hash() == bare.instance_hash() == "ebe001051010"

    @pytest.mark.parametrize(
        "text, digest",
        [
            # a line break inside a descriptor is part of its text
            ("{D: product(cyclic 2,\r\n  integers); Q: integers; omega: regular}", "8967ebae5bfa"),
            ("D: cyclic 2\r\nQ: integers  \r\n\r\nomega: union(regular,\tregular)\n", "a868b311116f"),
            ("{D: cyclic 2;\nQ: integers;\nomega: regular}", "ebe001051010"),
        ],
    )
    def test_hashes_of_texts_without_comments_stay(self, text, digest):
        # the digests these texts had before comments were stripped first;
        # the shipped files' hashes are pinned in tests/records/
        assert parse_instance(text).instance_hash() == digest

    def test_nested_wreath_base(self):
        spec = parse_instance(
            "D: wreath(cyclic 2; integers; regular)\nQ: integers\nomega: regular\n"
        )
        assert isinstance(spec.group.D, WreathProduct)

    def test_trivial_base_rejected(self):
        with pytest.raises(TrivialD):
            parse_instance("D: cyclic 1\nQ: integers\nomega: regular\n")

    @pytest.mark.parametrize("omega, error", [("bogus", ParseError), ("trivial 0", EmptyOmega)])
    def test_carrier_fault_reported_before_trivial_base(self, omega, error):
        # the carrier is parsed before `WreathProduct` checks the hypotheses
        with pytest.raises(error):
            parse_instance(f"{{D: cyclic 1; Q: integers; omega: {omega}}}")

    def test_wreath_q_rejected(self):
        with pytest.raises(UnsupportedQKind):
            parse_instance(
                "D: cyclic 2\nQ: wreath(cyclic 2; integers; regular)\nomega: regular\n"
            )

    @pytest.mark.parametrize("omega", ["regular", "trivial 1"])
    @pytest.mark.parametrize(
        "q",
        [
            "product(wreath(cyclic 2; integers; regular), cyclic 2)",
            "product(cyclic 3, product(wreath(cyclic 2; integers; regular)))",
        ],
    )
    def test_wreath_inside_a_q_product_rejected(self, tmp_path, capsys, q, omega):
        # the grammar admits wreath products in the D position only, at
        # any depth of Q
        path = write_instance(tmp_path, "product-q", f"{{D: cyclic 2; Q: {q}; omega: {omega}}}")
        for cmd in ("decide", "witness", "verify"):
            assert main([cmd, "-i", path]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error [unsupported-q-kind]: ")

    @pytest.mark.parametrize("kind", ["product", "union"])
    def test_32_levels_of_nesting_run(self, tmp_path, capsys, kind):
        path = write_instance(tmp_path, "nested", nested_instance(kind, 32))
        for cmd in ("decide", "witness", "verify"):
            code, out, err = outcome([cmd, "-i", path], capsys)
            assert (code, err) == (EXIT_OK, ""), err

    @pytest.mark.parametrize("levels", [33, 5000])
    @pytest.mark.parametrize("kind", ["product", "union", "wreath"])
    def test_deeper_nesting_is_a_parse_error(self, tmp_path, capsys, kind, levels):
        # refused as it is parsed, before the parser or a group method
        # recurses past Python's limit
        path = write_instance(tmp_path, "nested", nested_instance(kind, levels))
        for argv in (["decide"], ["witness"], ["verify"], ["class", "-g", "{}@0"]):
            code, out, err = outcome([*argv, "-i", path], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error [parse-error]: descriptors nest more than 32 levels deep\n"

    @pytest.mark.parametrize(
        "text",
        [
            "{D: cyclic 2; Q: integers; omega: }",
            "{D: ; Q: integers; omega: regular}",
            "{D: cyclic 2; Q: integers; omega: union(,)}",
            "{D: cyclic 2; Q: integers; omega: union(regular, )}",
            "{D: product(cyclic 2,); Q: integers; omega: regular}",
        ],
    )
    def test_empty_descriptor_is_a_parse_error(self, tmp_path, capsys, text):
        path = write_instance(tmp_path, "empty", text)
        for argv in (["decide"], ["witness"], ["verify"], ["class", "-g", "{}@0"]):
            code, out, err = outcome([*argv, "-i", path], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error [parse-error]: empty descriptor\n"

    @pytest.mark.parametrize(
        "text",
        [
            "{D: symmetric 1000000000000; Q: integers; omega: regular}",
            "{D: cyclic 2; Q: symmetric 1000000000000; omega: natural}",
        ],
    )
    def test_symmetric_degree_past_the_listing_cap_rejected(self, tmp_path, capsys, text):
        path = write_instance(tmp_path, "huge-symmetric", text)
        for cmd in ("decide", "witness", "verify"):
            code, out, err = outcome([cmd, "-i", path], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "error [precondition]: symmetric: degree must be in 1..1000000\n"

    @pytest.mark.parametrize("unions, ok", [(31, True), (32, False)])
    def test_a_wreath_carrier_nests_inside_the_wreath(self, unions, ok):
        omega = "regular"
        for _ in range(unions):
            omega = f"union({omega})"
        text = f"{{D: wreath(cyclic 2; integers; {omega}); Q: integers; omega: regular}}"
        if ok:
            assert parse_instance(text).group.D.omega.carrier_kind.count("union") == unions
        else:
            with pytest.raises(ParseError, match="^descriptors nest more than 32 levels deep$"):
                parse_instance(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("D: quaternion 8\nQ: integers\nomega: regular\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("D: cyclic 2\nomega: regular\n")

    def test_duplicate_key_rejected(self):
        # keys are read in any case, so `D` and `d` are one key
        with pytest.raises(ParseError, match="^duplicate key 'd'$"):
            parse_instance("{D: cyclic 2; Q: integers; d: cyclic 3; omega: regular}")

    def test_symmetric_natural(self):
        spec = parse_instance("D: cyclic 2\nQ: symmetric 3\nomega: natural\n")
        assert isinstance(spec.group.Q, SymmetricGroup)
        assert spec.group.order() == 48

    def test_natural_parses_without_listing_q(self):
        # the natural carrier reads its answers off its kind: building it
        # over symmetric 8 touches none of the 40320 permutations
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            parse_instance("{D: cyclic 2; Q: symmetric 8; omega: natural}")
            best = min(best, time.perf_counter() - t0)
        assert best < 0.010

    @pytest.mark.parametrize("q", ["integers", "product(symmetric 3)"])
    def test_natural_needs_a_symmetric_group(self, tmp_path, capsys, q):
        path = write_instance(tmp_path, "not-symmetric", f"{{D: cyclic 2; Q: {q}; omega: natural}}")
        assert main(["decide", "-i", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error [precondition]: natural action requires a symmetric group\n"
        assert "Traceback" not in captured.out + captured.err

    # the generators cover every orbit and the finite check is exact, so
    # no instance chooses a window of points or a sample count; the flags
    # alone set the budgets and the seed
    @pytest.mark.parametrize(
        "key", ["window", "samples", "radius", "max-size", "max_size", "seed"]
    )
    @pytest.mark.parametrize(
        "command", [["decide"], ["witness"], ["class", "-g", "{0:1}@0"], ["verify"]]
    )
    def test_removed_keys_rejected(self, tmp_path, capsys, command, key):
        path = write_instance(tmp_path, "old-key", instance_text("lamplighter") + f"{key}: 3\n")
        code, out, err = outcome([*command, "-i", path], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error [parse-error]: unknown key {key!r}\n"

    def test_hash_is_stable(self):
        a = parse_instance(instance_text("lamplighter")).instance_hash()
        b = parse_instance(instance_text("lamplighter")).instance_hash()
        c = parse_instance(instance_text("s3-wr-s3")).instance_hash()
        assert a == b and a != c and len(a) == 12


class TestDecideCommand:
    def test_lamplighter(self, tmp_path, capsys):
        path = write_instance(tmp_path, "lamplighter")
        assert main(["decide", "-i", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "answer: yes" in out
        assert "cond_i: yes" in out and "cond_ii: no" in out and "cond_iii: yes" in out

    def test_json_record(self, tmp_path, capsys):
        path = write_instance(tmp_path, "s3-wr-s3")
        assert main(["decide", "--json", "-i", path]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "decide"
        assert rec["answer"] == "no"
        assert {"cond_i", "cond_ii", "cond_iii", "instance_hash"} <= rec.keys()

    def test_missing_file(self, capsys):
        assert main(["decide", "-i", "/nonexistent.wri"]) == EXIT_USAGE

    def test_parse_error_exit(self, tmp_path, capsys):
        path = write_instance(tmp_path, "bad", "D: cyclic 1\nQ: integers\nomega: regular\n")
        assert main(["decide", "-i", path]) == EXIT_USAGE


@pytest.mark.parametrize(
    "command", [["decide"], ["witness"], ["class", "-g", "{}@0"], ["verify"]]
)
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.wri"
    path.write_bytes(b"\xff\xfe" + instance_text("lamplighter").encode())
    assert main([command[0], "-i", str(path), *command[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [parse-error]: ")
    assert "not UTF-8" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["decide"],
        ["witness", "-g", "{0:1}@0"],
        ["class", "-g", "{}@1"],
        ["verify", "--elements", "1", "--prefix", "10"],
    ],
)
def test_byte_order_mark_is_not_instance_text(tmp_path, capsys, command):
    # a file saved with a UTF-8 byte-order mark reads as the same instance
    plain = write_instance(tmp_path, "lamplighter")
    marked = tmp_path / "marked.wri"
    marked.write_bytes(b"\xef\xbb\xbf" + instance_text("lamplighter").encode())
    outputs = []
    for path in (plain, str(marked)):
        assert main([command[0], "--json", "-i", path, *command[1:]]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


class TestWitnessCommand:
    def test_finite_certificate_report(self, tmp_path, capsys):
        path = write_instance(tmp_path, "z2-wr-s3")
        assert main(["witness", "--json", "-i", path]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["certificate"] == "finite-class"
        assert rec["size"] == 7
        assert "(1+1)^3 - 1 = 7" in rec["size_formula"]

    def test_family_report_with_element(self, tmp_path, capsys):
        path = write_instance(tmp_path, "lamplighter")
        code = main(["witness", "--json", "-i", path, "-g", "{0:1}@0", "--prefix", "12"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["certificate"] == "infinite-family"
        assert rec["family"] == "lambda-translation"
        assert rec["distinct_prefix"] == 12

    def test_default_element(self, tmp_path, capsys):
        path = write_instance(tmp_path, "f2-wr-z2")
        assert main(["witness", "-i", path]) == EXIT_OK
        assert "infinite-family" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_prefix_below_one_rejected(self, tmp_path, capsys, n):
        path = write_instance(tmp_path, "lamplighter")
        code = main(["witness", "--json", "-i", path, "-g", "{0:1}@0", "--prefix", n])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [precondition]: ")

    def test_bad_element_literal(self, tmp_path, capsys):
        path = write_instance(tmp_path, "lamplighter")
        assert main(["witness", "-i", path, "-g", "{0:1@"]) == EXIT_USAGE

    def test_word_literal_past_the_listing_cap_rejected(self, tmp_path, capsys):
        # refused before the run of 10^12 letters is built
        path = write_instance(tmp_path, "mixed-union-icc-base")
        literal = "{(0; 1):a^1000000000000}@0"
        code, out, err = outcome(["witness", "-i", path, "-g", literal], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error [parse-error]: free(2): word literal of more than 1000000 letters\n"

    @pytest.mark.parametrize("name", [name for name, *_ in CORPUS + EXTRA])
    def test_element_literal_parsed_on_every_verdict(self, tmp_path, capsys, name):
        # a malformed literal is refused on a No verdict too, which takes
        # no element, and an empty one is malformed, not a missing one; a
        # well-formed one leaves a No record as it was
        path = write_instance(tmp_path, name)
        for bad in ("garbage", ""):
            code, out, err = outcome(["witness", "-i", path, "-g", bad], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error [parse-error]: ")
        G = load_instance(name).group
        literal = G.format_element(G.first_nontrivial())
        plain = outcome(["witness", "--json", "-i", path], capsys)
        given = outcome(["witness", "--json", "-i", path, "-g", literal], capsys)
        assert plain[0] == given[0] == EXIT_OK
        if json.loads(plain[1])["answer"] == "no":
            assert given == plain

    @pytest.mark.parametrize(
        "q, omega, size",
        [
            ("cyclic 20", "regular", 2**20 - 1),
            ("cyclic 100000", "regular", "at least 2^99999"),
            ("symmetric 25", "natural", 2**25 - 1),
        ],
        ids=["20", "100000", "natural-25"],
    )
    def test_finite_orbit_over_budget(self, tmp_path, capsys, q, omega, size):
        # 2^20 - 1 and 2^25 - 1 members are over the 10^6 listing cap, and
        # 2^100000 - 1 has more digits than Python converts to a string:
        # `witness` walks S(O, xi) only as far as the 20 members it prints,
        # and prints a size that is too long as a bound; xi is {1}, so
        # those 20 are 1 on the first k points of O, k = 1, ..., 20
        path = write_instance(tmp_path, "huge-orbit", f"{{D: cyclic 2; Q: {q}; omega: {omega}}}")
        assert main(["witness", "--json", "-i", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        rec = json.loads(captured.out)
        n = int(q.split()[1])
        one = "0" if omega == "regular" else "[" + ",".join(map(str, range(n))) + "]"
        chain = ["{" + ", ".join(f"{y}:1" for y in range(k)) + "}@" + one for k in range(1, 21)]
        assert rec["elements"] == chain
        truncated = size - 20 if isinstance(size, int) else size
        assert (rec["size"], rec["elements_truncated"]) == (size, truncated)


class TestClassCommand:
    def test_lamp_class_at_least(self, tmp_path, capsys):
        path = write_instance(tmp_path, "lamplighter")
        code = main(["class", "--json", "-i", path, "-g", "{0:1}@0", "--radius", "6", "--max-size", "200"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["status"] == "at-least"
        assert rec["count"] >= 7

    def test_identity_class(self, tmp_path, capsys):
        path = write_instance(tmp_path, "z2-wr-s3")
        code = main(["class", "--json", "-i", path, "-g", "{}@[0,1,2]"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["status"] == "exact-finite"
        assert rec["count"] == 1

    @pytest.mark.parametrize("element", ["{}@0", "{0:a}@1"])
    def test_budget_of_one_counts_one(self, tmp_path, capsys, element):
        # the start alone fills a budget of 1, even in a singleton class
        path = write_instance(tmp_path, "f2-wr-z2")
        code = main(["class", "--json", "-i", path, "-g", element, "--max-size", "1"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert (rec["status"], rec["count"], rec["max_size"]) == ("at-least", 1, 1)

    @pytest.mark.parametrize("flag", ["--radius", "--max-size"])
    def test_zero_budget_flag_rejected(self, tmp_path, capsys, flag):
        # a zero flag must not fall back to the default budget
        path = write_instance(tmp_path, "lamplighter")
        code = main(["class", "--json", "-i", path, "-g", "{0:1}@0", flag, "0"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [precondition]: ")


class TestVerifyCommand:
    def test_finite_instance_pass(self, tmp_path, capsys):
        path = write_instance(tmp_path, "z2-wr-s3")
        code = main(["verify", "--json", "-i", path, "--seed", "42"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["result"] == "PASS"
        assert any("size 7" in line for line in rec["checks"])

    def test_yes_instance_pass(self, tmp_path, capsys):
        path = write_instance(tmp_path, "lamplighter")
        code = main([
            "verify", "--json", "-i", path,
            "--seed", "1", "--elements", "2", "--prefix", "30", "--oracle-target", "50",
        ])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["result"] == "PASS"
        assert sum("oracle-growth" in line for line in rec["checks"]) == 2

    def test_translation_escalates_to_radius_32(self, tmp_path, capsys):
        # seed 42 samples {}@-15 second; a translation has only 129
        # conjugates at radius 8, so the oracle budget escalates once
        path = write_instance(tmp_path, "lamplighter")
        code = main(["verify", "--json", "-i", path, "--seed", "42", "--elements", "2"])
        assert code == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert "on {}@-15;" in checks[2]
        assert checks[3].startswith("PASS oracle-growth[1]: ")
        assert checks[3].endswith("distinct conjugates within radius 32")

    @pytest.mark.parametrize(
        "flag, value", [("--elements", "0"), ("--elements", "-3"),
                        ("--oracle-target", "0"), ("--oracle-target", "-5")],
    )
    def test_no_pass_without_evidence(self, tmp_path, capsys, flag, value):
        path = write_instance(tmp_path, "lamplighter")
        assert main(["verify", "--json", "-i", path, flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [precondition]: ")

    def test_icc_multi_orbit_seed(self, tmp_path, capsys):
        # the 4th and 5th elements drawn with this seed have their only
        # value on the int-mod part; with zeta_d on the regular part alone,
        # the oracle closed their classes at 3 conjugates and failed
        path = write_instance(tmp_path, "mixed-union-icc-base")
        assert main(["verify", "--json", "-i", path, "--seed", "1945598122"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["result"] == "PASS" and len(rec["checks"]) == 10
        assert "on {(1; 0):a^-2*b^-1*a*b^-1}@0;" in rec["checks"][6]
        assert rec["checks"][7] == "PASS oracle-growth[3]: 201 distinct conjugates within radius 8"

    def test_deterministic_for_seed(self, tmp_path, capsys):
        path = write_instance(tmp_path, "mixed-union")
        main(["verify", "--json", "-i", path, "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--json", "-i", path, "--seed", "7"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "text, size",
        [
            ("{D: cyclic 2; Q: integers; omega: union(regular, int-mod 25)}", 2**25 - 1),
            ("{D: cyclic 2; Q: cyclic 20; omega: regular}", 2**20 - 1),
        ],
    )
    def test_finite_orbit_over_listing_cap_verifies(self, tmp_path, capsys, text, size):
        # more members than `wricc witness` lists: checked by the premises
        path = write_instance(tmp_path, "big-orbit", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[0] == f"PASS finite-certificate: size {size}; ok"
        assert checks[1].startswith("PASS oracle-containment: oracle exact-finite")

    @pytest.mark.parametrize("n, size", [(10, 45), (16, 120)])
    def test_transposition_class_closes_past_eight_rounds(self, tmp_path, capsys, n, size):
        # the class of a transposition takes 11 (n = 10) or 18 (n = 16)
        # rounds to close; condition (i) and the containment check run to
        # closure
        text = f"{{D: cyclic 2; Q: symmetric {n}; omega: trivial 1}}"
        path = write_instance(tmp_path, f"symmetric-{n}", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks == [
            f"PASS finite-certificate: size {size}; ok",
            f"PASS oracle-containment: oracle exact-finite count {size} within certificate",
        ]

    def test_many_orbit_trivial_carrier_verifies(self, tmp_path, capsys):
        # 20001 generators: setting up the closure's moves is linear in
        # them (a list scan made it quadratic, about 15 s)
        text = "{D: cyclic 2; Q: cyclic 3; omega: trivial 20000}"
        path = write_instance(tmp_path, "trivial-20000", text)
        start = time.perf_counter()
        assert main(["verify", "--json", "-i", path]) == EXIT_OK
        assert time.perf_counter() - start < 10
        assert json.loads(capsys.readouterr().out)["result"] == "PASS"

    def test_generating_set_over_the_cap_is_a_budget_error(self, tmp_path, capsys):
        # 10^11 orbits: the generating set is refused before it is listed,
        # while deciding and witnessing need no generators
        text = "{D: cyclic 2; Q: cyclic 3; omega: trivial 99999999999}"
        path = write_instance(tmp_path, "trivial-huge", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [certificate-budget]: wreath(cyclic(2); cyclic(3); trivial(99999999999)): "
            "the generating set has 100000000000 elements, more than 1000000\n"
        )
        for cmd in ("decide", "witness"):
            assert main([cmd, "--json", "-i", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["size"] == 1

    def test_union_generating_set_over_the_cap_is_a_budget_error(self, tmp_path, capsys):
        # the union counts its 2000001 orbits before it lists them
        text = "{D: cyclic 2; Q: integers; omega: union(regular, trivial 2000000)}"
        path = write_instance(tmp_path, "union-huge", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "the generating set has 2000002 elements, more than 1000000\n"
        )

    @pytest.mark.parametrize("n", [19, 25])
    def test_nested_base_verifies(self, tmp_path, capsys, n):
        # xi is the class of the inner base, n members, where the inner
        # certificate has 2^n - 1: S(O, xi) has (n+1)^2 - 1 members
        text = f"{{D: wreath(cyclic 2; integers; union(regular, int-mod {n})); Q: cyclic 2; omega: regular}}"
        path = write_instance(tmp_path, f"nested-{n}", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["checks"] == [
            f"PASS finite-certificate: size {(n + 1) ** 2 - 1}; ok",
            f"PASS oracle-containment: oracle exact-finite count {2 * n} within certificate",
        ]

    def test_transposition_class_witness(self, tmp_path, capsys):
        text = "{D: cyclic 2; Q: symmetric 10; omega: trivial 1}"
        path = write_instance(tmp_path, "symmetric-10", text)
        assert main(["witness", "--json", "-i", path]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["size"] == 45
        assert rec["size_formula"] == "|q0^Q| = 45"

    def test_containment_class_closes_in_many_rounds(self, tmp_path, capsys):
        # the base's class has 20000 members and needs 10000 rounds
        text = "{D: cyclic 2; Q: cyclic 20000; omega: regular}"
        path = write_instance(tmp_path, "cyclic-20000", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[1] == (
            "PASS oracle-containment: oracle exact-finite count 20000 within certificate"
        )

    def test_containment_class_over_budget_is_a_budget_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the base has 2000 conjugates, one per point of its orbit, more
        # than the budget of 1000 but not than the 2^2000 - 1 members: no
        # PASS and no FAIL, refused before the oracle starts, and the size
        # is never printed
        monkeypatch.setattr(wricc.verify, "_CONTAINMENT_BUDGET", 1000)
        text = "{D: cyclic 2; Q: cyclic 2000; omega: regular}"
        path = write_instance(tmp_path, "cyclic-2000", text)
        assert main(["verify", "--json", "-i", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [certificate-budget]: oracle-containment: the class of the base "
            "has more than 1000 conjugates, the oracle's budget\n"
        )

    def test_containment_oracle_past_its_budget_is_a_budget_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # an orbit of 3 points within the budget of 8, but the base has 9
        # conjugates and the set 63 members: the oracle gives up
        monkeypatch.setattr(wricc.verify, "_CONTAINMENT_BUDGET", 8)
        path = write_instance(tmp_path, "s3-wr-s3")
        assert main(["verify", "--json", "-i", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [certificate-budget]: oracle-containment: the class of the base "
            "has more than 8 conjugates, the oracle's budget\n"
        )

    def test_closed_class_outside_the_set_fails(self, tmp_path, capsys, monkeypatch):
        # the 63 maps but one of the 9 conjugates of the base: the class
        # closes, with that conjugate outside the set
        def punctured(G, v, g=None):
            cert = witness(G, v)
            dropped = G.parse_element("{0:[1,0,2]}@[0,1,2]")
            assert dropped != cert.base
            return FiniteClassCertificate(
                cert.base, frozenset(cert.elements) - {dropped}, cert.provenance, ""
            )

        monkeypatch.setattr(wricc.verify, "witness", punctured)
        path = write_instance(tmp_path, "s3-wr-s3")
        assert main(["verify", "--json", "-i", path]) == EXIT_FAIL
        rec = json.loads(capsys.readouterr().out)
        assert rec["result"] == "FAIL"
        assert rec["checks"][1] == (
            "FAIL oracle-containment: oracle exact-finite count 9 within certificate"
        )


def test_decide_all_bundled_instances(tmp_path, capsys):
    for name, answer, *_ in CORPUS + EXTRA:
        path = write_instance(tmp_path, name)
        assert main(["decide", "--json", "-i", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["answer"] == answer


def run_wricc(*argv):
    """`python -m wricc.cli` in a fresh interpreter that imports this
    checkout's `wricc`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "wricc.cli", *argv], capture_output=True, text=True, env=env
    )


# argparse exits with 2 on a usage error, which is Unknown for `wricc`
@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify"], "the following arguments are required: -i/--instance"),
        (["verify", "-i", "lamplighter.wri", "--elements", "x"], "argument --elements: invalid int value: 'x'"),
        ([], "the following arguments are required: cmd"),
        (["frobnicate"], "argument cmd: invalid choice: 'frobnicate'"),
    ],
    ids=["missing-instance", "non-integer-flag", "missing-command", "unknown-command"],
)
def test_usage_error_exits_3(argv, message):
    done = run_wricc(*argv)
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr.startswith("usage: wricc")
    assert f"error: {message}" in done.stderr
    assert "Traceback" not in done.stderr


def test_help_exits_0():
    done = run_wricc("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: wricc") and done.stderr == ""


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    # each call that leaves a flag out follows one that gave it
    lamp = write_instance(tmp_path, "lamplighter")
    sequence = [
        ["verify", "--json", "-i", lamp, "--seed", "7", "--elements", "2"],
        ["verify", "--json", "-i", lamp],
        ["verify", "--json", "-i", lamp, "--seed", "9"],
        ["verify", "--json", "-i", lamp, "--elements", "2"],
        ["witness", "--json", "-i", lamp, "-g", "{0:1}@5"],
        ["witness", "--json", "-i", lamp],
        ["class", "--json", "-i", lamp, "-g", "{0:1}@0", "--radius", "3", "--max-size", "50"],
        ["class", "--json", "-i", lamp, "-g", "{0:1}@0"],
        ["decide", "--json", "-i", lamp],
        ["verify", "--json", "-i", lamp, "--elements", "x"],
        ["decide", "--json", "-i", lamp],
    ]
    in_sequence = [outcome(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(outcome(argv, capsys))
    assert in_sequence == fresh

    records = [json.loads(out) if out else None for _, out, _ in in_sequence]
    assert [r["seed"] for r in records[:4]] == [7, 0, 9, 0]
    assert [len(r["checks"]) for r in records[:4]] == [4, 10, 10, 4]
    G = load_instance("lamplighter").group
    assert records[4]["base"] == "{0:1}@5"
    assert records[5]["base"] == G.format_element(G.first_nontrivial())
    assert [(r["radius"], r["max_size"]) for r in records[6:8]] == [(3, 50), (8, 10000)]
    code, out, err = in_sequence[9]
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: wricc verify")
    assert in_sequence[8] == in_sequence[10] and in_sequence[8][0] == EXIT_OK


def test_second_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "lamplighter")
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    build_parser.cache_clear()
    assert main(["decide", "-i", path]) == EXIT_OK
    assert len(built) == 5  # the parser and one subparser per command
    built.clear()
    assert main(["decide", "-i", path]) == EXIT_OK
    assert built == []


@pytest.mark.parametrize("command", ["decide", "witness", "verify"])
def test_unknown_verdict_exits_2(capsys, monkeypatch, command):
    # no parsed instance decides Unknown, so the carrier is a fake one
    # whose kernel and orbit rules are undetermined
    Z = IntegersGroup()
    G = WreathProduct(CyclicGroup(2), Z, OpaqueQSet(Z))
    spec = InstanceSpec(G, "cyclic 2", "integers", "opaque")
    monkeypatch.setattr(cli, "_load", lambda path: spec)
    assert main([command, "--json", "-i", "opaque.wri"]) == EXIT_UNKNOWN
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = {
        "command": command,
        "instance_hash": spec.instance_hash(),
        "answer": "unknown",
        "cond_i": "unknown",
        "cond_ii": "no",
        "cond_iii": "unknown",
        "reason": decide_icc(G).reason,
        "corollary_used": False,
    }
    if command == "decide":
        expected["group"] = "wreath(cyclic(2); integers; opaque)"
    assert json.loads(captured.out) == expected
