import json

import pytest

from wricc import (
    ParseError,
    SymmetricGroup,
    TrivialD,
    UnsupportedQKind,
    WreathProduct,
    parse_instance,
)
from wricc.cli import EXIT_FAIL, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, main

from conftest import instance_text, load_instance


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
        assert spec.group.describe() == load_instance("lamplighter").group.describe()

    def test_comments_and_budgets(self):
        spec = parse_instance(
            "# a comment\nD: free 2\nQ: integers\nomega: regular\nradius: 5\nseed: 9\n"
        )
        assert spec.budgets == {"radius": 5, "seed": 9}

    def test_nested_wreath_base(self):
        spec = parse_instance(
            "D: wreath(cyclic 2; integers; regular)\nQ: integers\nomega: regular\n"
        )
        assert isinstance(spec.group.D, WreathProduct)

    def test_trivial_base_rejected(self):
        with pytest.raises(TrivialD):
            parse_instance("D: cyclic 1\nQ: integers\nomega: regular\n")

    def test_wreath_q_rejected(self):
        with pytest.raises(UnsupportedQKind):
            parse_instance(
                "D: cyclic 2\nQ: wreath(cyclic 2; integers; regular)\nomega: regular\n"
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("D: quaternion 8\nQ: integers\nomega: regular\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("D: cyclic 2\nomega: regular\n")

    def test_symmetric_natural(self):
        spec = parse_instance("D: cyclic 2\nQ: symmetric 3\nomega: natural\n")
        assert isinstance(spec.group.Q, SymmetricGroup)
        assert spec.group.order() == 48

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

    def test_bad_element_literal(self, tmp_path, capsys):
        path = write_instance(tmp_path, "lamplighter")
        assert main(["witness", "-i", path, "-g", "{0:1@"]) == EXIT_USAGE

    @pytest.mark.parametrize("n", [20, 100000])
    def test_finite_orbit_over_budget(self, tmp_path, capsys, n):
        # 2^20 - 1 is just over the cap and is rejected by the exact test;
        # 2^100000 - 1 has more digits than Python converts to a string and
        # is rejected by the logarithm test before it is built
        text = f"{{D: cyclic 2; Q: cyclic {n}; omega: regular}}"
        path = write_instance(tmp_path, "huge-orbit", text)
        assert main(["witness", "-i", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error [certificate-budget]: ")
        assert f"(1+1)^{n} - 1 elements" in captured.err
        assert "Traceback" not in captured.out + captured.err


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
        assert rec["status"] == "exact-finite-under-gens"
        assert rec["count"] == 1

    def test_budgets_from_file(self, tmp_path, capsys):
        text = instance_text("lamplighter") + "radius: 3\nmax-size: 50\n"
        path = write_instance(tmp_path, "lamp-budget", text)
        assert main(["class", "--json", "-i", path, "-g", "{0:1}@0"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["radius"] == 3 and rec["max_size"] == 50


class TestVerifyCommand:
    def test_finite_instance_pass(self, tmp_path, capsys):
        path = write_instance(tmp_path, "z2-wr-s3")
        code = main(["verify", "--json", "-i", path, "--seed", "42", "--samples", "200"])
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

    def test_seed_and_samples_from_file(self, tmp_path, capsys):
        text = instance_text("lamplighter") + "samples: 3\nseed: 7\n"
        path = write_instance(tmp_path, "lamp-seeded", text)
        quick = ["--elements", "1", "--prefix", "10", "--oracle-target", "50"]
        assert main(["verify", "--json", "-i", path, *quick]) == EXIT_OK
        assert '"samples": 3, "seed": 7' in capsys.readouterr().out
        # flags override the file
        argv = ["verify", "--json", "-i", path, "--seed", "0", "--samples", "9", *quick]
        assert main(argv) == EXIT_OK
        assert '"samples": 9, "seed": 0' in capsys.readouterr().out

    def test_deterministic_for_seed(self, tmp_path, capsys):
        path = write_instance(tmp_path, "mixed-union")
        main(["verify", "--json", "-i", path, "--seed", "7"])
        first = capsys.readouterr().out
        main(["verify", "--json", "-i", path, "--seed", "7"])
        assert capsys.readouterr().out == first


def test_decide_all_bundled_instances(tmp_path, capsys):
    from conftest import CORPUS, EXTRA

    for name, answer, *_ in CORPUS + EXTRA:
        path = write_instance(tmp_path, name)
        assert main(["decide", "--json", "-i", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["answer"] == answer


# `wricc verify --json --seed 42` on the four instances whose run is quick,
# recorded before the wreath arithmetic was rewritten: the records must not
# change by a byte.
PINNED_VERIFY_RECORDS = {
    "trivial-omega": (
        '{"answer": "no", "checks": ["PASS finite-certificate: size 1; ok", "PASS oracle-containment: oracle exact-finite-under-gens count 1 within certificate"], "command": "verify", "instance_hash": "3db49deb7ef5", "result": "PASS", "samples": 500, "seed": 42}'
    ),
    "intmod-cond-i": (
        '{"answer": "no", "checks": ["PASS finite-certificate: size 1; ok", "PASS oracle-containment: oracle exact-finite-under-gens count 1 within certificate"], "command": "verify", "instance_hash": "115d3c8701e0", "result": "PASS", "samples": 500, "seed": 42}'
    ),
    "z2-wr-s3": (
        '{"answer": "no", "checks": ["PASS finite-certificate: size 7; ok", "PASS oracle-containment: oracle exact-finite-under-gens count 3 within certificate"], "command": "verify", "instance_hash": "84e95be3335d", "result": "PASS", "samples": 500, "seed": 42}'
    ),
    "mixed-union": (
        '{"answer": "no", "checks": ["PASS finite-certificate: size 7; ok", "PASS oracle-containment: oracle exact-finite-under-gens count 3 within certificate"], "command": "verify", "instance_hash": "bdca7cf4935d", "result": "PASS", "samples": 500, "seed": 42}'
    ),
}


@pytest.mark.parametrize("name", list(PINNED_VERIFY_RECORDS))
def test_verify_record_pinned(tmp_path, capsys, name):
    path = write_instance(tmp_path, name)
    assert main(["verify", "--json", "-i", path, "--seed", "42"]) == EXIT_OK
    assert capsys.readouterr().out == PINNED_VERIFY_RECORDS[name] + "\n"
