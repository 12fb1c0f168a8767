"""`verify_instance`: the checks each verdict gets, as a report, and the
budgets it refuses whatever the verdict."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wricc.verify
from wricc.cli import EXIT_USAGE, main
from wricc.decision import decide_icc
from wricc.errors import CertificateBudget, PreconditionError
from wricc.groups import CyclicGroup, IntegersGroup
from wricc.instances import parse_instance
from wricc.tri import Tri
from wricc.verify import VerifyReport, check_budgets, verify_instance
from wricc.witness import FiniteClassCertificate, VerificationResult, witness
from wricc.wreath import WreathProduct

from conftest import OpaqueQSet, instance_text, load_instance


def unknown_group():
    """No parsed instance decides Unknown, so the carrier is a fake one
    whose kernel and orbit rules are undetermined."""
    Z = IntegersGroup()
    return WreathProduct(CyclicGroup(2), Z, OpaqueQSet(Z))


def test_report_on_a_no_verdict():
    G = load_instance("z2-wr-s3").group
    report = verify_instance(G, seed=42)
    assert report == VerifyReport(
        decide_icc(G),
        42,
        {
            "finite-certificate": VerificationResult(True, "size 7; ok"),
            "oracle-containment": VerificationResult(
                True, "oracle exact-finite count 3 within certificate"
            ),
        },
    )
    assert report.ok


def test_report_on_a_yes_verdict():
    # the elements are drawn from random.Random(seed), one per family
    G = load_instance("lamplighter").group
    report = verify_instance(G, seed=42, elements=2)
    rng = random.Random(42)
    drawn = [G.format_element(G.random_nontrivial_element(rng)) for _ in range(2)]
    assert drawn == ["{-13:1, -5:1}@-18", "{}@-15"]
    assert report.verdict.answer is Tri.YES and report.seed == 42
    assert report.checks == {
        "infinite-family[0]": VerificationResult(True, f"lambda-translation on {drawn[0]}; ok"),
        "oracle-growth[0]": VerificationResult(True, "201 distinct conjugates within radius 8"),
        "infinite-family[1]": VerificationResult(True, f"lambda-translation on {drawn[1]}; ok"),
        "oracle-growth[1]": VerificationResult(True, "201 distinct conjugates within radius 32"),
    }
    assert report.ok


def test_report_on_an_unknown_verdict():
    # no check runs, so the report cannot PASS
    G = unknown_group()
    report = verify_instance(G, seed=3)
    assert report == VerifyReport(decide_icc(G), 3, {})
    assert report.verdict.answer is Tri.UNKNOWN and not report.ok


def test_a_failing_check_fails_the_report(monkeypatch):
    # a 4-member set around a base with 9 conjugates: the oracle stops at
    # the fifth, which proves the class is not inside, and no budget error
    # is raised
    def shrunk(G, v, g=None):
        cert = witness(G, v)
        members = sorted(cert.elements, key=G.sort_key)[:3]
        return FiniteClassCertificate(
            cert.base, frozenset([cert.base, *members]), cert.provenance, ""
        )

    monkeypatch.setattr(wricc.verify, "witness", shrunk)
    report = verify_instance(load_instance("s3-wr-s3").group, seed=0)
    assert report.checks["oracle-containment"] == VerificationResult(
        False, "oracle at-least count 5 within certificate"
    )
    assert not report.ok


NATURAL_9 = "{D: cyclic 2; Q: symmetric 9; omega: natural}"


def _spy_on_the_oracle(monkeypatch):
    calls = []
    enumerate_class = wricc.verify.enumerate_class
    monkeypatch.setattr(
        wricc.verify,
        "enumerate_class",
        lambda *args: calls.append(args) or enumerate_class(*args),
    )
    return calls


def test_an_orbit_past_the_containment_budget_is_refused_before_the_oracle(
    tmp_path, capsys, monkeypatch
):
    # the base's class has one member per point of its orbit of 9, so a
    # budget of 8 cannot be met and no conjugate is built
    monkeypatch.setattr(wricc.verify, "_CONTAINMENT_BUDGET", 8)
    calls = _spy_on_the_oracle(monkeypatch)
    path = tmp_path / "natural-9.wri"
    path.write_text(NATURAL_9)
    assert main(["verify", "-i", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "error [certificate-budget]: oracle-containment: the class of the base has "
        "more than 8 conjugates, the oracle's budget\n"
    )
    assert calls == []


def test_an_orbit_within_the_containment_budget_runs_the_oracle(monkeypatch):
    monkeypatch.setattr(wricc.verify, "_CONTAINMENT_BUDGET", 9)
    calls = _spy_on_the_oracle(monkeypatch)
    report = verify_instance(parse_instance(NATURAL_9).group, seed=0)
    assert report.checks["oracle-containment"] == VerificationResult(
        True, "oracle exact-finite count 9 within certificate"
    )
    assert len(calls) == 1 and report.ok


def test_growth_fails_on_a_class_that_closes_at_the_target(monkeypatch):
    # a Yes verdict forced on z2-wr-s3 meets its base, whose class closes
    # at 3 members: with a target of 3 the count reaches the target, but
    # a closed class is finite, so the growth check fails
    G = load_instance("z2-wr-s3").group
    v = decide_icc(G)
    base = witness(G, v).base
    monkeypatch.setattr(wricc.verify, "decide_icc", lambda G: v._replace(answer=Tri.YES))
    family = SimpleNamespace(family_kind="forced")
    monkeypatch.setattr(wricc.verify, "witness", lambda G, v, g: family)
    passed = VerificationResult(True, "ok")
    monkeypatch.setattr(wricc.verify, "verify_infinite_certificate", lambda G, fam, N: passed)
    monkeypatch.setattr(G, "random_nontrivial_element", lambda rng: base)
    report = verify_instance(G, seed=0, elements=1, oracle_target=3)
    assert report.checks["oracle-growth[0]"] == VerificationResult(
        False, "3 distinct conjugates within radius 8"
    )
    assert not report.ok


BAD_BUDGETS = [
    ({"elements": 0}, "verify: --elements must be at least 1"),
    ({"prefix": 1}, "verify: --prefix must be at least 2"),
    ({"oracle_target": 0}, "verify: --oracle-target must be at least 1"),
]


@pytest.mark.parametrize("name", ["z2-wr-s3", "lamplighter", "unknown"])
@pytest.mark.parametrize("budget, message", BAD_BUDGETS)
def test_bad_budget_refused_on_every_verdict(name, budget, message):
    G = unknown_group() if name == "unknown" else load_instance(name).group
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        verify_instance(G, seed=0, **budget)


# a number of elements, a prefix or a target past the listing cap is
# refused before G is decided, so before any member or conjugate is built
CAP = 1_000_000
PREFIX_PAST_CAP = "a certificate prefix of more than 1000000 members"
TARGET_PAST_CAP = "class_lower_bound: target of more than 1000000 conjugates"
ELEMENTS_PAST_CAP = "verify: --elements of more than 1000000"
MAX_SIZE_PAST_CAP = "enumerate_class: max_size of more than 1000000 conjugates"


@pytest.mark.parametrize("name", ["z2-wr-s3", "lamplighter", "unknown"])
@pytest.mark.parametrize(
    "budget, message",
    [
        ({"elements": CAP + 1}, ELEMENTS_PAST_CAP),
        ({"prefix": CAP + 1}, PREFIX_PAST_CAP),
        ({"oracle_target": CAP + 1}, TARGET_PAST_CAP),
    ],
)
def test_budget_past_the_cap_refused_on_every_verdict(name, budget, message):
    G = unknown_group() if name == "unknown" else load_instance(name).group
    with pytest.raises(CertificateBudget, match=f"^{message}$"):
        verify_instance(G, seed=0, **budget)


def test_budgets_at_the_cap_are_accepted():
    check_budgets(CAP, CAP, CAP)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "--prefix", str(CAP + 1)], PREFIX_PAST_CAP),
        (["verify", "--prefix", str(CAP + 1)], PREFIX_PAST_CAP),
        (["verify", "--oracle-target", str(CAP + 1)], TARGET_PAST_CAP),
        (["verify", "--elements", str(CAP + 1)], ELEMENTS_PAST_CAP),
    ],
)
def test_budget_flag_past_the_cap_exits_3_before_the_file_is_read(tmp_path, capsys, argv, message):
    assert main([*argv, "-i", str(tmp_path / "missing.wri")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error [certificate-budget]: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--elements", "0"], "verify: --elements must be at least 1"),
        (["verify", "--prefix", "1"], "verify: --prefix must be at least 2"),
        (["verify", "--oracle-target", "0"], "verify: --oracle-target must be at least 1"),
        (["witness", "--prefix", "0"], "a certificate prefix needs at least 1 member"),
    ],
)
@pytest.mark.parametrize("name", ["z2-wr-s3", "lamplighter", None])
def test_bad_budget_flag_exits_3_before_the_file_is_read(tmp_path, capsys, argv, message, name):
    # the message a Yes verdict gave; a No verdict used to ignore the flag
    # and exit 0, and no file is read, so a missing one is not reported
    path = tmp_path / "missing.wri"
    if name is not None:
        path = tmp_path / f"{name}.wri"
        path.write_text(instance_text(name))
    assert main([*argv, "-i", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error [precondition]: {message}\n")


# run in a child process under a 1.5 GB address-space limit: listing either
# orbit used to raise MemoryError with a traceback (exit 1), and so did a
# prefix of 10^9 members, an oracle target of 10^8 conjugates, a class
# budget of 10^9 conjugates and 10^9 drawn elements
HUGE_ORBITS = [
    "{D: cyclic 2; Q: cyclic 1000000000000; omega: regular}",
    "{D: cyclic 2; Q: integers; omega: union(regular, int-mod 1000000000000)}",
    # |Q| = 900000! is compared with the cap without being built
    "{D: cyclic 2; Q: symmetric 900000; omega: regular}",
]
_CHILD = r"""
import contextlib, io, json, resource, sys, time, traceback
resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))
from wricc.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException:
        code, err = None, io.StringIO(traceback.format_exc())
    results.append([argv, code, err.getvalue(), time.perf_counter() - t0])
print(json.dumps(results))
"""


def _run_limited(argvs):
    """[argv, exit code, stderr, seconds] of each `main(argv)`, run in one
    child process under the address-space limit."""
    src = str(Path(wricc.verify.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert len(results) == len(argvs)
    for argv, code, err, seconds in results:
        assert code == EXIT_USAGE, (argv, err)
        assert seconds < 2, (argv, seconds)
        assert "Traceback" not in err
        assert err.startswith("error [certificate-budget]: ")
    return results


def test_huge_finite_orbits_are_refused_before_they_are_listed(tmp_path):
    argvs = []
    for i, text in enumerate(HUGE_ORBITS):
        path = tmp_path / f"huge-{i}.wri"
        path.write_text(text)
        argvs += [[command, "-i", str(path)] for command in ("witness", "verify")]
    for argv, code, err, seconds in _run_limited(argvs):
        assert err.endswith(": a finite orbit of more than 1000000 points\n")


def test_a_natural_orbit_past_the_containment_budget_exits_3(tmp_path):
    # the 900000 points are listed, but their 2^900000 - 1 maps are not,
    # and the oracle, which used to run out of memory conjugating the
    # base's 900000 conjugates, is refused before it starts; `witness`
    # exits 0 on this input, printing 21 elements of 900000 points each
    # in about 5 s (CI runs it under the same memory limit)
    path = tmp_path / "natural-900000.wri"
    path.write_text("{D: cyclic 2; Q: symmetric 900000; omega: natural}")
    [(argv, code, err, seconds)] = _run_limited([["verify", "-i", str(path)]])
    assert err == (
        "error [certificate-budget]: oracle-containment: the class of the base has "
        "more than 131072 conjugates, the oracle's budget\n"
    )


def test_huge_budgets_are_refused_before_anything_is_built():
    data = Path(wricc.verify.__file__).parent / "instances_data"
    lamplighter, f2_wr_z2 = str(data / "lamplighter.wri"), str(data / "f2-wr-z2.wri")
    argvs = [
        ["witness", "-i", lamplighter, "--prefix", str(10**9)],
        ["verify", "-i", lamplighter, "--prefix", str(10**9)],
        ["verify", "-i", f2_wr_z2, "--elements", "1", "--oracle-target", str(10**8)],
        ["class", "-g", "{0:1}@1", "--radius", "100000", "-i", lamplighter, "--max-size", str(10**9)],
        ["verify", "-i", lamplighter, "--elements", str(10**9)],
    ]
    messages = [PREFIX_PAST_CAP, PREFIX_PAST_CAP, TARGET_PAST_CAP, MAX_SIZE_PAST_CAP, ELEMENTS_PAST_CAP]
    for (argv, code, err, seconds), message in zip(_run_limited(argvs), messages):
        assert err == f"error [certificate-budget]: {message}\n"
