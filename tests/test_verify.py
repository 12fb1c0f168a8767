"""`verify_instance`: the checks each verdict gets, as a report, and the
budgets it refuses whatever the verdict."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wricc.verify
from wricc.cli import EXIT_USAGE, main
from wricc.decision import decide_icc
from wricc.errors import PreconditionError
from wricc.groups import CyclicGroup, IntegersGroup
from wricc.tri import Tri
from wricc.verify import VerifyReport, verify_instance
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


BAD_BUDGETS = [
    ({"elements": 0}, "verify: --elements must be at least 1"),
    ({"prefix": 1}, "N must be at least 2"),
    ({"oracle_target": 0}, "class_lower_bound: target must be at least 1"),
]


@pytest.mark.parametrize("name", ["z2-wr-s3", "lamplighter", "unknown"])
@pytest.mark.parametrize("budget, message", BAD_BUDGETS)
def test_bad_budget_refused_on_every_verdict(name, budget, message):
    G = unknown_group() if name == "unknown" else load_instance(name).group
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        verify_instance(G, seed=0, **budget)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--elements", "0"], "verify: --elements must be at least 1"),
        (["verify", "--prefix", "1"], "N must be at least 2"),
        (["verify", "--oracle-target", "0"], "class_lower_bound: target must be at least 1"),
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
# orbit used to raise MemoryError with a traceback (exit 1)
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
for path in sys.argv[1:]:
    for command in ("witness", "verify"):
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "-i", path])
        except BaseException:
            code, err = None, io.StringIO(traceback.format_exc())
        results.append([command, path, code, err.getvalue(), time.perf_counter() - t0])
print(json.dumps(results))
"""


def test_huge_finite_orbits_are_refused_before_they_are_listed(tmp_path):
    paths = []
    for i, text in enumerate(HUGE_ORBITS):
        paths.append(tmp_path / f"huge-{i}.wri")
        paths[-1].write_text(text)
    src = str(Path(wricc.verify.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert len(results) == 2 * len(HUGE_ORBITS)
    for command, path, code, err, seconds in results:
        assert code == EXIT_USAGE, (command, path, err)
        assert seconds < 2, (command, path, seconds)
        assert "Traceback" not in err
        assert err.startswith("error [certificate-budget]: ")
        assert err.endswith(": a finite orbit of more than 1000000 points\n")
