"""What `import wricc` loads, and the public surface of its result records."""

import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wricc
from wricc.decision import IccVerdict, decide_icc
from wricc.groups import EXACT_FINITE, ClassReport, IccStatus
from wricc.instances import parse_instance
from wricc.tri import Tri
from wricc.verify import VerifyReport
from wricc.witness import FiniteClassCertificate, VerificationResult, witness
from wricc.wreath import WreathElement

import check_digests
from pinned import CI_INSTANCES, SHIPPED
from test_oracle import imported_names

SRC = Path(wricc.__file__).resolve().parents[1]

# decide and verify through the library, print a record's hash, then run
# two record-printing commands: neither the hash, whose SHA-256 comes from
# the interpreter's own module, nor a record may load hashlib, whose import
# maps OpenSSL's libcrypto, or dataclasses
_CHILD = r"""
import json, sys
import wricc, wricc.cli
from wricc import Tri, decide_icc, parse_instance, verify_instance
path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    spec = parse_instance(fh.read())
assert decide_icc(spec.group).answer is Tri.YES
assert verify_instance(spec.group, seed=0).ok
before = "hashlib" in sys.modules
digest = spec.instance_hash()
assert wricc.cli.main(["verify", "-i", path, "--json"]) == 0
assert wricc.cli.main(["decide", "-i", path, "--json"]) == 0
print(json.dumps([before, digest, "hashlib" in sys.modules, "dataclasses" in sys.modules]))
"""


def test_records_are_printed_without_hashlib_or_dataclasses():
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC / "wricc" / "instances_data" / "lamplighter.wri")],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, "ebe001051010", False, False]


INSTANCES = check_digests.instances()


def test_digest_check_covers_the_shipped_and_ci_instances():
    # read from pinned.py's source, as imported
    assert sorted(INSTANCES) == sorted(SHIPPED + list(CI_INSTANCES))
    assert {name: INSTANCES[name] for name in CI_INSTANCES} == CI_INSTANCES
    assert len(SHIPPED) == 8 and len(CI_INSTANCES) == 15


@pytest.mark.parametrize("name", INSTANCES)
def test_instance_hash_is_the_head_of_its_sha256(name):
    spec = check_digests.spec_of(INSTANCES[name])
    canon = "|".join([spec.d_text.strip(), spec.q_text.strip(), spec.omega_text.strip(), ""])
    assert spec.instance_hash() == hashlib.sha256(canon.encode()).hexdigest()[:12]


def test_hashlib_fallback_gives_the_same_digests():
    # the interpreter's own module serves every digest; with it hidden,
    # hashlib does, and the digests are the same
    runs = []
    for args in ([], ["--hashlib"]):
        done = subprocess.run(
            [sys.executable, str(Path(check_digests.__file__)), *args],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append(json.loads(done.stdout))
    own, fallback = runs
    assert own["served"] in (["_sha256"], ["_sha2"]) and fallback["served"] == ["hashlib"]
    assert own["wrong"] == fallback["wrong"] == []
    assert own["digests"] == fallback["digests"] and len(own["digests"]) == 23
    assert own["digests"]["lamplighter"] == "ebe001051010"


VERDICT = IccVerdict(Tri.YES, Tri.YES, Tri.UNKNOWN, Tri.NO, "icc")
VERDICT_TEXT = (
    "IccVerdict(answer=<Tri.YES: 'yes'>, cond_i=<Tri.YES: 'yes'>, "
    "cond_ii=<Tri.UNKNOWN: 'unknown'>, cond_iii=<Tri.NO: 'no'>, reason='icc', "
    "corollary_used=False)"
)

SPEC = parse_instance("{D: cyclic 2; Q: integers; omega: regular}")
G = SPEC.group
ONE = WreathElement((), 1)

# record, its fields in order, its defaults, and its repr: the text these
# records printed when they were dataclasses
RECORDS = [
    (
        IccStatus(Tri.NO, "declared", "finite group"),
        ("answer", "provenance", "justification"),
        {},
        "IccStatus(answer=<Tri.NO: 'no'>, provenance='declared', justification='finite group')",
    ),
    (
        ClassReport(EXACT_FINITE, ((), 1), 2, 1, "closed"),
        ("status", "elements", "count", "rounds_used", "stopped_by"),
        {},
        "ClassReport(status='exact-finite', elements=((), 1), count=2, rounds_used=1, "
        "stopped_by='closed')",
    ),
    (
        VERDICT,
        ("answer", "cond_i", "cond_ii", "cond_iii", "reason", "corollary_used"),
        {"corollary_used": False},
        VERDICT_TEXT,
    ),
    (
        VerificationResult(True),
        ("ok", "reason", "counterexample"),
        {"reason": "ok", "counterexample": None},
        "VerificationResult(ok=True, reason='ok', counterexample=None)",
    ),
    (
        VerifyReport(VERDICT, 3, {"x": VerificationResult(False, "bad", (1,))}),
        ("verdict", "seed", "checks"),
        {},
        f"VerifyReport(verdict={VERDICT_TEXT}, seed=3, "
        "checks={'x': VerificationResult(ok=False, reason='bad', counterexample=(1,))})",
    ),
    (
        FiniteClassCertificate(ONE, frozenset({ONE}), "condition-i", "|q0^Q| = 1"),
        ("base", "elements", "provenance", "size_formula"),
        {},
        "FiniteClassCertificate(base=WreathElement(phi=(), q=1), "
        "elements=frozenset({WreathElement(phi=(), q=1)}), provenance='condition-i', "
        "size_formula='|q0^Q| = 1')",
    ),
    (
        witness(G, decide_icc(G), ONE),
        ("group", "base", "family_kind", "point", "seed_conjugator"),
        {"point": None, "seed_conjugator": None},
        f"InfiniteFamilyCertificate(group={G!r}, base=WreathElement(phi=(), q=1), "
        "family_kind='lambda-translation', point=None, "
        "seed_conjugator=WreathElement(phi=((0, 1),), q=0))",
    ),
    (
        SPEC,
        ("group", "d_text", "q_text", "omega_text"),
        {},
        f"InstanceSpec(group={G!r}, d_text='cyclic 2', q_text='integers', "
        "omega_text='regular')",
    ),
]


@pytest.mark.parametrize(
    "record, fields, defaults, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_result_record_surface(record, fields, defaults, text):
    cls = type(record)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == fields and cls._field_defaults == defaults
    assert repr(record) == text
    copy = cls(*record)
    assert copy == record and copy is not record
    if cls is not VerifyReport:  # its checks are a dict
        assert hash(copy) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_result_record_truth():
    # a check is true when it passes; a report is ok when a check ran and
    # every check passed
    assert bool(VerificationResult(False)) is False
    assert bool(VerificationResult(True)) is True
    assert VerifyReport(VERDICT, 0, {"a": VerificationResult(True)}).ok is True
    assert VerifyReport(VERDICT, 0, {"a": VerificationResult(False)}).ok is False
    assert VerifyReport(VERDICT, 0, {}).ok is False


MODULES = sorted(path.stem for path in (SRC / "wricc").glob("*.py"))
RECORD_MODULES = {"decision", "groups", "instances", "verify", "witness", "wreath"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_dataclasses(name):
    tree = ast.parse((SRC / "wricc" / f"{name}.py").read_text(encoding="utf-8"))
    imports = list(imported_names(tree))
    assert [parts for parts in imports if "dataclasses" in parts] == []
    assert (["typing", "NamedTuple"] in imports) == (name in RECORD_MODULES)
