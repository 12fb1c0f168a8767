"""What `import wricc` loads, and the public surface of its result records."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wricc
from wricc.decision import IccVerdict
from wricc.groups import EXACT_FINITE, ClassReport, IccStatus
from wricc.tri import Tri
from wricc.verify import VerifyReport
from wricc.witness import VerificationResult

from test_oracle import imported_names

SRC = Path(wricc.__file__).resolve().parents[1]

# decide and verify through the library, then print a record's hash:
# only the hash may load hashlib, whose import maps OpenSSL's libcrypto
_CHILD = r"""
import json, sys
import wricc, wricc.cli
from wricc import Tri, decide_icc, parse_instance, verify_instance
with open(sys.argv[1], encoding="utf-8") as fh:
    spec = parse_instance(fh.read())
assert decide_icc(spec.group).answer is Tri.YES
assert verify_instance(spec.group, seed=0).ok
before = "hashlib" in sys.modules
digest = spec.instance_hash()
print(json.dumps([before, digest, "hashlib" in sys.modules]))
"""


def test_hashlib_is_loaded_only_to_hash_an_instance():
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC / "wricc" / "instances_data" / "lamplighter.wri")],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, "ebe001051010", True]


VERDICT = IccVerdict(Tri.YES, Tri.YES, Tri.UNKNOWN, Tri.NO, "icc")
VERDICT_TEXT = (
    "IccVerdict(answer=<Tri.YES: 'yes'>, cond_i=<Tri.YES: 'yes'>, "
    "cond_ii=<Tri.UNKNOWN: 'unknown'>, cond_iii=<Tri.NO: 'no'>, reason='icc', "
    "corollary_used=False)"
)

# record, its fields in order, its defaults, and its repr: the text these
# records printed when they were frozen dataclasses
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
]


@pytest.mark.parametrize(
    "record, fields, defaults, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_result_record_surface(record, fields, defaults, text):
    cls = type(record)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == fields and cls._field_defaults == defaults
    assert repr(record) == text
    assert cls(*record) == record
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


@pytest.mark.parametrize("name", ["groups", "decision", "verify"])
def test_modules_that_hold_records_import_no_dataclasses(name):
    tree = ast.parse((SRC / "wricc" / f"{name}.py").read_text(encoding="utf-8"))
    imports = list(imported_names(tree))
    assert ["typing", "NamedTuple"] in imports
    assert [parts for parts in imports if "dataclasses" in parts] == []
