"""Every pinned output in `tests/records/` is reproduced byte for byte;
`pinned.py` says what they are and regenerates them."""

import pytest

from pinned import RECORDS, RECORDS_DIR, render


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.filename[: -len(".txt")])
def test_record_unchanged(record, tmp_path):
    path = RECORDS_DIR / record.filename
    assert path.exists(), f"{path.name} is missing: run tests/pinned.py"
    assert render(record, tmp_path) == path.read_bytes().decode()


def test_records_are_exactly_the_pinned_commands():
    # a file no record names would never be compared
    assert sorted(p.name for p in RECORDS_DIR.iterdir()) == sorted(r.filename for r in RECORDS)
    assert len(RECORDS) == 8 * 8 + 6 + 5 + 15 * 3
