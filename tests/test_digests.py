"""The reports' bytes are pinned by committed sha256 digests.

``record_digests.py`` builds every pinned output and re-records the table,
``digests.json``, next to the Python and numpy versions it was recorded
with.  The comparison runs on every version: a digest that moves with numpy
is a finding, not a reason to skip.
"""

import json

import record_digests


def test_reports_match_the_recorded_digests(tmp_path):
    recorded = json.loads(record_digests.TABLE.read_text(encoding="utf-8"))
    got = record_digests.digests(tmp_path)
    moved = sorted(
        name for name in recorded["digests"].keys() | got.keys()
        if recorded["digests"].get(name) != got.get(name)
    )
    assert not moved, (
        f"digests moved: {moved}; recorded with Python {recorded['python']} and "
        f"numpy {recorded['numpy']}, run with {record_digests.versions()}"
    )
