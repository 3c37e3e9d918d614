"""Byte identity: the pinned pipeline of ``golden.py`` writes what ``golden.json`` records."""

import json

import pytest

from golden import GOLDEN, pipeline_digests, platform_key


def test_pinned_pipeline_writes_the_recorded_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = platform_key()
    recorded = {k: golden[k] for k in here}
    if recorded != here:
        # another numpy may round floats otherwise; a mismatch there means nothing
        pytest.skip(
            f"golden.json was taken on numpy {recorded['numpy']} ({recorded['machine']}), "
            f"this is numpy {here['numpy']} ({here['machine']}): "
            "rewrite it with `PYTHONPATH=src python3 tests/golden.py` on the parent commit to compare"
        )
    got, expected = pipeline_digests(tmp_path), golden["digests"]
    changed = sorted(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
    assert not changed, (
        f"output bytes differ from golden.json in {changed}; if that is meant, rewrite it with "
        "`PYTHONPATH=src python3 tests/golden.py` and say which digests changed and why"
    )
