"""Digests of a small pinned pipeline, which ``test_golden.py`` recomputes.

``golden.json`` beside this file holds a sha256 for every output of

    stairdim sweep --walks-per-combo 2 --seed 0
    stairdim train --epochs 5 --split-seed 0
    stairdim evaluate
    stairdim simulate --seed 3
    stairdim process --cubes <walk> --exhaustive-aoa --peak-interp

``dataset.csv`` gets one digest per column, so a change that moves only
some columns shows which. A manifest is digested without its ``versions``
fields, and each command's printed output with the temporary directory written
``<root>``. The numpy version and the machine the digests were taken on are
recorded with them, since float results are byte-stable only on those.

After a change meant to move output bytes, write the file again with

    PYTHONPATH=src python3 tests/golden.py

and say which digests changed and why.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from stairdim import cli

GOLDEN = Path(__file__).with_name("golden.json")
PIPELINE = (
    ("sweep", "sweep --out {run} --walks-per-combo 2 --seed 0"),
    ("train", "train --out {run} --epochs 5 --split-seed 0"),
    ("evaluate", "evaluate --out {run}"),
    ("simulate", "simulate --out {walk} --seed 3"),
    ("process", "process --cubes {walk} --out {walk}/processed --exhaustive-aoa --peak-interp"),
)


def platform_key() -> dict[str, str]:
    """What the digests are valid for: this numpy and this machine."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(key: str, path: Path) -> dict[str, str]:
    if path.name == "dataset.csv":
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        return {
            f"{key}:{name}": _sha256("\n".join(row[j] for row in rows).encode())
            for j, name in enumerate(header)
        }
    if path.name == "manifest.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        for entry in doc.values():
            entry.pop("versions")
        return {key: _sha256(json.dumps(doc, sort_keys=True).encode())}
    return {key: _sha256(path.read_bytes())}


def pipeline_digests(root: Path) -> dict[str, str]:
    """Run ``PIPELINE`` under ``root`` and digest what it printed and wrote."""
    digests = {}
    for name, command in PIPELINE:
        printed = io.StringIO()
        with redirect_stdout(printed):
            code = cli.main([a.format(run=root / "run", walk=root / "walk") for a in command.split()])
        if code != 0:
            raise RuntimeError(f"stairdim {name} exited {code}")
        digests[f"stdout:{name}"] = _sha256(printed.getvalue().replace(str(root), "<root>").encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digests.update(_file_digests(path.relative_to(root).as_posix(), path))
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({**platform_key(), "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
