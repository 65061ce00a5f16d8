"""Correctness oracle: the expected result records of every job.

The expected records of every job at the default seed were generated
once on ``cloop``, cross-checked record by record against ``vectorized``
(which the repository's identity suite gates against ``reference``), and
committed under ``expected/`` (``run.py --regen-expected``).  A record is
stored as the SHA-256 of its canonical JSON, so a comparison is exact and
the files stay small.  A key the committed file lacks (a non-default
``--seed`` draws other ``mixes`` pairs) is computed after the timed phase
by an untimed ``vectorized`` pass.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def digest(canonical_record: str) -> str:
    return hashlib.sha256(canonical_record.encode()).hexdigest()


def load(workload: str) -> dict[str, str]:
    """Committed ``key -> record digest`` for ``workload`` (empty if none)."""
    try:
        return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())["records"]
    except FileNotFoundError:
        return {}


def save(workload: str, records: dict[str, str], note: str) -> Path:
    path = EXPECTED_DIR / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "note": note, "records": dict(sorted(records.items()))}
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def set_digest(records: dict[str, str]) -> str:
    """One digest over a ``key -> record digest`` map (provenance)."""
    blob = json.dumps(sorted(records.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
