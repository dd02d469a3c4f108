"""What every on-disk artefact shares: canonical JSON and the atomic write.

Byte-stable artefacts (traces, spans, timelines, metrics, reports) all
serialise with :data:`CANONICAL` and land on disk through
:func:`write_atomic`, so a reader never sees a half-written file and a
teardown racing a SIGKILL keeps the artefact's tail.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

#: ``json.dumps`` keywords of the canonical (byte-stable) encoding.
CANONICAL = dict(sort_keys=True, separators=(",", ":"))


def write_atomic(path: Path | str, lines: Iterable[str]) -> Path:
    """Write ``lines`` (newline-terminated here) to ``path``: parents
    created, written to ``*.tmp``, flushed and fsynced, then renamed over
    the target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    return path
