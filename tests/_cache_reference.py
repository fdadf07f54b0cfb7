"""Frozen copy of the replay cache before its per-call costs were cut.

Kept only as the oracle for ``test_cache_differential.py``: this version
builds a new JSON encoder for every digest, probes each entry with ``stat``
before a text-mode read, and writes pretty-printed entries through a fixed
``<key>.tmp`` staging name. Its keys and the dicts its ``get`` returns are
the behaviour the rework must reproduce, and the entries its ``put`` wrote
must still replay. Do not edit it to follow changes in
``assertforge.toolchain``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path


def request_digest(payload: dict) -> str:
    """Stable content key for one adapter request."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class ReplayCache:
    """Digest-keyed store of adapter outcomes, one JSON file per request.

    Safe for concurrent readers; writes are serialized and atomic.
    """

    def __init__(self, directory: str | Path, mode: str = "replay"):
        if mode not in ("replay", "record"):
            raise ValueError(f"unknown cache mode: {mode!r}")
        self.dir = Path(directory)
        self.mode = mode
        self._write_lock = threading.Lock()
        if mode == "record":
            self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored entry, or None when there is none. An entry that is not
        valid JSON raises ValueError."""
        p = self._path(key)
        if not p.is_file():
            return None
        return json.loads(p.read_text(encoding="utf-8"))

    def put(self, key: str, request: dict, response: dict) -> None:
        payload = json.dumps(
            {"request": request, "response": response}, indent=2, sort_keys=True
        )
        with self._write_lock:
            tmp = self._path(key).with_suffix(".tmp")
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self._path(key))
