"""JSON result cache for computed maxima.

One human-inspectable file maps "n,m,mode" keys to result records.  Writes
merge with whatever is on disk and go through a temp-file rename, so
concurrent runs cannot shred the file; exact results are never overwritten.
Each record carries a checksum over its payload; entries failing the check,
or filed under a key other than their own, are dropped on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

from . import __version__

CACHE_ENV = "RINGPOINTS_CACHE"
DEFAULT_CACHE = "./ringpoints-cache.json"


@dataclass
class ResultRecord:
    n: int
    m: int
    mode: str  # "I" | "semi-general" | "general"
    value: int
    exact: bool
    witness: list | None = None
    elapsed_ms: int = 0
    variant: str = "auto"
    version: str = __version__
    checksum: str = field(default="")

    def key(self) -> str:
        return f"{self.n},{self.m},{self.mode}"

    def payload(self) -> dict:
        d = asdict(self)
        d.pop("checksum")
        return d

    def compute_checksum(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def seal(self) -> "ResultRecord":
        self.checksum = self.compute_checksum()
        return self


def cache_path(explicit: str | None = None) -> str:
    return explicit or os.environ.get(CACHE_ENV) or DEFAULT_CACHE


class ResultCache:
    def __init__(self, path: str | None = None):
        self.path = cache_path(path)
        self.records: dict[str, ResultRecord] = {}
        self.corrupt: list[str] = []
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError):
            raw = None
        if not isinstance(raw, dict):
            self.corrupt.append("<file unreadable>")
            return
        for key, entry in raw.items():
            try:
                rec = ResultRecord(**entry)
            except TypeError:
                self.corrupt.append(key)
                continue
            if key != rec.key() or rec.checksum != rec.compute_checksum():  # the checksum omits the key
                self.corrupt.append(key)
                continue
            self.records[key] = rec

    def get(self, n: int, m: int, mode: str) -> ResultRecord | None:
        return self.records.get(f"{n},{m},{mode}")

    def put(self, rec: ResultRecord) -> None:
        rec.seal()
        old = self.records.get(rec.key())
        if old is not None and old.exact and not rec.exact:
            return  # exact results are immutable
        self.records[rec.key()] = rec

    def save(self) -> None:
        merged = ResultCache(self.path)
        for rec in self.records.values():
            merged.put(rec)
        blob = {k: asdict(v) for k, v in sorted(merged.records.items())}
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(blob, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
