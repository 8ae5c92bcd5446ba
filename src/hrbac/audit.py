"""Append-only, hash-chained audit log.

Canonical encoding, bit-exact: each entry is one line of JSON with keys
sorted and compact separators ("," and ":").  The hashed portion is the
same JSON object *without* the entry_hash key, UTF-8 encoded; entry_hash
is the SHA-256 hex of those bytes.  prev_hash is the previous entry's
entry_hash, or 64 zero hex digits for seq 1.  Timestamps are RFC 3339
UTC with microsecond precision and a "Z" suffix.

Field order inside the hashed object (after key sorting):
action, actor, decision, override_flag, prev_hash, reason, resource,
seq, ts.

An append is durable (flushed and fsynced when file-backed) before the
triggering operation may report success; if the append fails, the
operation must fail (the audit-or-abort contract).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import IO, Iterator, Optional

from .errors import FormatError, IoError, ValidationError
from .stores import fsync_directory

GENESIS_HASH = "0" * 64
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
ALLOW = "Allow"
DENY = "Deny"


class AuditAction(Enum):
    UPLOAD = "Upload"
    DOWNLOAD = "Download"
    OVERRIDE = "Override"
    GRANT = "Grant"
    REVOKE = "Revoke"
    ROTATE = "Rotate"
    POLICY_CHANGE = "PolicyChange"
    AUTH_FAIL = "AuthFail"


def _rfc3339(ts: float) -> str:
    return (
        datetime.fromtimestamp(ts, tz=timezone.utc)
        .isoformat(timespec="microseconds")
        .replace("+00:00", "Z")
    )


@dataclass(frozen=True)
class AuditEntry:
    seq: int
    ts: str
    actor: str
    action: str
    resource: Optional[str]
    decision: str  # ALLOW | DENY
    reason: str
    override_flag: bool
    prev_hash: str
    entry_hash: str

    def _fields(self) -> dict:  # the hashed object: all but entry_hash
        return {
            "seq": self.seq,
            "ts": self.ts,
            "actor": self.actor,
            "action": self.action,
            "resource": self.resource,
            "decision": self.decision,
            "reason": self.reason,
            "override_flag": self.override_flag,
            "prev_hash": self.prev_hash,
        }

    def hashed_payload(self) -> bytes:
        return _CANONICAL.encode(self._fields()).encode("utf-8")

    def to_line(self) -> str:
        return _CANONICAL.encode({**self._fields(), "entry_hash": self.entry_hash})

    @classmethod
    def from_line(cls, line: str) -> "AuditEntry":
        try:
            return cls(*_FIELD_VALUES(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"bad audit line: {exc}") from None


# a line's values in field order
_FIELD_VALUES = operator.itemgetter(*(f.name for f in dataclasses.fields(AuditEntry)))


def _read_entries(path: str) -> Iterator[AuditEntry]:
    """The entries of a log file, in file order; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    yield AuditEntry.from_line(line)
        except UnicodeDecodeError as exc:
            raise FormatError(f"audit log is not UTF-8: {exc}") from None


class AuditLog:
    """Hash-chained log, optionally persisted as newline-delimited records.

    Appends are serialized by the caller together with store mutations;
    queries read a consistent in-memory snapshot.  The deny and
    override-allow counts are kept as entries are loaded and appended,
    so reading them costs O(1).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._entries: list[AuditEntry] = []
        self._fh: Optional[IO[str]] = None
        self._torn = False
        self.deny_count = 0
        self.override_count = 0
        if path is not None and os.path.exists(path):
            for entry in _read_entries(path):
                self._add(entry)

    def _add(self, entry: AuditEntry) -> None:
        self._entries.append(entry)
        if entry.decision == DENY:
            self.deny_count += 1
        elif entry.action == AuditAction.OVERRIDE.value and entry.decision == ALLOW:
            self.override_count += 1

    @property
    def head(self) -> Optional[AuditEntry]:
        return self._entries[-1] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(self._entries)

    def holds(self, anchor: Optional[dict]) -> bool:
        """Whether the log holds the entry ``anchor`` names (see ``missing_anchor``)."""
        return missing_anchor(self._entries, anchor) is None

    def recent(self, last_n: int) -> list[AuditEntry]:
        """``entries[-last_n:]``, as a list slice reads it."""
        return self._entries[-last_n:]

    def append(
        self,
        *,
        ts: float,
        actor: str,
        action: AuditAction,
        decision: str,
        reason: str,
        resource: Optional[str] = None,
        override_flag: bool = False,
    ) -> AuditEntry:
        if override_flag and action is not AuditAction.OVERRIDE:
            raise ValidationError("override_flag requires the Override action")
        prev_hash = self._entries[-1].entry_hash if self._entries else GENESIS_HASH
        entry = AuditEntry(
            seq=len(self._entries) + 1,
            ts=_rfc3339(ts),
            actor=actor,
            action=action.value,
            resource=resource,
            decision=decision,
            reason=reason,
            override_flag=override_flag,
            prev_hash=prev_hash,
            entry_hash="",
        )
        entry = dataclasses.replace(
            entry, entry_hash=hashlib.sha256(entry.hashed_payload()).hexdigest()
        )
        self._write_line(entry.to_line())
        self._add(entry)
        return entry

    def _write_line(self, line: str) -> None:
        if self._path is None:
            return
        if self._torn:
            raise IoError(
                "audit append refused: a failed append left a partial line "
                "that could not be removed"
            )
        offset = None
        try:
            created = False
            if self._fh is None:
                created = not os.path.exists(self._path)
                self._fh = open(self._path, "a", encoding="utf-8")
            offset = os.fstat(self._fh.fileno()).st_size
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            if created:  # the log's name is durable with its first entry
                fsync_directory(os.path.dirname(os.path.abspath(self._path)))
        except OSError as exc:
            self._undo_write(offset)
            raise IoError(f"audit append failed: {exc}") from exc

    def _undo_write(self, offset: Optional[int]) -> None:
        """Drop the handle and cut the file back to ``offset``, so a line
        whose append failed, fully or partly written, is not left behind
        for the next append to chain past.  If the cut fails, later
        appends are refused."""
        if self._fh is not None:
            try:
                self._fh.close()  # may flush what the failed write left buffered
            except OSError:
                pass
            self._fh = None
        if offset is None:
            return
        try:
            os.truncate(self._path, offset)
        except OSError:
            self._torn = True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def query(
        self,
        *,
        actor: Optional[str] = None,
        action: Optional[AuditAction] = None,
        decision: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[AuditEntry]:
        """Matching entries in seq order; ``limit`` keeps the most recent."""
        matched = [
            e
            for e in self._entries
            if (actor is None or e.actor == actor)
            and (action is None or e.action == action.value)
            and (decision is None or e.decision == decision)
        ]
        if limit is not None:
            matched = matched[-limit:]
        return matched


def verify_chain(entries: list[AuditEntry]) -> tuple[bool, Optional[int]]:
    """Recompute the whole chain; returns (ok, first bad seq)."""
    prev_hash = GENESIS_HASH
    for position, entry in enumerate(entries, start=1):
        recomputed = hashlib.sha256(entry.hashed_payload()).hexdigest()
        if entry.seq != position or entry.prev_hash != prev_hash or entry.entry_hash != recomputed:
            return False, position
        prev_hash = entry.entry_hash
    return True, None


def verify_file(path: str, anchor: Optional[dict] = None) -> tuple[bool, Optional[int]]:
    """Verify the chain of the log at ``path``; with an ``anchor`` (the
    private document's ``audit_head``), the log must also hold the entry
    it names, so a log cut back past the last save does not verify."""
    try:
        entries = list(_read_entries(path))
    except OSError as exc:
        raise IoError(f"cannot read audit log: {exc}") from exc
    ok, bad_seq = verify_chain(entries)
    if ok:
        bad_seq = missing_anchor(entries, anchor)
    return bad_seq is None, bad_seq


def missing_anchor(entries: list[AuditEntry], anchor: Optional[dict]) -> Optional[int]:
    """None if ``entries`` hold the entry ``anchor`` (``{"seq",
    "entry_hash"}``, or None) names; else the first seq that differs."""
    if anchor is None:
        return None
    seq = anchor["seq"]
    if seq > len(entries):
        return len(entries) + 1  # the first entry missing
    return None if entries[seq - 1].entry_hash == anchor["entry_hash"] else seq
