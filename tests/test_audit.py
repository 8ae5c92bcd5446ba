"""Audit chain tests: linkage, tamper detection, queries, durability.

The tamper oracle re-derives every hash from the documented canonical
encoding (JSON, sorted keys, compact separators, entry_hash excluded)
without going through the package's verifier internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

import pytest

from hrbac.audit import (
    GENESIS_HASH,
    AuditAction,
    AuditEntry,
    AuditLog,
    verify_chain,
    verify_file,
)
from hrbac.errors import FormatError, IoError, ValidationError


def fill(log: AuditLog, n: int) -> None:
    actions = list(AuditAction)
    for i in range(n):
        log.append(
            ts=1_700_000_000.0 + i,
            actor=f"user{i % 5}",
            action=actions[i % len(actions)],
            decision="Allow" if i % 3 else "Deny",
            reason="Granted" if i % 3 else "NoPermission",
            resource=f"res{i % 7}",
        )


def recompute_hash_from_line(line: str) -> str:
    """Independent re-derivation of entry_hash from the documented encoding."""
    fields = json.loads(line)
    fields.pop("entry_hash")
    raw = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


class TestAppend:
    def test_genesis_entry(self):
        log = AuditLog()
        entry = log.append(
            ts=0.0, actor="a", action=AuditAction.UPLOAD,
            decision="Allow", reason="Granted",
        )
        assert entry.seq == 1
        assert entry.prev_hash == GENESIS_HASH

    def test_two_appends_link(self):
        log = AuditLog()
        fill(log, 2)
        first, second = list(log)
        assert (first.seq, second.seq) == (1, 2)
        assert second.prev_hash == first.entry_hash
        assert verify_chain(list(log)) == (True, None)

    def test_entry_hash_matches_documented_encoding(self):
        log = AuditLog()
        fill(log, 5)
        for entry in log:
            assert recompute_hash_from_line(entry.to_line()) == entry.entry_hash

    def test_line_bytes_are_fixed(self):
        log = AuditLog()
        first = log.append(
            ts=1700000000.25, actor="ad\u00e9", action=AuditAction.OVERRIDE,
            decision="Allow", reason='why "now"', resource="r-1", override_flag=True,
        )
        second = log.append(
            ts=0.0, actor="a", action=AuditAction.POLICY_CHANGE,
            decision="Deny", reason="Unauthorized",
        )
        assert first.to_line() == (
            '{"action":"Override","actor":"ad\\u00e9","decision":"Allow",'
            '"entry_hash":"ce734d537dcc4a8cfa027c1fa845815cce112da489ceff7c2ecca81f4ac65abf",'
            '"override_flag":true,"prev_hash":"' + GENESIS_HASH + '",'
            '"reason":"why \\"now\\"","resource":"r-1","seq":1,'
            '"ts":"2023-11-14T22:13:20.250000Z"}'
        )
        assert second.to_line() == (
            '{"action":"PolicyChange","actor":"a","decision":"Deny",'
            '"entry_hash":"4c7eee97d301a5d1f4bda0b4476b7e553d82eb18f9cba5892f24bde0a8f13b95",'
            '"override_flag":false,"prev_hash":"' + first.entry_hash + '",'
            '"reason":"Unauthorized","resource":null,"seq":2,'
            '"ts":"1970-01-01T00:00:00.000000Z"}'
        )
        assert AuditEntry.from_line(first.to_line()) == first

    def test_ts_is_rfc3339_utc(self):
        log = AuditLog()
        fill(log, 1)
        entry = next(iter(log))
        assert entry.ts.endswith("Z")
        assert "T" in entry.ts

    def test_override_flag_requires_override_action(self):
        log = AuditLog()
        with pytest.raises(ValidationError):
            log.append(
                ts=0.0, actor="a", action=AuditAction.DOWNLOAD,
                decision="Allow", reason="x", override_flag=True,
            )


class TestChainVerification:
    def test_untampered_100_entries(self):
        log = AuditLog()
        fill(log, 100)
        assert verify_chain(list(log)) == (True, None)

    @pytest.mark.parametrize("field_name", ["reason", "actor", "decision", "prev_hash", "entry_hash", "seq", "ts"])
    def test_single_field_mutation_detected(self, field_name):
        log = AuditLog()
        fill(log, 100)
        entries = list(log)
        position = 50
        original = entries[position - 1]
        if field_name == "seq":
            mutated = dataclasses.replace(original, seq=original.seq + 1)
        elif field_name in ("prev_hash", "entry_hash"):
            flipped = ("f" if getattr(original, field_name)[0] != "f" else "0") + getattr(original, field_name)[1:]
            mutated = dataclasses.replace(original, **{field_name: flipped})
        else:
            mutated = dataclasses.replace(original, **{field_name: getattr(original, field_name) + "x"})
        entries[position - 1] = mutated
        ok, bad = verify_chain(entries)
        assert not ok
        assert bad == position

    def test_deleted_entry_detected(self):
        log = AuditLog()
        fill(log, 100)
        entries = list(log)
        del entries[49]
        ok, bad = verify_chain(entries)
        assert not ok
        assert bad == 50

    def test_random_position_mutations(self):
        rng = random.Random(7)
        for _ in range(20):
            log = AuditLog()
            fill(log, 30)
            entries = list(log)
            position = rng.randint(1, 30)
            victim = entries[position - 1]
            entries[position - 1] = dataclasses.replace(victim, reason=victim.reason + "!")
            ok, bad = verify_chain(entries)
            assert (ok, bad) == (False, position)


class TestQuery:
    def test_filter_by_decision(self):
        log = AuditLog()
        fill(log, 9)  # every third entry is a deny
        denies = log.query(decision="Deny")
        assert len(denies) == 3
        assert [e.decision for e in denies] == ["Deny"] * 3

    def test_empty_log(self):
        assert AuditLog().query() == []

    def test_limit_keeps_most_recent(self):
        log = AuditLog()
        fill(log, 10)
        got = log.query(limit=1)
        assert len(got) == 1
        assert got[0].seq == 10

    def test_filter_by_actor_and_action(self):
        log = AuditLog()
        fill(log, 40)
        for entry in log.query(actor="user1", action=AuditAction.DOWNLOAD):
            assert entry.actor == "user1"
            assert entry.action == "Download"

    def test_results_in_seq_order(self):
        log = AuditLog()
        fill(log, 25)
        seqs = [e.seq for e in log.query(decision="Allow")]
        assert seqs == sorted(seqs)


class TestPersistence:
    def test_reload_from_file(self, tmp_path):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 12)
        log.close()

        reloaded = AuditLog(path)
        assert len(reloaded) == 12
        assert verify_chain(list(reloaded)) == (True, None)
        reloaded.append(
            ts=2.0, actor="x", action=AuditAction.GRANT,
            decision="Allow", reason="Granted",
        )
        assert verify_file(path) == (True, None)

    def test_file_mutation_detected(self, tmp_path):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 20)
        log.close()
        lines = open(path).read().splitlines()
        fields = json.loads(lines[10])
        fields["decision"] = "Allow" if fields["decision"] == "Deny" else "Deny"
        lines[10] = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        open(path, "w").write("\n".join(lines) + "\n")
        ok, bad = verify_file(path)
        assert (ok, bad) == (False, 11)

    def test_creating_the_log_fsyncs_its_directory_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "audit.log")
        synced = []
        real = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            return real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        log = AuditLog(path)
        fill(log, 2)
        log.close()
        fill(AuditLog(path), 1)  # reopened: the name is already durable
        labels = {os.stat(path).st_ino: "log", os.stat(tmp_path).st_ino: "directory"}
        assert [labels[inode] for inode in synced] == ["log", "directory", "log", "log"]

    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_anchor_past_the_end_or_on_another_entry_fails(self, tmp_path, cut):
        """``verify_file(path, anchor)``: the log must hold the entry the
        private document's ``audit_head`` names."""
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 3)
        log.close()
        entries = list(log)
        anchor = {"seq": 3, "entry_hash": entries[2].entry_hash}
        assert verify_file(path, anchor) == (True, None)
        assert verify_file(path, {"seq": 2, "entry_hash": entries[1].entry_hash}) == (True, None)
        lines = open(path).read().splitlines(keepends=True)
        open(path, "w").write("".join(lines[:cut]))
        assert verify_file(path) == (True, None)  # the chain alone still verifies
        assert verify_file(path, anchor) == (False, cut + 1)
        log = AuditLog(path)
        for _ in range(3 - cut):  # the same seqs again, other entries
            log.append(ts=0.0, actor="intruder", action=AuditAction.GRANT,
                       decision="Allow", reason="Granted")
        log.close()
        assert verify_file(path) == (True, None)
        assert verify_file(path, anchor)[0] is False

    def test_malformed_line_raises_format_error(self, tmp_path):
        path = str(tmp_path / "audit.log")
        open(path, "w").write("not json\n")
        with pytest.raises(FormatError):
            verify_file(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"seq"', "7"])
    def test_line_that_is_not_an_object_is_malformed(self, tmp_path, line):
        path = str(tmp_path / "audit.log")
        open(path, "w").write(line + "\n")
        with pytest.raises(FormatError):
            verify_file(path)

    def test_line_missing_a_field_is_malformed(self, tmp_path):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 3)
        log.close()
        lines = open(path).read().splitlines()
        fields = json.loads(lines[1])
        del fields["reason"]
        lines[1] = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            verify_file(path)
        with pytest.raises(FormatError):
            AuditLog(path)

    def test_unreadable_log_raises_ioerror(self, tmp_path):
        with pytest.raises(IoError):
            verify_file(str(tmp_path))  # a directory: open fails

    def test_append_failure_raises_ioerror(self, tmp_path, monkeypatch):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 1)

        def broken_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(IoError):
            log.append(
                ts=5.0, actor="x", action=AuditAction.DOWNLOAD,
                decision="Allow", reason="Granted",
            )


class TestFailedAppendLeavesNoLine:
    """A failed append takes its line back out of the file, so the file
    and the in-memory chain stay the same length and the next append
    does not reuse a sequence number."""

    @staticmethod
    def fail_once(monkeypatch, name):
        real = getattr(os, name)
        calls = []

        def broken(*args):
            if not calls:
                calls.append(args)
                raise OSError("disk gone")
            return real(*args)

        monkeypatch.setattr(os, name, broken)

    @staticmethod
    def line_count(path):
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def append(self, log):
        return log.append(
            ts=5.0, actor="x", action=AuditAction.DOWNLOAD, decision="Allow", reason="Granted"
        )

    def test_fsync_failure_between_appends(self, tmp_path, monkeypatch):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 2)
        self.fail_once(monkeypatch, "fsync")
        with pytest.raises(IoError):
            self.append(log)
        assert self.line_count(path) == len(log) == 2
        assert self.append(log).seq == 3
        assert verify_file(path) == (True, None)
        assert self.line_count(path) == len(log) == 3
        log.close()
        assert len(AuditLog(path)) == 3

    def test_failed_truncate_refuses_later_appends(self, tmp_path, monkeypatch):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 2)
        self.fail_once(monkeypatch, "fsync")
        self.fail_once(monkeypatch, "truncate")
        with pytest.raises(IoError):
            self.append(log)
        size = os.path.getsize(path)
        with pytest.raises(IoError, match="refused"):
            self.append(log)
        assert os.path.getsize(path) == size
        assert len(log) == 2


class TestCounters:
    """The O(1) status counters against a recount of the entries."""

    @staticmethod
    def counts(log: AuditLog) -> tuple[int, int]:
        return log.deny_count, log.override_count

    @staticmethod
    def recount(log: AuditLog) -> tuple[int, int]:
        entries = list(log)
        return (
            sum(1 for e in entries if e.decision == "Deny"),
            sum(1 for e in entries if e.action == "Override" and e.decision == "Allow"),
        )

    def test_counts_equal_recount_after_reload(self, tmp_path):
        path = str(tmp_path / "audit.log")
        log = AuditLog(path)
        fill(log, 40)
        assert self.counts(log) == self.recount(log)
        assert min(self.counts(log)) > 0
        log.close()

        reloaded = AuditLog(path)
        assert self.counts(reloaded) == self.recount(reloaded) == self.counts(log)

    def test_failed_append_leaves_counts(self, tmp_path, monkeypatch):
        log = AuditLog(str(tmp_path / "audit.log"))
        fill(log, 10)
        before = self.counts(log)

        def broken_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        for action, decision in ((AuditAction.DOWNLOAD, "Deny"), (AuditAction.OVERRIDE, "Allow")):
            with pytest.raises(IoError):
                log.append(ts=5.0, actor="x", action=action, decision=decision, reason="r")
        assert len(log) == 10
        assert self.counts(log) == before == self.recount(log)

    def test_recent_is_the_tail_slice(self):
        log = AuditLog()
        fill(log, 15)
        entries = list(log)
        for n in (0, 1, 10, 15, 30):
            assert log.recent(n) == entries[-n:]
