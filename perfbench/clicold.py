"""cli-cold: one ``hrbac`` process per operation, run one after another.

Each command imports the program, loads the private document (PEM-loading
every role key) and replays the whole audit log before doing any work,
so these latencies carry the cold-start costs no in-process mix sees.
Commands run sequentially: concurrent CLI processes are not safe on one
home.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

from .corpus import KIB, Home, ResourceM, Spec, payload, provision
from .httpmixed import LAUNCH
from .tracing import merge
from .workloads import Phase, Readers, Workload, count_lines

# one round of the fixed command cycle; a fixed cycle (not a random mix)
# keeps the per-type sample counts of a short run equal across seeds
CYCLE = ("download", "upload", "mutation", "status")
MUTABLE = 6
# a run makes about three uploads: one size keeps its uploaded bytes,
# the base of write_amp, the same from run to run
UPLOAD_BYTES = 16 * KIB


class CliCold(Workload):
    name = "cli-cold"
    # a 25-second run completes 20-28 commands, 5-7 of each type
    tails = {"download": "max", "upload": "max", "mutation": "max"}

    def spec(self) -> Spec:
        return Spec(
            roles=12, end_users=30, no_role_users=3, owners=3,
            resources=20 if self.toy else 100, confidential_share=0.2,
            public_sizes=(KIB, 64 * KIB, 2.0), confidential_sizes=(KIB, 16 * KIB, 1.0),
            active_delegations=4, history_ops=100 if self.toy else 2500,
        )

    def setup(self, path: str, seed: int) -> Home:
        home = provision(path, self.spec(), seed)
        home.close()  # CLI processes append from here on
        return home

    def _command(self, home: Home, kind: str, rng: random.Random, scratch: str):
        """(argv after the global options, check(code, stdout) -> note, audited)."""
        model = home.model
        if kind == "download":
            rid = self.readers.popular(rng)
            out = os.path.join(scratch, "out.bin")
            user = rng.choice(self.readers.allowed[rid])
            digest = model.resources[rid].sha256
            argv = ["user", "download", "--as", user, "--token", model.users[user].token,
                    "--resource", rid, "--out", out]
            return argv, lambda code, _: _code(code, 0) or _file_digest(out, digest), True
        if kind == "upload":
            self.uploads += 1
            rid = f"c{self.uploads}-{rng.getrandbits(32):08x}"
            owner = rng.choice(home.owners)
            confidential = self.uploads % 5 == 0
            size = UPLOAD_BYTES
            data = payload(home.seed, rid, 1, size)
            path = os.path.join(scratch, "upload.bin")
            with open(path, "wb") as fh:
                fh.write(data)
            digest = hashlib.sha256(data).hexdigest()
            grants = set(rng.sample(home.roles, 1 + (rng.random() < 0.3)))
            argv = ["owner", "upload", "--as", owner, "--token", model.users[owner].token,
                    "--resource", rid, "--file", path,
                    "--classification", "Confidential" if confidential else "Public"]
            for role in home.in_rank_order(grants):
                argv += ["--grant", role]

            def check(code, stdout):
                note = _code(code, 0)
                if not note and json.loads(stdout).get("sha256") != digest:
                    note = "upload reply digest differs"
                if not note:
                    model.resources[rid] = ResourceM(owner, grants, digest, size, confidential)
                    self.payload_bytes += size
                return note

            return argv, check, True
        if kind == "mutation":
            rid, role = self.mutable[rng.randrange(len(self.mutable))]
            res = model.resources[rid]
            granted = role in res.grants
            argv = ["owner", "revoke" if granted else "grant", "--as", res.owner,
                    "--token", model.users[res.owner].token, "--resource", rid, "--role", role]

            def check(code, _):
                note = _code(code, 0)
                if not note:
                    (res.grants.discard if granted else res.grants.add)(role)
                return note

            return argv, check, True
        expected = self.entries_start + self.audited

        def check_status(code, stdout):
            note = _code(code, 0)
            if not note and json.loads(stdout).get("audit_entries") != expected:
                note = f"status audit_entries != {expected}"
            return note

        argv = ["admin", "status", "--as", "admin", "--token", home.admin]
        return argv, check_status, False

    def run(self, home: Home, seconds: float, seed: int, traced: bool) -> Phase:
        rng = random.Random(f"{seed}:{self.name}:{traced}")
        stable, mutable = home.ranked[:-MUTABLE], home.ranked[-MUTABLE:]
        self.readers = Readers(home, stable)
        self.mutable = [
            (rid, rng.choice([r for r in home.roles if r not in home.model.resources[rid].grants]))
            for rid in mutable
        ]
        self.uploads = self.payload_bytes = self.audited = 0
        self.entries_start = count_lines(home.audit_path)
        scratch = os.path.join(home.path, "..", "cli-scratch")
        os.makedirs(scratch, exist_ok=True)
        stats_path = os.path.join(scratch, "stats.json")
        phase = Phase()
        summary = {"spans": {}, "counts": {}}
        imports, wchar, rss = [], 0, 0.0
        start = time.perf_counter()
        deadline = start + seconds
        n = 0
        while time.perf_counter() < deadline or n < len(CYCLE):  # one whole cycle at least
            kind = CYCLE[n % len(CYCLE)]
            n += 1
            argv, check, audited = self._command(home, kind, rng, scratch)
            launcher = [sys.executable, LAUNCH, "cli", "--stats", stats_path]
            launcher += ["--trace"] if traced else []
            launcher += ["--", "--home", home.path, "--format", "json", *argv]
            t0 = time.perf_counter()
            done = subprocess.run(launcher, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - t0
            self.audited += audited
            phase.audited += audited
            try:
                note = check(done.returncode, done.stdout)
            except ValueError as exc:
                note = f"unreadable output: {exc}"
            if note and done.stderr:
                note += f" ({done.stderr.strip()[-200:]})"
            phase.record(kind, elapsed, not note, note)
            with open(stats_path, "r", encoding="utf-8") as fh:
                stats = json.load(fh)
            imports.append(stats["import_ms"])
            wchar += stats["wchar"]
            rss = max(rss, stats["peak_rss_mb"])
            if stats["trace"] is not None:
                merge(summary, stats["trace"])
        phase.elapsed = time.perf_counter() - start
        phase.timed_ops = phase.attempted
        # one client, run back to back: the closed loop is the timed phase
        phase.capacity_rps = phase.timed_ops / phase.elapsed
        phase.payload_bytes = self.payload_bytes
        phase.wchar_bytes = wchar
        phase.peak_rss_mb = rss
        phase.trace = summary if traced else None
        phase.extra = {"cli.import": imports, "commands": n}
        return phase


def _code(code: int, want: int) -> str:
    return "" if code == want else f"exit code {code}, expected {want}"


def _file_digest(path: str, digest: str) -> str:
    with open(path, "rb") as fh:
        return "" if hashlib.sha256(fh.read()).hexdigest() == digest else "output differs"
