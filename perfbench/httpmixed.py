"""http-mixed: ``httpapi.make_server`` in a child process, driven over
loopback with stdlib ``http.client`` from this process.

The policy is identity-heavy (hundreds of users, about a thousand
mostly expired delegations), so every request pays the O(users) token
scan and the O(delegations) held-role scan under the server's one
process-wide lock.  Two closed loops share the run time:

* latency loop: one connection sending back to back, after a warm-up;
  the per-type latencies come from here;
* capacity loop: ``nproc`` connections sending back to back, so
  requests queue on the server's lock; its throughput is
  ``capacity_rps``, the median over equal slices of the loop.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Optional

from . import common
from .corpus import KIB, Deck, Home, ResourceM, Spec, payload, provision, skewed_sizes
from .workloads import Phase, Readers, Workload

LAUNCH = os.path.join(common.BENCH_DIR, "launch.py")
LATENCY_SHARE = 0.6  # of the run's seconds; the capacity loop gets the rest
WARMUP_S = 1.0  # the latency loop's first second is checked but not timed
CAPACITY_SLICES = 5
MUTABLE_PER_CLIENT = 4
REPLACEABLE_PER_CLIENT = 4
MIX = {"download": 79, "denied": 4, "upload": 5, "mutation": 5, "status": 3, "bad-token": 4}


class Server:
    """The launcher child serving one home."""

    def __init__(self, home: Home, traced: bool) -> None:
        self.stats_path = os.path.join(home.path, "..", f"server-{os.getpid()}-{id(self)}.json")
        argv = [sys.executable, LAUNCH, "serve", "--home", home.path, "--stats", self.stats_path]
        self.proc = subprocess.Popen(
            argv + (["--trace"] if traced else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=60)
            raise common.BenchError(f"server exited with {self.proc.returncode} before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        self.proc.stdin.close()
        self.proc.stdout.close()
        code = self.proc.wait(timeout=120)
        if code != 0:
            raise common.BenchError(f"server exited with {code}")
        with open(self.stats_path, "r", encoding="utf-8") as fh:
            stats = json.load(fh)
        os.unlink(self.stats_path)
        return stats


class Client:
    """One connection's request stream and the expectations it checks."""

    def __init__(self, workload: "HttpMixed", home: Home, index: int, port: int,
                 rng: random.Random) -> None:
        self.w, self.home, self.index, self.rng = workload, home, index, rng
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.mutable = workload.mutable[index]
        self.replaceable = workload.replaceable[index]
        self.deck = Deck(MIX)
        self.uploads = 0
        # (op type, latency ms, audited, failure note, completion time)
        self.results: list[tuple] = []
        self.payload_bytes = 0

    def _send(self, method: str, path: str, token: str, body: bytes = b"",
              headers: Optional[dict] = None) -> tuple[int, bytes]:
        hdrs = {"Authorization": f"Bearer {token}", **(headers or {})}
        self.conn.request(method, path, body=body or None, headers=hdrs)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def next_request(self):
        """(op type, send thunk, check(status, body) -> note or "", audited)."""
        home, rng, model = self.home, self.rng, self.home.model
        readers = self.w.readers
        kind = self.deck.draw()
        if kind == "download":
            rid = readers.popular(rng)
            token = model.users[rng.choice(readers.allowed[rid])].token
            digest = model.resources[rid].sha256
            return ("download", lambda: self._send("GET", f"/resources/{rid}", token),
                    lambda s, b: _expect(s, 200) or _digest(b, digest), True)
        if kind == "denied":
            rid = readers.popular(rng)
            refused = readers.refused[rid]
            user = rng.choice(refused) if refused else rng.choice(home.no_role_users)
            token = model.users[user].token
            return ("download", lambda: self._send("GET", f"/resources/{rid}", token),
                    lambda s, b: _expect(s, 403), True)
        if kind == "upload":
            return self._upload()
        if kind == "mutation":
            return self._toggle_grant()
        if kind == "status":
            return ("status", lambda: self._send("GET", "/status", home.admin),
                    lambda s, b: _expect(s, 200) or _status_body(b), False)
        rid = readers.popular(rng)
        bad = f"bad-{rng.getrandbits(64):016x}"
        return ("download", lambda: self._send("GET", f"/resources/{rid}", bad),
                lambda s, b: _expect(s, 401), True)

    def _upload(self):
        home, rng = self.home, self.rng
        self.uploads += 1
        # replacing Public resources with as many grants as they had keeps
        # the private doc, which every write rewrites, the same size
        rid = self.replaceable[self.uploads % len(self.replaceable)]
        old = home.model.resources[rid]
        owner, version = old.owner, old.version + 1
        size = next(self.w.sizes[self.index])
        data = payload(home.seed, rid, version, size)
        digest = hashlib.sha256(data).hexdigest()
        grants = set(rng.sample(home.roles, len(old.grants)))
        headers = {"X-Classification": "Public",
                   "X-Grant-Roles": ",".join(home.in_rank_order(grants))}
        token = home.model.users[owner].token

        def check(status, body):
            note = _expect(status, 200)
            if not note and json.loads(body).get("plaintext_sha256") != digest:
                note = "upload reply digest differs"
            if not note:
                home.model.resources[rid] = ResourceM(owner, grants, digest, size, False, version)
                self.payload_bytes += size
            return note

        return ("upload", lambda: self._send("POST", f"/resources/{rid}", token, data, headers),
                check, True)

    def _toggle_grant(self):
        rid, role = self.mutable[self.rng.randrange(len(self.mutable))]
        res = self.home.model.resources[rid]
        token = self.home.model.users[res.owner].token
        granted = role in res.grants
        method = "DELETE" if granted else "POST"

        def check(status, body):
            note = _expect(status, 200)
            if not note:
                (res.grants.discard if granted else res.grants.add)(role)
            return note

        return ("mutation", lambda: self._send(method, f"/resources/{rid}/grants/{role}", token),
                check, True)

    def run(self, deadline: float) -> None:
        """Send back to back until the deadline."""
        try:
            while time.perf_counter() < deadline:
                self._one()
        except Exception as exc:  # a client bug must fail the run, not end it quietly
            self.results.append(("download", common.FAILED, False, f"client: {exc!r}",
                                 time.perf_counter()))
        finally:
            self.conn.close()

    def _one(self) -> None:
        kind, send, check, audited = self.next_request()
        sent = time.perf_counter()
        try:
            status, body = send()
            note = check(status, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            note = f"{type(exc).__name__}: {exc}"
            self.conn.close()
        done = time.perf_counter()
        self.results.append((kind, (done - sent) * 1e3, audited, note, done))


def _expect(status: int, want: int) -> str:
    return "" if status == want else f"HTTP {status}, expected {want}"


def _digest(body: bytes, digest: str) -> str:
    return "" if hashlib.sha256(body).hexdigest() == digest else "body differs from upload"


def _status_body(body: bytes) -> str:
    return "" if isinstance(json.loads(body).get("audit_entries"), int) else "bad status body"


class HttpMixed(Workload):
    name = "http-mixed"
    # latency-loop samples in a 25-second run (14 s at 140-200 req/s):
    # downloads 1700-2400, uploads and grant/revoke 100-140 each
    tails = {"download": "p90", "upload": "p90", "mutation": "p90"}

    def spec(self) -> Spec:
        return Spec(
            roles=8, end_users=60 if self.toy else 500, no_role_users=5, owners=4,
            resources=30 if self.toy else 150, confidential_share=0.1,
            public_sizes=(KIB, 64 * KIB, 2.0), confidential_sizes=(KIB, 16 * KIB, 1.0),
            expired_delegations=60 if self.toy else 900, active_delegations=50,
        )

    def setup(self, path: str, seed: int) -> Home:
        home = provision(path, self.spec(), seed)
        home.close()  # the server child appends from here on
        home.server = Server(home, traced=False)
        return home

    def teardown(self, home: Home) -> None:
        if getattr(home, "server", None) is not None:
            home.server.stop()
            home.server = None

    def _prepare(self, home: Home, seed: int, traced: bool, clients: int) -> None:
        rng = random.Random(f"{seed}:{self.name}:{traced}")
        # the least popular resources take grant/revoke and upload traffic,
        # one client each, so every expectation holds whatever the
        # interleaving; the others are read
        n_mut = MUTABLE_PER_CLIENT * clients
        rest, mutable = home.ranked[:-n_mut], home.ranked[-n_mut:]
        public = [rid for rid in rest if not home.model.resources[rid].confidential]
        replaceable = public[-REPLACEABLE_PER_CLIENT * clients:]
        self.replaceable = [replaceable[c::clients] for c in range(clients)]
        self.readers = Readers(home, [rid for rid in rest if rid not in replaceable])
        self.mutable = []
        for c in range(clients):
            pairs = []
            for rid in mutable[c::clients]:
                grants = home.model.resources[rid].grants
                spare = [r for r in home.roles if r not in grants]
                pairs.append((rid, rng.choice(spare)))
            self.mutable.append(pairs)
        # each client cycles through the same four size strata
        sizes = skewed_sizes(4, *self.spec().public_sizes)
        self.sizes = [itertools.cycle(sizes[c:] + sizes[:c]) for c in range(clients)]

    def _loop(self, home: Home, seed: int, traced: bool, seconds: float, clients: int,
              tag: str) -> tuple[list, tuple[float, float], int]:
        port = home.server.port
        workers = [
            Client(self, home, c, port, random.Random(f"{seed}:{tag}:{traced}:{c}"))
            for c in range(clients)
        ]
        start = time.perf_counter()
        threads = [threading.Thread(target=c.run, args=(start + seconds,)) for c in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [r for c in workers for r in c.results]
        return results, (start, time.perf_counter()), sum(c.payload_bytes for c in workers)

    def run(self, home: Home, seconds: float, seed: int, traced: bool) -> Phase:
        clients = os.cpu_count() or 1
        if home.server is None or traced:
            self.teardown(home)
            home.server = Server(home, traced)
        self._prepare(home, seed, traced, clients)
        phase = Phase()
        latency, latency_span, latency_bytes = self._loop(
            home, seed, traced, seconds * LATENCY_SHARE, 1, "latency")
        closed, closed_span, closed_bytes = self._loop(
            home, seed, traced, seconds * (1 - LATENCY_SHARE), clients, "capacity")
        timed_from = latency_span[0] + WARMUP_S
        timed = 0
        for kind, ms, audited, note, done in latency + closed:
            phase.audited += audited
            if latency_span[1] >= done >= timed_from:
                phase.record(kind, ms / 1e3, not note, note)
                timed += 1
                continue
            phase.attempted += 1
            if note:
                phase.failed += 1
                phase.failures.append(f"{kind}: {note}")
        closed_elapsed = closed_span[1] - closed_span[0]
        phase.timed_ops = timed + len(closed)
        phase.elapsed = latency_span[1] - timed_from + closed_elapsed
        phase.capacity_rps = _median_rate([r[4] for r in closed], closed_span, CAPACITY_SLICES)
        phase.payload_bytes = latency_bytes + closed_bytes
        stats = home.server.stop()
        home.server = None
        phase.wchar_bytes = stats["wchar"]
        phase.peak_rss_mb = stats["peak_rss_mb"]
        phase.trace = stats["trace"]
        closed_ms = {t: [ms for kind, ms, *_ in closed if kind == t] for t in phase.samples}
        phase.extra = {
            "latency_loop_requests": len(latency),
            "capacity_loop_requests": len(closed),
            "capacity_loop_p50_ms": {t: common.median(v) for t, v in closed_ms.items() if v},
        }
        return phase


def _median_rate(done: list[float], span: tuple[float, float], slices: int) -> float:
    """Completions per second in each of ``slices`` equal slices of span,
    then their median: a host stall confined to one slice cannot move it."""
    width = (span[1] - span[0]) / slices
    counts = [0] * slices
    for at in done:
        counts[min(slices - 1, max(0, int((at - span[0]) / width)))] += 1
    return common.median(counts) / width
