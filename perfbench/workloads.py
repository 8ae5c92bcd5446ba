"""The phase record, the correctness gate, and the in-process
write-heavy workload.  http-mixed and cli-cold live in their own
modules because they drive child processes.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from hrbac import audit as audit_mod
from hrbac import cli
from hrbac.errors import HrbacError
from hrbac.stores import PLANE_PRIVATE, PLANE_PUBLIC, FilesystemBlobStore

from . import common
from .corpus import DAY, KIB, Deck, Home, Spec, draw_delegation, provision, skewed_sizes
from .tracing import Tracer

# op types with a latency metric of their own
OP_TYPES = ("download", "upload", "mutation", "status")
MAX_FAILURE_NOTES = 20


@dataclass
class Phase:
    """What one timed phase did and measured."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: {t: [] for t in OP_TYPES}
    )
    attempted: int = 0
    failed: int = 0
    audited: int = 0  # operations that must each append one audit entry
    timed_ops: int = 0  # operations inside the timed window
    elapsed: float = 0.0
    payload_bytes: int = 0
    wchar_bytes: int = 0
    capacity_rps: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    trace: Optional[dict] = None
    extra: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, op_type: str, seconds: float, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if ok:
            self.samples[op_type].append(seconds * 1e3)
            return
        self.failed += 1
        self.samples[op_type].append(common.FAILED)
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{op_type}: {why}")


def timed_call(phase: Phase, op_type: str, call, digest=None, audited=True):
    """Time one in-process call; an error, or downloaded bytes whose
    SHA-256 is not ``digest``, is recorded as a failure, not raised."""
    start = time.perf_counter()
    try:
        result, note = call(), ""
    except Exception as exc:  # a wrong outcome is recorded, not raised
        result, note = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if not note and digest is not None and hashlib.sha256(result).hexdigest() != digest:
        note = "downloaded bytes differ from the uploaded payload"
    phase.audited += audited
    phase.record(op_type, elapsed, not note, note)
    return result


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def gate(home: Home, entries_before: int, audited: int) -> list[str]:
    """Durable-state checks after the timed phases; returns violations.

    Reloads the home the way the CLI does, then checks audit-or-abort,
    the resource set, orphan and missing blobs, that every resource
    decrypts to the payload uploaded for it, and the hash chain.
    """
    violations = []
    added = count_lines(home.audit_path) - entries_before
    if added != audited:
        violations.append(f"audit entries added {added} != audited operations {audited}")
    gateway = cli.App(home.path, "json").gateway()
    try:
        state, model = gateway.state, home.model
        if set(state.resources) != set(model.resources):
            violations.append("resource set differs from the uploads made")
        refs = {PLANE_PUBLIC: set(), PLANE_PRIVATE: set()}
        for meta in state.resources.values():
            refs[meta.blob_ref.plane].add(meta.blob_ref.name)
        stored = {
            PLANE_PUBLIC: set(FilesystemBlobStore(home.public_dir).names()),
            PLANE_PRIVATE: set(state.blobs),
        }
        for plane in refs:
            if stored[plane] - refs[plane]:
                violations.append(f"orphan {plane} blobs: {sorted(stored[plane] - refs[plane])[:3]}")
            if refs[plane] - stored[plane]:
                violations.append(f"missing {plane} blobs: {sorted(refs[plane] - stored[plane])[:3]}")
        for resource_id, res in sorted(model.resources.items()):
            try:
                data = gateway.download(home.ctx(res.owner), resource_id)
            except HrbacError as exc:
                violations.append(f"{resource_id}: {type(exc).__name__}: {exc}")
                continue
            if hashlib.sha256(data).hexdigest() != res.sha256:
                violations.append(f"{resource_id}: bytes differ from the upload")
    finally:
        gateway.audit_log.close()
    ok, bad_seq = audit_mod.verify_file(home.audit_path)
    if not ok:
        violations.append(f"audit chain broken at seq {bad_seq}")
    return violations


class Workload:
    """One traffic mix.  Subclasses define the corpus and the timed phase."""

    name = ""
    # tail percentile per op type, fixed from the sample count a full run
    # collects (see common.tail_label); recorded with n in every result
    tails: dict[str, str] = {}

    def __init__(self, toy: bool = False) -> None:
        self.toy = toy

    def spec(self) -> Spec:
        raise NotImplementedError

    def setup(self, path: str, seed: int) -> Home:
        return provision(path, self.spec(), seed)

    def teardown(self, home: Home) -> None:
        home.close()

    def run(self, home: Home, seconds: float, seed: int, traced: bool) -> Phase:
        raise NotImplementedError


class Readers:
    """Zipf(1) popularity over resources in rank order, with the end
    users the model says may and may not read each one.  The policy
    these lists come from does not change while they are used."""

    def __init__(self, home: Home, ranked: list[str]) -> None:
        model, now = home.model, time.time()
        self.ranked = ranked
        self.allowed: dict[str, list[str]] = {}
        self.refused: dict[str, list[str]] = {}
        for resource_id in ranked:
            owner = model.resources[resource_id].owner
            verdicts = [(u, model.download_denial(u, resource_id, now)) for u in home.end_users]
            self.allowed[resource_id] = [u for u, d in verdicts if d is None] or [owner]
            self.refused[resource_id] = [u for u, d in verdicts if d == "NoPermission"]
        self.cum_weights = list(
            itertools.accumulate(1.0 / (rank + 1) for rank in range(len(ranked)))
        )

    def popular(self, rng: random.Random) -> str:
        return rng.choices(self.ranked, cum_weights=self.cum_weights)[0]


class WriteHeavy(Workload):
    """Closed loop, one client, ``Gateway`` called in this process."""

    name = "write-heavy"
    # a 25-second run at 30-34 ops/s: about 240 downloads, 200 uploads and
    # 350 mutations
    tails = {"download": "p90", "upload": "p95", "mutation": "p95"}
    MIX = {"new-public": 8, "new-confidential": 3, "replace-public": 12,
           "replace-confidential": 4, "grant": 9, "revoke": 7, "rotate": 6, "assign": 7,
           "revoke-role": 7, "delegate": 12, "download": 25, "download-status": 8}
    TRIES = 20  # target draws before a card is skipped (e.g. nothing left to revoke)
    WARMUP_S = 2.0  # ops before the timed phase: checked and audited, not timed

    def spec(self) -> Spec:
        return Spec(
            roles=8, end_users=12 if self.toy else 50, no_role_users=3, owners=4,
            resources=30 if self.toy else 300, confidential_share=0.25,
            public_sizes=(KIB, 64 * KIB, 2.0), confidential_sizes=(8 * KIB, 32 * KIB, 1.0),
            active_delegations=10,
        )

    def run(self, home: Home, seconds: float, seed: int, traced: bool) -> Phase:
        rng = random.Random(f"{seed}:{self.name}:{traced}")
        spec = self.spec()
        # uploads cycle through four size strata per class, so a run's
        # uploaded bytes hardly depend on where it stops in the cycle
        self.sizes = {
            False: itertools.cycle(skewed_sizes(4, *spec.public_sizes)),
            True: itertools.cycle(skewed_sizes(4, *spec.confidential_sizes)),
        }
        self.deck = Deck(self.MIX)
        self.recent = collections.deque(home.ranked[-32:], maxlen=32)
        self.created = 0
        phase, warm = Phase(), Phase()
        self.entries_start = count_lines(home.audit_path)
        warm_until = time.perf_counter() + self.WARMUP_S
        while time.perf_counter() < warm_until:
            self.next_op(home, rng, warm)
        self.entries_start += warm.audited
        tracer = Tracer().install() if traced else None
        wchar_start = common.wchar()
        try:
            start = time.perf_counter()
            deadline = start + seconds
            while time.perf_counter() < deadline:
                self.next_op(home, rng, phase)
            phase.elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        phase.wchar_bytes = common.wchar() - wchar_start
        phase.timed_ops = phase.attempted
        phase.capacity_rps = phase.timed_ops / phase.elapsed
        phase.attempted += warm.attempted
        phase.failed += warm.failed
        phase.audited += warm.audited
        phase.failures += warm.failures
        phase.peak_rss_mb = common.peak_rss_mb()
        if tracer is not None:
            phase.trace = tracer.summary()
        return phase

    def _upload(self, home, rng, phase, resource_id, owner, confidential) -> None:
        size = next(self.sizes[confidential])
        grants = set(rng.sample(home.roles, 1 + (rng.random() < 0.3)))
        call, commit = home.upload_call(owner, resource_id, size, confidential, grants)
        if timed_call(phase, "upload", call) is not None:
            commit()
            phase.payload_bytes += size
            self.recent.append(resource_id)

    def next_op(self, home: Home, rng: random.Random, phase: Phase) -> None:
        kind = self.deck.draw()
        if kind.startswith("new-"):
            self.created += 1
            resource_id = f"new-{self.created}-{rng.getrandbits(32):08x}"
            self._upload(home, rng, phase, resource_id, rng.choice(home.owners),
                         kind == "new-confidential")
            return
        for _ in range(self.TRIES):
            if getattr(self, "_" + kind.replace("-", "_"))(home, rng, phase):
                return

    # each returns False, sending nothing, when the drawn target cannot take it

    def _replace(self, home, rng, phase, confidential: bool) -> bool:
        resource_id = rng.choice(list(home.model.resources))
        res = home.model.resources[resource_id]
        if res.confidential != confidential:
            return False
        self._upload(home, rng, phase, resource_id, res.owner, confidential)
        return True

    def _replace_public(self, home, rng, phase) -> bool:
        return self._replace(home, rng, phase, False)

    def _replace_confidential(self, home, rng, phase) -> bool:
        return self._replace(home, rng, phase, True)

    def _grant(self, home, rng, phase) -> bool:
        resource_id = rng.choice(list(home.model.resources))
        res = home.model.resources[resource_id]
        missing = [r for r in home.roles if r not in res.grants]
        if not missing:
            return False
        role, ctx = rng.choice(missing), home.ctx(res.owner)
        timed_call(phase, "mutation",
                   lambda: home.gateway.grant_resource_access(ctx, resource_id, role))
        res.grants.add(role)
        return True

    def _revoke(self, home, rng, phase) -> bool:
        resource_id = rng.choice(list(home.model.resources))
        res = home.model.resources[resource_id]
        if len(res.grants) < 2:  # the owner's recovery read needs one wrapped key
            return False
        role, ctx = rng.choice(home.in_rank_order(res.grants)), home.ctx(res.owner)
        timed_call(phase, "mutation",
                   lambda: home.gateway.revoke_resource_access(ctx, resource_id, role))
        res.grants.discard(role)
        return True

    def _rotate(self, home, rng, phase) -> bool:
        # Confidential only: rotation re-seals the blob inside the private
        # doc.  A seed-dependent share of cheaper Public rotations would sit
        # right at the mutation tail and move it from run to run.
        resource_id = rng.choice(
            [rid for rid, res in home.model.resources.items() if res.confidential])
        res = home.model.resources[resource_id]
        ctx = home.ctx(res.owner)
        if timed_call(phase, "mutation",
                      lambda: home.gateway.rotate_resource_key(ctx, resource_id)) is not None:
            res.version += 1
            self.recent.append(resource_id)
        return True

    def _assign(self, home, rng, phase) -> bool:
        user_id, role = rng.choice(home.end_users), rng.choice(home.roles)
        user = home.model.users[user_id]
        if role in user.roles or home.model.conflicts(user.roles | {role}):
            return False
        admin = home.ctx("admin")
        timed_call(phase, "mutation", lambda: home.gateway.assign_role(admin, user_id, role))
        user.roles.add(role)
        return True

    def _revoke_role(self, home, rng, phase) -> bool:
        user_id = rng.choice(home.end_users)
        user = home.model.users[user_id]
        if not user.roles:
            return False
        role, admin = rng.choice(home.in_rank_order(user.roles)), home.ctx("admin")
        timed_call(phase, "mutation", lambda: home.gateway.revoke_role(admin, user_id, role))
        user.roles.discard(role)
        return True

    def _delegate(self, home, rng, phase) -> bool:
        now = time.time()
        drawn = draw_delegation(home, rng, now)
        if drawn is None:
            return False
        giver, receiver, role = drawn
        ctx = home.ctx(giver, now)
        timed_call(phase, "mutation",
                   lambda: home.gateway.delegate_role(ctx, receiver, role, 30 * DAY))
        home.model.add_delegation(receiver, role, now, 30 * DAY)
        return True

    def _download_status(self, home, rng, phase) -> bool:
        # An operator's status() read, O(audit), comes after a download:
        # right after a document rewrite its scan ran on a cold cache, and
        # how cold varied with the host, doubling its run-to-run spread.
        self._download(home, rng, phase)
        expected = self.entries_start + phase.audited
        report = timed_call(
            phase, "status", lambda: home.gateway.status(home.ctx("admin")), audited=False
        )
        if report is not None and report.audit_entries != expected:
            phase.record("status", 0.0, False, "status disagrees with the audit count")
        return True

    def _download(self, home, rng, phase) -> bool:
        # read-after-write: the writer reads back a recently written resource
        resource_id = rng.choice(self.recent)
        res = home.model.resources[resource_id]
        ctx = home.ctx(res.owner)
        timed_call(phase, "download", lambda: home.gateway.download(ctx, resource_id),
                   digest=res.sha256)
        return True
