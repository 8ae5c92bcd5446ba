"""Acceptance gate: every criterion at its stated tolerance, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -s` to see the
lines; timing budgets are asserted where the criterion states one.
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import time

import pytest

import hrbac.envelope as envelope
import hrbac.gateway as gateway_mod
from hrbac import bench, integrity
from hrbac.audit import AuditAction, AuditLog, verify_chain
from hrbac.envelope import DataKey, SealedBlob
from hrbac.errors import (
    AuthFailure,
    BackendUnavailable,
    HrbacError,
    IoError,
    RandomnessUnavailable,
    SodViolation,
    ConflictExists,
)
from hrbac.policy import Action, Permission, PolicyEngine, UserKind
from hrbac.stores import Classification, PLANE_PRIVATE

from conftest import NOW, is_blob_name, make_env
from oracles import closure_oracle, check_access_oracle
from reference_gcm import gcm_encrypt
from test_envelope_kat import KAT_CASES
from test_gateway import provision, store_consistent


def report(label: str) -> None:
    print(f"\nACCEPTANCE {label}: PASS")


def test_criterion_01_integrity_reproduction():
    """Upload/download round trip byte-identical with all four digests
    matching, for 20 random files across four sizes, under 60 s."""
    started = time.monotonic()
    env = make_env()
    role = provision(env, bits=2048)
    ctx = env.session("owner")
    reader = env.session("reader")

    sizes = [1 << 10, 64 << 10, 1 << 20, 4 << 20]
    count = 0
    for round_no in range(5):
        for size in sizes:
            payload = os.urandom(size)
            rid = f"file-{round_no}-{size}"
            env.gateway.upload(ctx, rid, payload, Classification.PUBLIC, [role])
            fetched = env.gateway.download(reader, rid)
            assert fetched == payload
            rep = integrity.verify_roundtrip(payload, fetched)
            assert rep.verdict and all(rep.matches.values())
            count += 1
    elapsed = time.monotonic() - started
    assert count == 20
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(f"1 integrity-reproduction (20/20 files, {elapsed:.1f}s)")


def test_criterion_02_performance_trend():
    """Strictly positive least-squares slopes for seal and open over
    doubling sizes 1-64 MiB, repetitions >= 5, under 5 minutes."""
    started = time.monotonic()
    sizes = [(1 << 20) * (2 ** i) for i in range(7)]  # 1 MiB .. 64 MiB
    rows = bench.run_matrix(sizes, repetitions=5)
    trend = bench.assert_trend(rows)
    elapsed = time.monotonic() - started
    assert len(rows) == 7
    assert trend.encrypt_slope_ms_per_byte > 0
    assert trend.decrypt_slope_ms_per_byte > 0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(
        "2 performance-trend (slopes "
        f"enc={trend.encrypt_slope_ms_per_byte:.3e}, "
        f"dec={trend.decrypt_slope_ms_per_byte:.3e} ms/byte, "
        f"ratio={trend.mean_ratio:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_03_policy_oracle_equivalence():
    """1,000 random hierarchies: check_access agrees with the brute-force
    oracle on every probe, under 2 minutes."""
    from test_policy_properties import build_random_world

    started = time.monotonic()
    probes = 0
    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        engine, juniors, permissions, user_ids, resources = build_random_world(rng)
        probe_resources = rng.sample(resources, 3) + [f"miss-{seed}"]
        for uid in user_ids:
            user = engine.users[uid]
            oracle_closure = closure_oracle(juniors, set(user.roles))
            assert engine.effective_roles(uid, 0.0) == oracle_closure
            for resource in probe_resources:
                for action in Action:
                    expected = check_access_oracle(
                        juniors, permissions, user.kind.value,
                        set(user.roles), resource, action.value,
                    )
                    got = engine.check_access(uid, resource, action, 0.0).allowed
                    assert got == expected, (seed, uid, resource, action)
                    probes += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(f"3 policy-oracle-equivalence (1000 hierarchies, {probes} probes, {elapsed:.1f}s)")


# -- criterion 4: the ten functional scenarios ---------------------------


def test_criterion_04_least_privilege():
    """No user is ever granted an action that no role in their closure
    holds."""
    rng = random.Random(42)
    engine = PolicyEngine()
    roles = [engine.add_role(f"r{i}") for i in range(12)]
    for _ in range(15):
        try:
            engine.link_roles(rng.choice(roles), rng.choice(roles))
        except HrbacError:
            pass
    for i, role in enumerate(roles[:6]):
        engine.grant_permission(role, Permission(f"res{i}", Action.READ))
    for i in range(10):
        engine.add_user(f"u{i}", rng.choice(list(UserKind)))
        for _ in range(rng.randint(0, 2)):
            engine.assign_role(f"u{i}", rng.choice(roles))

    for i in range(10):
        uid = f"u{i}"
        closure = engine.effective_roles(uid, 0.0)
        held = {
            (p.resource, p.action)
            for rid in closure
            for p in engine.roles[rid].permissions
        }
        for res in [f"res{k}" for k in range(8)] + ["other"]:
            for action in Action:
                if engine.check_access(uid, res, action, 0.0).allowed:
                    assert (res, action) in held
    report("4.1 least-privilege")


def test_criterion_04_separation_of_duties():
    env = make_env()
    gw = env.gateway
    auditor = gw.add_role(env.admin, "Auditor")
    accountant = gw.add_role(env.admin, "Accountant")
    mgr = env.add_actor("mgr", UserKind.ROLE_MANAGER)
    env.add_actor("u", UserKind.END_USER)
    gw.assign_role(mgr, "u", auditor)
    gw.add_sod_constraint(env.admin, auditor, accountant)
    with pytest.raises(SodViolation):
        gw.assign_role(mgr, "u", accountant)
    assert gw.state.policy.users["u"].roles == {auditor}
    with pytest.raises(ConflictExists):
        # constraint addition must also respect existing dual holders
        gw.assign_role(mgr, "u", accountant2 := gw.add_role(env.admin, "Acct2"))
        gw.add_sod_constraint(env.admin, auditor, accountant2)
    report("4.2 separation-of-duties")


def _median_decision_latency(n_roles: int) -> float:
    engine = PolicyEngine()
    roles = [engine.add_role(f"r{i}") for i in range(n_roles)]
    for senior, junior in zip(roles, roles[1:]):
        engine.link_roles(senior, junior)
    engine.grant_permission(roles[-1], Permission("target", Action.READ))
    engine.add_user("u", UserKind.END_USER)
    engine.assign_role("u", roles[0])
    assert engine.check_access("u", "target", Action.READ, 0.0).allowed  # warm caches

    samples = []
    for _ in range(400):
        t0 = time.perf_counter()
        engine.check_access("u", "target", Action.READ, 0.0)
        engine.check_access("u", "absent", Action.READ, 0.0)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def test_criterion_04_scalability():
    """Policy decision latency grows sub-linearly from 10 to 1,000 roles:
    the measured ratio stays well under the 100x linear baseline."""
    small = _median_decision_latency(10)
    large = _median_decision_latency(1000)
    ratio = large / small
    assert ratio < 100, f"latency ratio {ratio:.1f}x"
    report(f"4.3 scalability (10->1000 roles latency ratio {ratio:.1f}x < 100x)")


def test_criterion_04_auditing():
    """Mediation completeness: exactly one audit entry per data operation."""
    env = make_env()
    role = provision(env)
    ctx = env.session("owner")
    ops = 0
    env.gateway.upload(ctx, "a", b"1", Classification.PUBLIC, [role]); ops += 1
    env.gateway.upload(ctx, "b", b"2", Classification.CONFIDENTIAL, [role]); ops += 1
    env.gateway.download(env.session("reader"), "a"); ops += 1
    env.gateway.download(env.session("reader"), "b"); ops += 1
    rescue = env.add_actor("rescue", UserKind.OVERRIDE)
    env.gateway.override_download(rescue, "a", "incident"); ops += 1
    other = env.gateway.add_role(env.admin, "Other")
    env.gateway.ensure_role_key(env.admin, other, 1024)
    env.gateway.grant_resource_access(ctx, "a", other); ops += 1
    env.gateway.revoke_resource_access(ctx, "a", other); ops += 1
    env.gateway.rotate_resource_key(ctx, "a"); ops += 1

    data_actions = (
        AuditAction.UPLOAD, AuditAction.DOWNLOAD, AuditAction.OVERRIDE,
        AuditAction.GRANT, AuditAction.REVOKE, AuditAction.ROTATE,
    )
    total = sum(len(env.gateway.audit_log.query(action=a)) for a in data_actions)
    assert total == ops
    ok, _ = verify_chain(list(env.gateway.audit_log))
    assert ok
    report(f"4.4 auditing (mediation completeness, {ops} ops = {total} entries)")


def test_criterion_04_policy_management():
    env = make_env()
    role = provision(env)
    env.gateway.upload(env.session("owner"), "f", b"d", Classification.PUBLIC, [role])
    analyst = env.gateway.add_role(env.admin, "Analyst")
    env.gateway.ensure_role_key(env.admin, analyst, 1024)
    env.add_actor("ana", UserKind.END_USER)
    env.gateway.assign_role(env.admin, "ana", analyst)

    with pytest.raises(HrbacError):
        env.gateway.download(env.session("ana"), "f")
    env.gateway.grant_resource_access(env.session("owner"), "f", analyst)
    assert env.gateway.download(env.session("ana"), "f") == b"d"
    env.gateway.revoke_resource_access(env.session("owner"), "f", analyst)
    with pytest.raises(HrbacError):
        env.gateway.download(env.session("ana"), "f")
    report("4.5 policy-management (grant/revoke lifecycle)")


def test_criterion_04_configuration_flexibility():
    """Revoke plus rotate: revoked role loses access, the old blob is
    destroyed, remaining grants still decrypt the rotated object."""
    env = make_env()
    role = provision(env)
    keep = env.gateway.add_role(env.admin, "Keeper")
    env.gateway.ensure_role_key(env.admin, keep, 1024)
    env.add_actor("keeper", UserKind.END_USER)
    env.gateway.assign_role(env.admin, "keeper", keep)

    payload = os.urandom(512)
    ctx = env.session("owner")
    env.gateway.upload(ctx, "f", payload, Classification.PUBLIC, [role, keep])
    env.gateway.revoke_resource_access(ctx, "f", role)
    rotated = env.gateway.rotate_resource_key(ctx, "f")
    assert env.gateway._public.names() == [rotated.blob_ref.name]
    assert is_blob_name(rotated.blob_ref.name, "f", 2)
    assert env.gateway.download(env.session("keeper"), "f") == payload
    with pytest.raises(HrbacError):
        env.gateway.download(env.session("reader"), "f")
    report("4.6 configuration-flexibility (revoke + rotate)")


def test_criterion_04_delegation():
    """TTL expiry boundary is exclusive; revocation is immediate."""
    engine = PolicyEngine()
    role = engine.add_role("R")
    engine.grant_permission(role, Permission("res", Action.READ))
    engine.add_user("giver", UserKind.DATA_OWNER)
    engine.add_user("temp", UserKind.END_USER)
    engine.assign_role("giver", role)
    t0, ttl = 5000.0, 3600.0
    delegation = engine.delegate_role("giver", "temp", role, ttl, t0)

    assert engine.check_access("temp", "res", Action.READ, t0).allowed
    assert engine.check_access("temp", "res", Action.READ, t0 + ttl - 1).allowed
    assert not engine.check_access("temp", "res", Action.READ, t0 + ttl).allowed
    assert not engine.check_access("temp", "res", Action.READ, t0 + ttl + 1).allowed

    second = engine.delegate_role("giver", "temp", role, ttl, t0)
    engine.revoke_delegation(second)
    engine.revoke_delegation(delegation)
    assert not engine.check_access("temp", "res", Action.READ, t0 + 1).allowed
    report("4.7 delegation (exclusive TTL boundary)")


def test_criterion_04_hybrid_cloud_architecture(tmp_path):
    """Plane separation: the public plane never contains plaintext, key
    material, or policy fragments; confidential data stays private."""
    from hrbac.stores import FilesystemBlobStore

    env = make_env(
        private_path=str(tmp_path / "private.json"),
        public_store=FilesystemBlobStore(str(tmp_path / "public")),
        audit_path=str(tmp_path / "audit.log"),
    )
    role = provision(env)
    marker = b"CONFIDENTIAL-PAYLOAD-MARKER-123"
    ctx = env.session("owner")
    env.gateway.upload(ctx, "pub", marker, Classification.PUBLIC, [role])
    env.gateway.upload(ctx, "sec", marker, Classification.CONFIDENTIAL, [role])

    public_bytes = b"".join(
        env.gateway._public.get_blob(n) for n in env.gateway._public.names()
    )
    assert marker not in public_bytes
    assert b"PRIVATE KEY" not in public_bytes
    for fragment in (b'"roles"', b'"users"', b'"sod"', b'"delegations"'):
        assert fragment not in public_bytes
    for meta in env.gateway.state.resources.values():
        if meta.classification is Classification.CONFIDENTIAL:
            assert meta.blob_ref.plane == PLANE_PRIVATE
    report("4.8 hybrid-cloud-architecture (plane separation scan)")


def test_criterion_04_role_hierarchy_management():
    env = make_env()
    junior = provision(env)
    senior = env.gateway.add_role(env.admin, "Manager", juniors=[junior])
    env.add_actor("boss", UserKind.END_USER)
    env.gateway.assign_role(env.admin, "boss", senior)
    env.gateway.upload(env.session("owner"), "f", b"inherit", Classification.PUBLIC, [junior])
    assert env.gateway.download(env.session("boss"), "f") == b"inherit"
    assert env.gateway.state.policy.role_level(junior) == 1
    assert env.gateway.state.policy.role_level(senior) == 0
    report("4.9 role-hierarchy-management (inheritance)")


def test_criterion_04_operational_awareness():
    """Status counters equal an independent recount of the audit log."""
    env = make_env()
    role = provision(env)
    ctx = env.session("owner")
    env.gateway.upload(ctx, "f", b"d", Classification.PUBLIC, [role])
    stranger = env.add_actor("s", UserKind.END_USER)
    for _ in range(3):
        with pytest.raises(HrbacError):
            env.gateway.download(stranger, "f")
    env.gateway.download(env.session("reader"), "f")
    rescue = env.add_actor("rescue", UserKind.OVERRIDE)
    env.gateway.override_download(rescue, "f", "check")

    report_obj = env.gateway.status(env.admin)
    entries = list(env.gateway.audit_log)
    denials = sum(1 for e in entries if e.decision == "Deny")
    overrides = sum(1 for e in entries if e.action == "Override" and e.decision == "Allow")
    assert report_obj.audit_entries == len(entries)
    assert report_obj.deny_rate == pytest.approx(denials / len(entries))
    assert report_obj.override_count == overrides
    assert report_obj.users == len(env.gateway.state.policy.users)
    assert report_obj.roles == len(env.gateway.state.policy.roles)
    assert report_obj.resources == len(env.gateway.state.resources)
    report("4.10 operational-awareness (status equals audit recount)")


def test_criterion_05_tamper_rejection():
    """100 single-byte ciphertext flips: 100 AuthFailures, zero plaintext."""
    rng = random.Random(1234)
    key = envelope.generate_data_key()
    payload = os.urandom(4096)
    blob = envelope.seal(payload, key, b"aad")
    released = []
    failures = 0
    for _ in range(100):
        position = rng.randrange(len(blob.body))
        mutated = bytearray(blob.body)
        mutated[position] ^= rng.randrange(1, 256)
        tampered = SealedBlob(nonce=blob.nonce, body=bytes(mutated))
        try:
            released.append(envelope.open_blob(tampered, key, b"aad"))
        except AuthFailure:
            failures += 1
    assert failures == 100
    assert released == []
    report("5 tamper-rejection (100/100 AuthFailure, zero plaintext)")


def test_criterion_06_audit_chain_tamper_detection():
    """100-entry chain verifies; 50 random single-field mutations are
    each detected with the correct first bad seq."""
    rng = random.Random(99)
    log = AuditLog()
    actions = list(AuditAction)
    for i in range(100):
        log.append(
            ts=NOW + i, actor=f"u{i % 7}", action=actions[i % len(actions)],
            decision="Allow" if i % 4 else "Deny",
            reason="Granted" if i % 4 else "NoPermission",
            resource=f"res{i % 9}",
        )
    clean = list(log)
    assert verify_chain(clean) == (True, None)

    fields = ("actor", "action", "resource", "decision", "reason", "ts",
              "prev_hash", "entry_hash", "seq")
    detected = 0
    for _ in range(50):
        entries = list(clean)
        position = rng.randint(1, 100)
        victim = entries[position - 1]
        field = rng.choice(fields)
        if field == "seq":
            mutated = dataclasses.replace(victim, seq=victim.seq + 7)
        elif field in ("prev_hash", "entry_hash"):
            old = getattr(victim, field)
            mutated = dataclasses.replace(
                victim, **{field: ("0" if old[0] != "0" else "f") + old[1:]}
            )
        elif field == "resource":
            mutated = dataclasses.replace(victim, resource=(victim.resource or "") + "x")
        else:
            mutated = dataclasses.replace(victim, **{field: getattr(victim, field) + "x"})
        entries[position - 1] = mutated
        ok, bad = verify_chain(entries)
        if not ok and bad == position:
            detected += 1
    assert detected == 50
    report("6 audit-chain (100-entry chain, 50/50 mutations located)")


def test_criterion_07_crypto_conformance():
    """At least 5 AEAD known-answer vectors, including the zero-key empty
    vector, match the independent reference exactly."""
    zero_ct, zero_tag = gcm_encrypt(b"\x00" * 16, b"\x00" * 12, b"", b"")
    assert zero_ct == b""
    assert zero_tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    matched = 0
    for name, key, nonce, plaintext, aad in KAT_CASES:
        ref_ct, ref_tag = gcm_encrypt(key, nonce, plaintext, aad)
        blob = SealedBlob(nonce=nonce, body=ref_ct + ref_tag)
        assert envelope.open_blob(blob, DataKey(key), aad) == plaintext
        sealed = envelope.seal(plaintext, DataKey(key), aad)
        again_ct, again_tag = gcm_encrypt(key, sealed.nonce, plaintext, aad)
        assert sealed.body == again_ct + again_tag, name
        matched += 1
    assert matched >= 5
    report(f"7 crypto-conformance ({matched} known-answer vectors)")


def test_criterion_08_no_partial_write(monkeypatch):
    """Fault injection at each of the 5 upload pipeline steps leaves the
    stores consistent: no orphan blob, no metadata without its blob."""

    def fresh():
        env = make_env()
        role = provision(env)
        env.gateway.upload(
            env.session("owner"), "pre", b"existing", Classification.PUBLIC, [role]
        )
        return env, role

    outcomes = []

    def attempt(env, role):
        env.gateway.upload(
            env.session("owner"), "fi", b"payload", Classification.CONFIDENTIAL, [role]
        )

    # step 1: data key generation
    env, role = fresh()
    with monkeypatch.context() as m:
        m.setattr(envelope, "generate_data_key",
                  lambda: (_ for _ in ()).throw(RandomnessUnavailable("rng")))
        with pytest.raises(RandomnessUnavailable):
            attempt(env, role)
    outcomes.append(store_consistent(env) and "fi" not in env.gateway.state.resources)

    # step 2: seal
    env, role = fresh()
    with monkeypatch.context() as m:
        def broken_seal(plaintext, key, aad):
            raise RandomnessUnavailable("nonce")
        m.setattr(envelope, "seal", broken_seal)
        with pytest.raises(RandomnessUnavailable):
            attempt(env, role)
    outcomes.append(store_consistent(env) and "fi" not in env.gateway.state.resources)

    # step 3: blob write (public plane this time, to hit the remote path)
    env, role = fresh()
    with monkeypatch.context() as m:
        def broken_put(name, data):
            raise BackendUnavailable("503")
        m.setattr(env.gateway._public, "put_blob", broken_put)
        with pytest.raises(BackendUnavailable):
            env.gateway.upload(
                env.session("owner"), "fi", b"payload", Classification.PUBLIC, [role]
            )
    outcomes.append(store_consistent(env) and "fi" not in env.gateway.state.resources)

    # step 4: private document save
    env, role = fresh()
    env.gateway._private_path = "/forced/by/monkeypatch"
    with monkeypatch.context() as m:
        def broken_save(path, state):
            raise IoError("disk full")
        m.setattr(gateway_mod, "save_private", broken_save)
        with pytest.raises(IoError):
            attempt(env, role)
    env.gateway._private_path = None
    outcomes.append(store_consistent(env) and "fi" not in env.gateway.state.resources)

    # step 5: audit append
    env, role = fresh()
    with monkeypatch.context() as m:
        original = env.gateway._audit_log.append
        def broken_append(**kwargs):
            if kwargs.get("decision") == "Allow":
                raise IoError("audit disk gone")
            return original(**kwargs)
        m.setattr(env.gateway._audit_log, "append", broken_append)
        with pytest.raises(IoError):
            attempt(env, role)
    outcomes.append(store_consistent(env) and "fi" not in env.gateway.state.resources)

    assert outcomes == [True] * 5
    report("8 no-partial-write (5/5 injected faults left stores consistent)")
