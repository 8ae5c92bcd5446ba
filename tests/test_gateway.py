"""Gateway behavior: authenticated flows, routing, grants, rotation,
break-glass, auditing, fault-injection consistency, and confinement."""

from __future__ import annotations

import base64
import copy
import dataclasses
import json
import logging
import os
import shutil

import pytest

import hrbac.envelope as envelope
import hrbac.gateway as gateway_mod
import hrbac.stores as stores_mod
from hrbac.audit import AuditAction, AuditLog, verify_chain
from hrbac.envelope import SealedBlob, open_blob, unwrap_key
from hrbac.errors import (
    AccessDenied,
    BackendUnavailable,
    CycleError,
    FormatError,
    HrbacError,
    IntegrityMismatch,
    IoError,
    NameInvalid,
    NotFound,
    NotGranted,
    OverrideDisabled,
    RandomnessUnavailable,
    TokenInvalid,
    Unauthorized,
    UnknownRole,
    UnwrapFailure,
    ValidationError,
)
from hrbac.gateway import Gateway, SessionContext
from hrbac.httpapi import BlobServer
from hrbac.policy import Action, Permission, PolicyEngine, UserKind
from hrbac.stores import (
    Classification,
    FilesystemBlobStore,
    PLANE_PRIVATE,
    PLANE_PUBLIC,
    RemoteBlobStore,
    blob_dir,
    load_private,
)

from conftest import NOW, Env, MemoryBlobStore, corrupt_pem, is_blob_name, make_env

MARKER = b"TOP-SECRET-MARKER-7f3a9c"


def provision(env, bits=1024):
    """Role with keypair, an owner, and a reader holding the role."""
    gw = env.gateway
    role = gw.add_role(env.admin, "Engineer")
    gw.ensure_role_key(env.admin, role, bits)
    env.add_actor("owner", UserKind.DATA_OWNER)
    env.add_actor("reader", UserKind.END_USER)
    gw.assign_role(env.admin, "reader", role)
    return role


def store_consistent(env) -> bool:
    """No orphan blob and no metadata without its blob, on both planes."""
    state = env.gateway.state
    expected_public = {
        m.blob_ref.name for m in state.resources.values() if m.blob_ref.plane == PLANE_PUBLIC
    }
    expected_private = {
        m.blob_ref.name for m in state.resources.values() if m.blob_ref.plane == PLANE_PRIVATE
    }
    return (
        set(env.gateway._public.names()) == expected_public
        and set(state.blobs) == expected_private
    )


class TestAuthentication:
    def test_bad_token_rejected_and_audited(self, env):
        provision(env)
        bad = SessionContext("owner", "wrong-token", NOW)
        with pytest.raises(TokenInvalid):
            env.gateway.download(bad, "anything")
        fails = env.gateway.audit_log.query(action=AuditAction.AUTH_FAIL)
        assert len(fails) == 1

    def test_unknown_actor_rejected(self, env):
        with pytest.raises(TokenInvalid):
            env.gateway.status(SessionContext("ghost", "tok", NOW))

    def test_token_resolution(self, env):
        provision(env)
        ctx = env.gateway.authenticate_token(env.tokens["owner"], NOW)
        assert ctx.actor == "owner"
        with pytest.raises(TokenInvalid):
            env.gateway.authenticate_token("nope", NOW)


class TestUpload:
    def test_public_upload_routes_to_public_store(self, env):
        role = provision(env)
        meta = env.gateway.upload(
            env.session("owner"), "filea", MARKER, Classification.PUBLIC, [role]
        )
        assert meta.blob_ref.plane == PLANE_PUBLIC
        assert meta.version == 1
        assert list(meta.wrapped_keys) == [role]
        assert env.gateway._public.names() == [meta.blob_ref.name]
        assert is_blob_name(meta.blob_ref.name, "filea", 1)

    def test_confidential_routes_to_private_store(self, env):
        role = provision(env)
        meta = env.gateway.upload(
            env.session("owner"), "sec", MARKER, Classification.CONFIDENTIAL, [role]
        )
        assert meta.blob_ref.plane == PLANE_PRIVATE
        assert list(env.gateway.state.blobs) == [meta.blob_ref.name]
        assert is_blob_name(meta.blob_ref.name, "sec", 1)
        assert env.gateway._public.names() == []

    @pytest.mark.parametrize("classification", list(Classification), ids=lambda c: c.plane)
    def test_id_is_checked_as_the_blob_name_it_makes(self, env, classification):
        """A new id must leave its blob name room for a 10-digit version:
        the name is the id plus 33 characters then, so an id of 222
        characters uploads and rotates to version 10, and a longer one is
        refused like any invalid name: before any audit entry and any
        write.  So are an empty id and one starting with a dot, whose blob
        name the store would list as a temp file."""
        role = provision(env)
        owner = env.session("owner")
        env.gateway.upload(owner, "r" * 222, b"x", classification, [role])
        for _ in range(9):
            meta = env.gateway.rotate_resource_key(owner, "r" * 222)
        assert meta.version == 10
        assert len(gateway_mod._blob_name("r" * 222, 10 ** 9)) == 255
        assert env.gateway.download(owner, "r" * 222) == b"x"
        log, state = env.gateway.audit_log, env.gateway.state
        before = (len(log), env.gateway._public.names(), dict(state.blobs), dict(state.resources))
        for resource_id in ("r" * 223, "r" * 231, "r" * 255, "", ".x"):
            with pytest.raises(NameInvalid):
                env.gateway.upload(owner, resource_id, b"x", classification, [role])
        assert (len(log), env.gateway._public.names(), state.blobs, state.resources) == before

    def test_end_user_upload_unauthorized(self, env):
        role = provision(env)
        with pytest.raises(Unauthorized):
            env.gateway.upload(
                env.session("reader"), "f", b"x", Classification.PUBLIC, [role]
            )
        denies = env.gateway.audit_log.query(action=AuditAction.UPLOAD, decision="Deny")
        assert len(denies) == 1

    @pytest.mark.parametrize("kind", [UserKind.OVERRIDE, UserKind.ROLE_MANAGER])
    def test_other_read_only_kinds_unauthorized(self, env, kind):
        role = provision(env)
        ctx = env.add_actor(f"actor-{kind.value}", kind)
        with pytest.raises(Unauthorized):
            env.gateway.upload(ctx, "f", b"x", Classification.PUBLIC, [role])

    def test_unknown_grant_role(self, env):
        provision(env)
        with pytest.raises(UnknownRole):
            env.gateway.upload(
                env.session("owner"), "f", b"x", Classification.PUBLIC, ["ghost"]
            )

    def test_role_without_keypair_rejected(self, env):
        provision(env)
        naked = env.gateway.add_role(env.admin, "NoKey")
        with pytest.raises(UnknownRole):
            env.gateway.upload(
                env.session("owner"), "f", b"x", Classification.PUBLIC, [naked]
            )

    def test_empty_grant_roles_rejected(self, env):
        provision(env)
        with pytest.raises(ValidationError):
            env.gateway.upload(
                env.session("owner"), "f", b"x", Classification.PUBLIC, []
            )

    def test_plaintext_never_persisted(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "p", MARKER, Classification.PUBLIC, [role])
        env.gateway.upload(env.session("owner"), "c", MARKER, Classification.CONFIDENTIAL, [role])
        public_bytes = b"".join(
            env.gateway._public.get_blob(n) for n in env.gateway._public.names()
        )
        assert MARKER not in public_bytes
        assert MARKER not in str(env.gateway.state.to_doc()).encode()

    def test_reupload_bumps_version(self, env):
        role = provision(env)
        ctx = env.session("owner")
        env.gateway.upload(ctx, "f", b"v1", Classification.PUBLIC, [role])
        meta = env.gateway.upload(ctx, "f", b"v2", Classification.PUBLIC, [role])
        assert meta.version == 2
        assert env.gateway._public.names() == [meta.blob_ref.name]
        assert env.gateway.download(ctx, "f") == b"v2"

    def test_foreign_owner_cannot_replace(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"v1", Classification.PUBLIC, [role])
        other = env.add_actor("owner2", UserKind.DATA_OWNER)
        with pytest.raises(Unauthorized):
            env.gateway.upload(other, "f", b"x", Classification.PUBLIC, [role])


class TestDownload:
    def test_authorized_round_trip(self, env):
        role = provision(env)
        payload = os.urandom(2048)
        env.gateway.upload(env.session("owner"), "f", payload, Classification.PUBLIC, [role])
        assert env.gateway.download(env.session("reader"), "f") == payload

    def test_download_verifies_digest(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        resources = env.gateway.state.resources
        resources["f"] = dataclasses.replace(resources["f"], plaintext_sha256="00" * 32)
        with pytest.raises(IntegrityMismatch):
            env.gateway.download(env.session("reader"), "f")
        denies = env.gateway.audit_log.query(action=AuditAction.DOWNLOAD, decision="Deny")
        assert denies and denies[-1].reason == "IntegrityMismatch"

    def test_user_without_role_denied_and_audited(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        stranger = env.add_actor("stranger", UserKind.END_USER)
        with pytest.raises(AccessDenied):
            env.gateway.download(stranger, "f")
        denies = env.gateway.audit_log.query(action=AuditAction.DOWNLOAD, decision="Deny")
        assert len(denies) == 1

    def test_one_role_evaluation_per_download(self, env, monkeypatch):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        calls = []
        real = PolicyEngine.effective_roles

        def counting(engine, user_id, now):
            calls.append(user_id)
            return real(engine, user_id, now)

        monkeypatch.setattr(PolicyEngine, "effective_roles", counting)
        assert env.gateway.download(env.session("reader"), "f") == b"data"
        assert calls == ["reader"]

    def test_missing_resource(self, env):
        provision(env)
        with pytest.raises(NotFound):
            env.gateway.download(env.session("reader"), "ghost")

    def test_owner_implicit_access_without_role(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"mine", Classification.PUBLIC, [role])
        assert env.gateway.state.policy.users["owner"].roles == set()
        assert env.gateway.download(env.session("owner"), "f") == b"mine"
        allows = env.gateway.audit_log.query(action=AuditAction.DOWNLOAD, decision="Allow")
        assert allows[-1].reason == "OwnerImplicit"

    def test_inherited_role_grants_download(self, env):
        role = provision(env)
        senior = env.gateway.add_role(env.admin, "Manager", juniors=[role])
        boss = env.add_actor("boss", UserKind.END_USER)
        env.gateway.assign_role(env.admin, "boss", senior)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        assert env.gateway.download(boss, "f") == b"data"

    def test_confidential_round_trip(self, env):
        role = provision(env)
        payload = os.urandom(512)
        env.gateway.upload(
            env.session("owner"), "sec", payload, Classification.CONFIDENTIAL, [role]
        )
        assert env.gateway.download(env.session("reader"), "sec") == payload


class TestOverride:
    def test_override_bypasses_policy_and_flags_entry(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        rescue = env.add_actor("rescue", UserKind.OVERRIDE)
        data = env.gateway.override_download(rescue, "f", "incident 42")
        assert data == b"data"
        entry = env.gateway.audit_log.query(action=AuditAction.OVERRIDE)[-1]
        assert entry.override_flag
        assert entry.reason == "incident 42"

    def test_disabled_override(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        rescue = env.add_actor("rescue", UserKind.OVERRIDE)
        env.gateway.set_override_enabled(env.admin, False)
        with pytest.raises(OverrideDisabled):
            env.gateway.override_download(rescue, "f", "reason")

    def test_set_params_entry_names_the_value(self, env):
        log = env.gateway.audit_log
        for enabled, reason in ((False, "SetParams override_enabled=false"),
                                (True, "SetParams override_enabled=true")):
            env.gateway.set_override_enabled(env.admin, enabled)
            assert env.gateway.state.override_enabled is enabled
            assert (log.head.action, log.head.decision, log.head.reason) == (
                "PolicyChange", "Allow", reason)

    def test_missing_justification_rejected_before_decryption(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        rescue = env.add_actor("rescue", UserKind.OVERRIDE)
        for blank in ("", "   "):
            with pytest.raises(ValidationError):
                env.gateway.override_download(rescue, "f", blank)

    def test_non_override_kind_rejected(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        with pytest.raises(Unauthorized):
            env.gateway.override_download(env.session("reader"), "f", "because")


class TestGrantRevoke:
    def test_grant_then_download_by_new_role_holder(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        other_role = env.gateway.add_role(env.admin, "Analyst")
        env.gateway.ensure_role_key(env.admin, other_role, 1024)
        analyst = env.add_actor("analyst", UserKind.END_USER)
        env.gateway.assign_role(env.admin, "analyst", other_role)
        with pytest.raises(AccessDenied):
            env.gateway.download(analyst, "f")
        env.gateway.grant_resource_access(env.session("owner"), "f", other_role)
        assert env.gateway.download(analyst, "f") == b"data"

    def test_grant_by_non_owner_data_owner_unauthorized(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        other = env.add_actor("owner2", UserKind.DATA_OWNER)
        with pytest.raises(Unauthorized):
            env.gateway.grant_resource_access(other, "f", role)

    def test_duplicate_grant_idempotent(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        env.gateway.grant_resource_access(env.session("owner"), "f", role)
        assert list(env.gateway.state.resources["f"].wrapped_keys) == [role]

    def test_revoke_then_download_denied(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        assert env.gateway.download(env.session("reader"), "f") == b"data"
        env.gateway.revoke_resource_access(env.session("owner"), "f", role)
        with pytest.raises(AccessDenied):
            env.gateway.download(env.session("reader"), "f")

    def test_revoke_last_remaining_role_allowed(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        env.gateway.revoke_resource_access(env.session("owner"), "f", role)
        assert env.gateway.state.resources["f"].wrapped_keys == {}

    def test_revoke_ungranted_role(self, env):
        role = provision(env)
        other = env.gateway.add_role(env.admin, "Other")
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        with pytest.raises(NotGranted):
            env.gateway.revoke_resource_access(env.session("owner"), "f", other)

    def test_admin_may_grant_on_any_resource(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        other_role = env.gateway.add_role(env.admin, "Analyst")
        env.gateway.ensure_role_key(env.admin, other_role, 1024)
        env.gateway.grant_resource_access(env.admin, "f", other_role)
        assert other_role in env.gateway.state.resources["f"].wrapped_keys


class TestRotation:
    def test_rotate_increments_version_and_preserves_plaintext(self, env):
        role = provision(env)
        payload = os.urandom(1024)
        env.gateway.upload(env.session("owner"), "f", payload, Classification.PUBLIC, [role])
        meta = env.gateway.rotate_resource_key(env.session("owner"), "f")
        assert meta.version == 2
        assert env.gateway.download(env.session("reader"), "f") == payload

    def test_old_blob_deleted_and_undecryptable_via_new_path(self, env):
        role = provision(env)
        first = env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC,
                                   [role])
        old_raw = env.gateway._public.get_blob(first.blob_ref.name)
        meta = env.gateway.rotate_resource_key(env.session("owner"), "f")

        assert env.gateway._public.names() == [meta.blob_ref.name]
        new_key = unwrap_key(
            meta.wrapped_keys[role], env.gateway.state.role_keys[role].private
        )
        from hrbac.errors import AuthFailure

        with pytest.raises(AuthFailure):
            open_blob(SealedBlob.from_bytes(old_raw), new_key, b"f:2")

    def test_rotate_requires_owner_or_admin(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", Classification.PUBLIC, [role])
        with pytest.raises(Unauthorized):
            env.gateway.rotate_resource_key(env.session("reader"), "f")

    def test_rotate_confidential(self, env):
        role = provision(env)
        env.gateway.upload(
            env.session("owner"), "sec", b"data", Classification.CONFIDENTIAL, [role]
        )
        rotated = env.gateway.rotate_resource_key(env.session("owner"), "sec")
        assert list(env.gateway.state.blobs) == [rotated.blob_ref.name]
        assert is_blob_name(rotated.blob_ref.name, "sec", 2)
        assert env.gateway.download(env.session("reader"), "sec") == b"data"

    @pytest.mark.parametrize("classification", list(Classification))
    @pytest.mark.parametrize("step", ["generate_data_key", "seal"])
    def test_fault_before_commit_is_one_deny(self, env, monkeypatch, step, classification):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"data", classification, [role])
        doc_before = env.gateway.state.to_doc()
        public_before = env.gateway._public.names()
        log = env.gateway.audit_log
        entries = len(log)

        def boom(*args):
            raise RandomnessUnavailable("entropy exhausted")

        monkeypatch.setattr(envelope, step, boom)
        with pytest.raises(RandomnessUnavailable):
            env.gateway.rotate_resource_key(env.session("owner"), "f")
        added = [(e.action, e.actor, e.decision, e.reason, e.resource)
                 for e in list(log)[entries:]]
        assert added == [("Rotate", "owner", "Deny", "RandomnessUnavailable", "f")]
        # the Deny entry moves only the in-memory chain head
        doc_after = env.gateway.state.to_doc()
        assert {**doc_after, "audit_head": None} == {**doc_before, "audit_head": None}
        assert env.gateway._public.names() == public_before

    def test_confidential_supersede_is_one_save(self, disk_env, monkeypatch):
        """A confidential rotate or replace is one save, whose document
        references the new blob; the superseded file is removed only once
        the Allow entry is durable, as on the public plane."""
        env = disk_env
        role = provision(env)
        owner = env.session("owner")
        env.gateway.upload(owner, "sec", b"v1", Classification.CONFIDENTIAL, [role])
        directory = blob_dir(env.gateway._private_path)
        saved, at_append = [], []
        real_save = gateway_mod.save_private
        real_append = env.gateway.audit_log.append

        def recording_save(path, state):
            real_save(path, state)
            saved.append(load_private(path).resources["sec"].blob_ref.name)

        def recording_append(**kwargs):
            at_append.append(set(os.listdir(directory)))
            return real_append(**kwargs)

        monkeypatch.setattr(gateway_mod, "save_private", recording_save)
        monkeypatch.setattr(env.gateway.audit_log, "append", recording_append)
        for supersede in (
            lambda: env.gateway.rotate_resource_key(owner, "sec"),
            lambda: env.gateway.upload(owner, "sec", b"v3", Classification.CONFIDENTIAL, [role]),
        ):
            old = env.gateway.state.resources["sec"].blob_ref.name
            new = supersede().blob_ref.name
            assert (saved[-1], at_append[-1]) == (new, {old, new})
            assert os.listdir(directory) == [new]
        assert len(saved) == 2


class TestStatus:
    def test_fresh_system_zeroes(self, env):
        report = env.gateway.status(env.admin)
        assert (report.resources, report.override_count) == (0, 0)
        assert report.users == 1  # bootstrap admin

    def test_deny_rate_from_recount(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", b"d", Classification.PUBLIC, [role])
        stranger = env.add_actor("stranger", UserKind.END_USER)
        for _ in range(3):
            with pytest.raises(AccessDenied):
                env.gateway.download(stranger, "f")
        report = env.gateway.status(env.admin)
        entries = list(env.gateway.audit_log)
        denies = sum(1 for e in entries if e.decision == "Deny")
        assert report.deny_rate == pytest.approx(denies / len(entries))

    def test_end_user_cannot_view_status(self, env):
        reader = env.add_actor("r", UserKind.END_USER)
        with pytest.raises(Unauthorized):
            env.gateway.status(reader)

    def test_role_manager_may_view_status(self, env):
        mgr = env.add_actor("mgr", UserKind.ROLE_MANAGER)
        assert env.gateway.status(mgr).users == 2


class TestMediationCompleteness:
    def test_exactly_one_entry_per_data_operation(self, env):
        role = provision(env)
        rescue = env.add_actor("rescue", UserKind.OVERRIDE)
        baseline = {a: len(env.gateway.audit_log.query(action=a)) for a in AuditAction}

        ctx = env.session("owner")
        env.gateway.upload(ctx, "f", b"data", Classification.PUBLIC, [role])          # 1 upload
        env.gateway.download(env.session("reader"), "f")                              # 1 download
        env.gateway.override_download(rescue, "f", "drill")                           # 1 override
        other_role = env.gateway.add_role(env.admin, "Analyst")
        env.gateway.ensure_role_key(env.admin, other_role, 1024)
        env.gateway.grant_resource_access(ctx, "f", other_role)                       # 1 grant
        env.gateway.revoke_resource_access(ctx, "f", other_role)                      # 1 revoke
        env.gateway.rotate_resource_key(ctx, "f")                                     # 1 rotate
        with pytest.raises(AccessDenied):
            env.gateway.download(env.add_actor("s", UserKind.END_USER), "f")          # 1 download deny

        deltas = {
            a: len(env.gateway.audit_log.query(action=a)) - baseline[a] for a in AuditAction
        }
        assert deltas[AuditAction.UPLOAD] == 1
        assert deltas[AuditAction.DOWNLOAD] == 2
        assert deltas[AuditAction.OVERRIDE] == 1
        assert deltas[AuditAction.GRANT] == 1
        assert deltas[AuditAction.REVOKE] == 1
        assert deltas[AuditAction.ROTATE] == 1
        ok, bad = verify_chain(list(env.gateway.audit_log))
        assert ok, f"chain broken at {bad}"


class TestEndUserWriteExclusion:
    def test_no_end_user_sequence_mutates_stores(self, env):
        role = provision(env)
        env.gateway.upload(env.session("owner"), "f", MARKER, Classification.PUBLIC, [role])

        def snapshot():
            doc = copy.deepcopy(env.gateway.state.to_doc())
            doc.pop("audit_head")
            blobs = {n: env.gateway._public.get_blob(n) for n in env.gateway._public.names()}
            return doc, blobs

        before = snapshot()
        reader = env.session("reader")
        env.gateway.download(reader, "f")
        for attempt in (
            lambda: env.gateway.upload(reader, "g", b"x", Classification.PUBLIC, [role]),
            lambda: env.gateway.grant_resource_access(reader, "f", role),
            lambda: env.gateway.revoke_resource_access(reader, "f", role),
            lambda: env.gateway.rotate_resource_key(reader, "f"),
            lambda: env.gateway.add_role(reader, "Sneaky"),
            lambda: env.gateway.assign_role(reader, "reader", role),
        ):
            with pytest.raises((Unauthorized, AccessDenied)):
                attempt()
        assert snapshot() == before


class TestNoPartialWrite:
    """Fault injection at each of the five upload pipeline steps."""

    def _upload(self, env, role):
        return env.gateway.upload(
            env.session("owner"), "fi", b"payload", Classification.PUBLIC, [role]
        )

    def test_fault_at_key_generation(self, env, monkeypatch):
        role = provision(env)

        def boom():
            raise RandomnessUnavailable("entropy exhausted")

        monkeypatch.setattr(envelope, "generate_data_key", boom)
        with pytest.raises(RandomnessUnavailable):
            self._upload(env, role)
        assert "fi" not in env.gateway.state.resources
        assert store_consistent(env)

    def test_fault_at_seal(self, env, monkeypatch):
        role = provision(env)

        def boom(plaintext, key, aad):
            raise RandomnessUnavailable("nonce generation failed")

        monkeypatch.setattr(envelope, "seal", boom)
        with pytest.raises(RandomnessUnavailable):
            self._upload(env, role)
        assert store_consistent(env)

    def test_fault_at_blob_write(self, env, monkeypatch):
        role = provision(env)

        def boom(name, data):
            raise BackendUnavailable("503")

        monkeypatch.setattr(env.gateway._public, "put_blob", boom)
        with pytest.raises(BackendUnavailable):
            self._upload(env, role)
        assert "fi" not in env.gateway.state.resources
        assert store_consistent(env)
        denies = env.gateway.audit_log.query(action=AuditAction.UPLOAD, decision="Deny")
        assert denies[-1].reason == "BackendUnavailable"

    def test_fault_at_metadata_save(self, env, monkeypatch):
        role = provision(env)

        def boom(path, state):
            raise IoError("disk full")

        env.gateway._private_path = "/nonexistent/forced"
        monkeypatch.setattr(gateway_mod, "save_private", boom)
        with pytest.raises(IoError):
            self._upload(env, role)
        assert "fi" not in env.gateway.state.resources
        assert store_consistent(env)
        # the implicit read permission must not survive the rollback
        perms = env.gateway.state.policy.roles[role].permissions
        assert Permission("fi", Action.READ) not in perms

    def test_fault_at_audit_append(self, env, monkeypatch):
        role = provision(env)
        original_append = env.gateway._audit_log.append

        def boom(**kwargs):
            if kwargs.get("decision") == "Allow":
                raise IoError("audit disk gone")
            return original_append(**kwargs)

        monkeypatch.setattr(env.gateway._audit_log, "append", boom)
        with pytest.raises(IoError):
            self._upload(env, role)
        assert "fi" not in env.gateway.state.resources
        assert store_consistent(env)


class TestMutationRollback:
    """A fault at the document save or at the Allow audit append of a
    grant, revoke, rotate or policy change leaves the private document
    and the public blob set as they were before the call."""

    # (env, role granted on "r", role not granted on it)
    OPS = {
        "grant": lambda env, granted, other: env.gateway.grant_resource_access(
            env.session("owner"), "r", other),
        "revoke": lambda env, granted, other: env.gateway.revoke_resource_access(
            env.session("owner"), "r", granted),
        "rotate": lambda env, granted, other: env.gateway.rotate_resource_key(
            env.session("owner"), "r"),
        "assign-role": lambda env, granted, other: env.gateway.assign_role(
            env.admin, "reader", other),
    }

    def _setup(self, env, classification) -> tuple[str, str]:
        role = provision(env)
        other = env.gateway.add_role(env.admin, "Auditor")
        env.gateway.ensure_role_key(env.admin, other, 1024)
        env.gateway.upload(env.session("owner"), "r", b"payload", classification, [role])
        return role, other

    @staticmethod
    def _observe(env):
        public = env.gateway._public
        return env.gateway.state.to_doc(), {n: public.get_blob(n) for n in public.names()}

    def _inject(self, env, monkeypatch, fault):
        if fault == "save":
            def boom(path, state):
                raise IoError("disk full")

            env.gateway._private_path = "/nonexistent/forced"
            monkeypatch.setattr(gateway_mod, "save_private", boom)
        else:
            original_append = env.gateway._audit_log.append

            def boom(**kwargs):
                if kwargs.get("decision") == "Allow":
                    raise IoError("audit disk gone")
                return original_append(**kwargs)

            monkeypatch.setattr(env.gateway._audit_log, "append", boom)

    @pytest.mark.parametrize("classification", list(Classification))
    @pytest.mark.parametrize("fault", ["save", "audit"])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_fault_rolls_back(self, env, monkeypatch, op, fault, classification):
        roles = self._setup(env, classification)
        doc_before, public_before = self._observe(env)
        entries_before = len(env.gateway.audit_log)
        self._inject(env, monkeypatch, fault)

        with pytest.raises(IoError):
            self.OPS[op](env, *roles)

        doc_after, public_after = self._observe(env)
        assert public_after == public_before
        log = env.gateway.audit_log
        if fault == "save":
            # the failure itself is audited as a Deny, which moves the head
            assert len(log) == entries_before + 1
            assert (log.head.decision, log.head.reason) == ("Deny", "IoError")
            assert doc_after.pop("audit_head")["seq"] == log.head.seq
            doc_before.pop("audit_head")
        else:
            assert len(log) == entries_before
        assert doc_after == doc_before
        assert store_consistent(env)

    @pytest.mark.parametrize("fault", ["save", "audit"])
    def test_set_params_rolls_back(self, env, monkeypatch, fault):
        self._inject(env, monkeypatch, fault)
        with pytest.raises(IoError):
            env.gateway.set_override_enabled(env.admin, False)
        assert env.gateway.state.override_enabled is True
        assert not env.gateway.audit_log.query(decision="Allow", actor="admin")[1:]

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_audit_fault_rollback_reaches_disk(self, disk_env, monkeypatch, op):
        env = disk_env
        roles = self._setup(env, Classification.CONFIDENTIAL)
        doc_before, _ = self._observe(env)
        self._inject(env, monkeypatch, "audit")
        with pytest.raises(IoError):
            self.OPS[op](env, *roles)
        assert load_private(env.gateway._private_path).to_doc() == doc_before


def provision_policy(env) -> dict:
    """``provision`` plus a keyed role "Auditor" held by user auditor, the
    first role delegated from reader to guest, and resource "r" granted
    to the first role; returns the ids ``POLICY_MUTATIONS`` use."""
    role = provision(env)
    other = env.gateway.add_role(env.admin, "Auditor")
    env.gateway.ensure_role_key(env.admin, other, 1024)
    env.add_actor("auditor", UserKind.END_USER)
    env.gateway.assign_role(env.admin, "auditor", other)
    env.add_actor("guest", UserKind.END_USER)
    delegation = env.gateway.delegate_role(env.session("reader"), "guest", role, 3600)
    env.gateway.upload(env.session("owner"), "r", b"v1", Classification.PUBLIC, [role])
    return {"role": role, "other": other, "delegation": delegation}


# each changes some access decision, effective role set or role closure
POLICY_MUTATIONS = {
    "grant": lambda env, ids: env.gateway.grant_resource_access(
        env.session("owner"), "r", ids["other"]),
    "upload-replace": lambda env, ids: env.gateway.upload(
        env.session("owner"), "r", b"v2", Classification.PUBLIC, [ids["other"]]),
    "assign-role": lambda env, ids: env.gateway.assign_role(
        env.admin, "reader", ids["other"]),
    "link-roles": lambda env, ids: env.gateway.link_roles(
        env.admin, ids["other"], ids["role"]),
    "revoke-delegation": lambda env, ids: env.gateway.revoke_delegation(
        env.admin, ids["delegation"]),
}


class TestRollbackRestoresDecisions:
    """After a failed commit the policy answers as it did before the call:
    the restored containers, closure caches and permission index, not only
    the document ``to_doc`` writes.  The fault reads every answer on the
    staged state first, so stale caches or index entries would show."""

    USERS = ("owner", "reader", "auditor", "guest")

    def _answers(self, env) -> tuple:
        policy = env.gateway.state.policy
        return (
            {u: policy.check_access(u, "r", Action.READ, NOW) for u in self.USERS},
            {u: policy.effective_roles(u, NOW) for u in self.USERS},
            {r: policy.role_closure(r) for r in policy.roles},
        )

    @pytest.mark.parametrize("fault", ["save", "audit"])
    @pytest.mark.parametrize("op", sorted(POLICY_MUTATIONS))
    def test_answers_after_rollback(self, env, monkeypatch, op, fault):
        ids = provision_policy(env)
        before = self._answers(env)
        staged = []

        def read_staged_then_fail():
            staged.append(self._answers(env))
            raise IoError("injected")

        if fault == "save":
            env.gateway._private_path = "/nonexistent/forced"
            monkeypatch.setattr(
                gateway_mod, "save_private", lambda path, state: read_staged_then_fail())
        else:
            original_append = env.gateway._audit_log.append

            def append(**kwargs):
                if kwargs.get("decision") == "Allow":
                    read_staged_then_fail()
                return original_append(**kwargs)

            monkeypatch.setattr(env.gateway._audit_log, "append", append)

        with pytest.raises(IoError):
            POLICY_MUTATIONS[op](env, ids)
        assert staged and staged[0] != before  # the mutation changed some answer
        assert self._answers(env) == before


class TestCommitCost:
    """A commit snapshots and rolls back by copying containers: the only
    trip through the policy codec is the save's ``to_doc``, and a gateway
    without a private file makes none."""

    @pytest.mark.parametrize("plane", ["file", "memory"])
    @pytest.mark.parametrize("op", sorted(POLICY_MUTATIONS))
    def test_codec_calls_per_committed_mutation(self, request, monkeypatch, op, plane):
        env = request.getfixturevalue("disk_env" if plane == "file" else "env")
        ids = provision_policy(env)
        calls = []
        real_dump, real_from = PolicyEngine.dump_state, PolicyEngine.from_state.__func__

        def counting_dump(engine):
            calls.append("dump_state")
            return real_dump(engine)

        def counting_from(cls, state):
            calls.append("from_state")
            return real_from(cls, state)

        monkeypatch.setattr(PolicyEngine, "dump_state", counting_dump)
        monkeypatch.setattr(PolicyEngine, "from_state", classmethod(counting_from))
        POLICY_MUTATIONS[op](env, ids)
        assert calls == (["dump_state"] if plane == "file" else [])


class TestBootstrap:
    """Bootstrap commits like any mutation: a failed save is one Deny,
    and a failed audit append leaves no admin in the saved document."""

    def test_audit_fault_saves_no_user(self, tmp_path, monkeypatch):
        path, log = str(tmp_path / "private.json"), AuditLog(str(tmp_path / "audit.log"))

        def boom(**kwargs):
            raise IoError("audit disk gone")

        monkeypatch.setattr(log, "append", boom)
        with pytest.raises(IoError):
            Gateway.bootstrap(MemoryBlobStore(), log, private_path=path, now=NOW)
        assert len(AuditLog(str(tmp_path / "audit.log"))) == 0
        assert load_private(path).policy.users == {}

    def test_save_fault_is_one_deny(self, monkeypatch):
        def boom(path, state):
            raise IoError("disk full")

        monkeypatch.setattr(gateway_mod, "save_private", boom)
        log = AuditLog()
        with pytest.raises(IoError):
            Gateway.bootstrap(MemoryBlobStore(), log, private_path="/nonexistent/forced", now=NOW)
        assert [(e.action, e.actor, e.decision, e.reason) for e in log.query()] == [
            ("PolicyChange", "admin", "Deny", "IoError")]


def saved_blob_faults(env) -> list[str]:
    """What is wrong with the private plane as saved: a confidential
    resource whose blob file is missing or does not open to its recorded
    plaintext (stale bytes), or a blob file no resource references."""
    path = env.gateway._private_path
    state = load_private(path)
    refs = {m.blob_ref.name: rid for rid, m in state.resources.items()
            if m.blob_ref.plane == PLANE_PRIVATE}
    files = {n for n in os.listdir(blob_dir(path)) if not n.startswith(".")}
    faults = [f"missing {n}" for n in sorted(set(refs) - files)]
    faults += [f"orphan {n}" for n in sorted(files - set(refs))]
    reader = Gateway(state, MemoryBlobStore(), AuditLog())
    for name, rid in sorted(refs.items()):
        if name in files:
            try:
                reader.download(env.session(state.resources[rid].owner), rid)
            except HrbacError as exc:
                faults.append(f"{name}: {type(exc).__name__}")
    return faults


class TestPrivateBlobFiles:
    """Confidential blobs are files beside the document.  After a fault at
    any step of a save, no saved document references a blob file that is
    missing or holds other bytes, and the next successful save leaves no
    file that no resource references."""

    @staticmethod
    def _setup(env) -> str:
        role = provision(env)
        env.gateway.upload(env.session("owner"), "sec", b"v1", Classification.CONFIDENTIAL,
                           [role])
        return role

    @staticmethod
    def _fail_blob_puts(env, monkeypatch):
        directory = blob_dir(env.gateway._private_path)
        real = FilesystemBlobStore.put_blob

        def put_blob(store, name, data):
            if store._dir == directory:
                raise BackendUnavailable("blob write failed: disk full")
            return real(store, name, data)

        monkeypatch.setattr(FilesystemBlobStore, "put_blob", put_blob)

    @staticmethod
    def _fail_document_rename(env, monkeypatch):
        path = env.gateway._private_path
        real = os.replace

        def replace(src, dst):
            if os.path.abspath(dst) == path:
                raise OSError("rename failed")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    def _next_save_leaves_no_orphan(self, env, role):
        env.gateway.grant_resource_access(env.session("owner"), "sec", role)
        assert saved_blob_faults(env) == []

    @pytest.mark.parametrize("fault", ["blob-put", "document-rename"])
    def test_failed_save_of_a_replace(self, disk_env, monkeypatch, fault):
        env = disk_env
        role = self._setup(env)
        if fault == "blob-put":
            self._fail_blob_puts(env, monkeypatch)
        else:
            self._fail_document_rename(env, monkeypatch)
        with pytest.raises(IoError):
            env.gateway.upload(env.session("owner"), "sec", b"v2",
                               Classification.CONFIDENTIAL, [role])
        # the file the failed save created is gone again
        assert saved_blob_faults(env) == []
        assert load_private(env.gateway._private_path).resources["sec"].version == 1
        monkeypatch.undo()
        self._next_save_leaves_no_orphan(env, role)
        assert env.gateway.download(env.session("reader"), "sec") == b"v1"

    @pytest.mark.parametrize("op", ["replace", "rotate"])
    def test_failed_allow_append_keeps_the_superseded_blob(self, disk_env, monkeypatch, op):
        """The superseded file is removed only after the Allow entry, so the
        re-save after a failed append keeps it and removes the new one."""
        env = disk_env
        role = self._setup(env)
        first = env.gateway.state.resources["sec"].blob_ref.name
        _fail_allow_appends(env, monkeypatch)
        with pytest.raises(IoError):
            if op == "replace":
                env.gateway.upload(env.session("owner"), "sec", b"v2",
                                   Classification.CONFIDENTIAL, [role])
            else:
                env.gateway.rotate_resource_key(env.session("owner"), "sec")
        assert saved_blob_faults(env) == []
        saved = load_private(env.gateway._private_path)
        assert (saved.resources["sec"].version, list(saved.blobs)) == (1, [first])
        monkeypatch.undo()
        self._next_save_leaves_no_orphan(env, role)

    @pytest.mark.parametrize("fault", ["blob-put", "document-rename", "allow-append"])
    def test_retried_upload_gets_a_fresh_name(self, disk_env, monkeypatch, fault):
        env = disk_env
        role = self._setup(env)
        names = []
        real_name = gateway_mod._blob_name
        monkeypatch.setattr(gateway_mod, "_blob_name",
                            lambda *args: names.append(real_name(*args)) or names[-1])
        owner = env.session("owner")
        with monkeypatch.context() as faults:
            {"blob-put": self._fail_blob_puts,
             "document-rename": self._fail_document_rename,
             "allow-append": _fail_allow_appends}[fault](env, faults)
            with pytest.raises(IoError):
                env.gateway.upload(owner, "new", b"first try", Classification.CONFIDENTIAL,
                                   [role])
        meta = env.gateway.upload(owner, "new", b"second try", Classification.CONFIDENTIAL,
                                  [role])
        first, second = names
        assert first != second == meta.blob_ref.name
        assert is_blob_name(first, "new", 1) and is_blob_name(second, "new", 1)
        assert saved_blob_faults(env) == []
        reloaded = Gateway(load_private(env.gateway._private_path), MemoryBlobStore(), AuditLog())
        assert reloaded.download(owner, "new") == b"second try"

    def test_legacy_home_migrates_on_the_next_commit(self, disk_env):
        env = disk_env
        role = self._setup(env)
        path = env.gateway._private_path
        # rewrite the home in the older layout: base64 blobs in the document
        doc = json.load(open(path))
        directory = blob_dir(path)
        doc["blobs"] = {
            name: base64.b64encode(open(os.path.join(directory, name), "rb").read()).decode()
            for name in os.listdir(directory)
        }
        json.dump(doc, open(path, "w"))
        shutil.rmtree(directory)

        gw = Gateway(load_private(path), env.gateway._public, env.gateway.audit_log,
                     private_path=path)
        assert gw.download(env.session("reader"), "sec") == b"v1"
        assert not os.path.exists(directory)  # a read writes nothing
        gw.add_role(env.admin, "Auditor")
        assert "blobs" not in json.load(open(path))
        migrated = Env(gw, env.admin, env.tokens)
        assert saved_blob_faults(migrated) == []
        assert store_consistent(migrated)
        assert Gateway(load_private(path), MemoryBlobStore(), AuditLog()).download(
            env.session("reader"), "sec") == b"v1"



class TestRollbackKeepsNamedBlobs:
    """A failed commit deletes its new blob only once no saved document
    names it, on both planes.  A save that fails after its document is in
    place (here the home directory's fsync) is undone by saving the
    restored state first; when that save, or the re-save after a failed
    Allow append, fails too, the saved document still names the new blob,
    so the blob stays and the saved state still serves the resource."""

    OPS = {
        "replace": lambda env, cls, role: env.gateway.upload(
            env.session("owner"), "doc", b"v2", cls, [role]),
        "rotate": lambda env, cls, role: env.gateway.rotate_resource_key(
            env.session("owner"), "doc"),
    }

    @staticmethod
    def _fail_home_fsync_once(env, monkeypatch):
        home = os.path.dirname(env.gateway._private_path)
        real = stores_mod.fsync_directory
        failed = []

        def fsync_directory(directory):
            if directory == home and not failed:
                failed.append(directory)
                raise OSError("fsync failed")
            return real(directory)

        monkeypatch.setattr(stores_mod, "fsync_directory", fsync_directory)

    @staticmethod
    def _fail_document_renames_after_one(env, monkeypatch):
        path, real = env.gateway._private_path, os.replace
        renames = []

        def replace(src, dst):
            if os.path.abspath(dst) == path:
                renames.append(dst)
                if len(renames) > 1:
                    raise OSError("rename failed")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    @pytest.mark.parametrize("classification", list(Classification), ids=lambda c: c.plane)
    @pytest.mark.parametrize("fault", ["fsync", "fsync+rename", "allow", "allow+rename"])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_failed_commit_keeps_what_the_saved_document_names(
            self, disk_env, monkeypatch, op, fault, classification):
        env = disk_env
        role = provision(env)
        owner = env.session("owner")
        env.gateway.upload(owner, "doc", b"v1", classification, [role])
        entries = len(env.gateway.audit_log)
        with monkeypatch.context() as faults:
            if fault.startswith("fsync"):
                self._fail_home_fsync_once(env, faults)
            else:
                _fail_allow_appends(env, faults)
            if fault.endswith("+rename"):
                self._fail_document_renames_after_one(env, faults)
            with pytest.raises(IoError):
                self.OPS[op](env, classification, role)

        # a failed save is one Deny entry; a failed Allow append leaves none
        assert len(env.gateway.audit_log) == entries + fault.startswith("fsync")
        saved = load_private(env.gateway._private_path)
        meta = saved.resources["doc"]
        assert meta.version == (2 if fault.endswith("+rename") else 1)
        reader = Gateway(saved, env.gateway._public, AuditLog())
        expected = b"v2" if op == "replace" and meta.version == 2 else b"v1"
        assert reader.download(owner, "doc") == expected
        if meta.version == 1:  # the new blob is gone from both planes
            assert saved_blob_faults(env) == []
            assert store_consistent(env)


def private_names(gateway: Gateway) -> tuple[set, set, set]:
    """The private plane's names three ways: the state's blobs, the files
    in its blob directory, and the private ``blob_ref`` names."""
    directory = blob_dir(gateway._private_path)
    files = {n for n in os.listdir(directory) if not n.startswith(".")} if os.path.isdir(
        directory) else set()
    refs = {m.blob_ref.name for m in gateway.state.resources.values()
            if m.blob_ref.plane == PLANE_PRIVATE}
    return set(gateway.state.blobs), files, refs


class TestWriteOnceNames:
    """No blob name is put twice, on either plane: an upload, replace or
    rotate that fails at the blob put, the document rename or the Allow
    append, and then succeeds on a retry, puts every name once.  After
    every successful commit the private plane's names agree three ways."""

    OPS = {
        "upload": lambda env, cls, role: env.gateway.upload(
            env.session("owner"), "new", b"new", cls, [role]),
        "replace": lambda env, cls, role: env.gateway.upload(
            env.session("owner"), "sec", b"v2", cls, [role]),
        "rotate": lambda env, cls, role: env.gateway.rotate_resource_key(
            env.session("owner"), "sec"),
    }

    @pytest.fixture
    def puts(self, monkeypatch) -> tuple[list[str], dict]:
        """Every name passed to ``FilesystemBlobStore.put_blob``, on both
        planes, and a switch that makes every put fail."""
        names: list[str] = []
        failing = {"on": False}
        real = FilesystemBlobStore.put_blob

        def put_blob(store, name, data):
            names.append(name)
            if failing["on"]:
                raise BackendUnavailable("blob write failed: disk full")
            return real(store, name, data)

        monkeypatch.setattr(FilesystemBlobStore, "put_blob", put_blob)
        return names, failing

    @pytest.fixture
    def commits(self, monkeypatch) -> list[tuple[set, set, set]]:
        """``private_names`` after each successful commit."""
        seen = []
        real = Gateway._commit

        def commit(gateway, *args, **kwargs):
            result = real(gateway, *args, **kwargs)
            seen.append(private_names(gateway))
            return result

        monkeypatch.setattr(Gateway, "_commit", commit)
        return seen

    @pytest.mark.parametrize("fault", ["blob-put", "document-rename", "allow-append"])
    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("cls", list(Classification), ids=lambda c: c.plane)
    def test_retry_after_a_fault_puts_no_name_twice(
        self, disk_env, monkeypatch, puts, commits, cls, op, fault
    ):
        env = disk_env
        names, failing = puts
        role = provision(env)
        env.gateway.upload(env.session("owner"), "sec", b"v1", cls, [role])
        with monkeypatch.context() as faults:
            if fault == "blob-put":
                faults.setitem(failing, "on", True)
            elif fault == "document-rename":
                TestPrivateBlobFiles._fail_document_rename(env, faults)
            else:
                _fail_allow_appends(env, faults)
            with pytest.raises(HrbacError):
                self.OPS[op](env, cls, role)
        meta = self.OPS[op](env, cls, role)

        assert len(names) == len(set(names)), names
        assert is_blob_name(meta.blob_ref.name, meta.resource_id, meta.version)
        assert commits and all(blobs == files == refs for blobs, files, refs in commits)
        assert store_consistent(env) and saved_blob_faults(env) == []


class TestBlobFileCost:
    """A commit writes only the blob files it adds: a grant, revoke or
    policy change puts none, a confidential upload or rotation one, and
    the document's size does not grow with confidential payloads."""

    OPS = {
        "grant": lambda env, ids: env.gateway.grant_resource_access(
            env.session("owner"), "sec", ids["other"]),
        "revoke": lambda env, ids: env.gateway.revoke_resource_access(
            env.session("owner"), "sec", ids["role"]),
        "assign-role": lambda env, ids: env.gateway.assign_role(
            env.admin, "reader", ids["other"]),
        "delegate-role": lambda env, ids: env.gateway.delegate_role(
            env.session("reader"), "auditor", ids["role"], 3600),
    }

    @pytest.fixture
    def puts(self, monkeypatch) -> list[str]:
        """The names ``FilesystemBlobStore.put_blob`` writes, in call order."""
        names: list[str] = []
        real = FilesystemBlobStore.put_blob

        def counting(store, name, data):
            names.append(name)
            return real(store, name, data)

        monkeypatch.setattr(FilesystemBlobStore, "put_blob", counting)
        return names

    @staticmethod
    def _setup(env) -> dict:
        ids = provision_policy(env)
        env.gateway.upload(env.session("owner"), "sec", os.urandom(4096),
                           Classification.CONFIDENTIAL, [ids["role"]])
        return ids

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_access_and_policy_changes_put_no_blob(self, disk_env, puts, op):
        ids = self._setup(disk_env)
        saves = len(puts)
        self.OPS[op](disk_env, ids)
        assert puts[saves:] == []

    @pytest.mark.parametrize("op", ["upload", "replace", "rotate"])
    def test_confidential_write_puts_one_blob(self, disk_env, puts, op):
        env = disk_env
        ids = self._setup(env)
        owner = env.session("owner")
        saves = len(puts)
        if op == "rotate":
            meta = env.gateway.rotate_resource_key(owner, "sec")
        else:
            rid = "new" if op == "upload" else "sec"
            meta = env.gateway.upload(owner, rid, b"v2", Classification.CONFIDENTIAL,
                                      [ids["role"]])
        assert puts[saves:] == [meta.blob_ref.name]

    def test_document_size_does_not_depend_on_payload_size(self, disk_env):
        """A replace changes only fixed-width fields of the record (and the
        chain head's seq, here 6 -> 7), so the document keeps its size."""
        env = disk_env
        role = provision(env)
        sizes = []
        for size in (100_000, 900_000):
            env.gateway.upload(env.session("owner"), "sec", os.urandom(size),
                               Classification.CONFIDENTIAL, [role])
            sizes.append(os.path.getsize(env.gateway._private_path))
        assert sizes[0] == sizes[1]


class TestDurableOrder:
    """Every rename is followed by an fsync of its directory, so a new
    blob's name is durable before the document that references it, and
    the document before the Allow entry that reports it."""

    def test_confidential_upload(self, disk_env, monkeypatch):
        env = disk_env
        role = provision(env)
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            calls.append(("rename", os.path.abspath(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        env.gateway.upload(env.session("owner"), "sec", MARKER, Classification.CONFIDENTIAL,
                           [role])
        monkeypatch.undo()

        path = env.gateway._private_path
        labels = {
            "blob": os.path.join(blob_dir(path), env.gateway.state.resources["sec"].blob_ref.name),
            "blob directory": blob_dir(path),
            "document": path,
            "home": os.path.dirname(path),
            "audit log": env.gateway.audit_log._path,
        }
        by_inode = {os.stat(p).st_ino: label for label, p in labels.items()}
        by_path = {p: label for label, p in labels.items()}
        seen = [(kind, (by_inode if kind == "fsync" else by_path).get(target, target))
                for kind, target in calls]
        assert seen == [
            ("fsync", "blob"), ("rename", "blob"), ("fsync", "blob directory"),
            ("fsync", "document"), ("rename", "document"), ("fsync", "home"),
            ("fsync", "audit log"),
        ]


class TestPersistenceAcrossRestart:
    def test_full_state_survives_reload(self, disk_env, tmp_path):
        env = disk_env
        role = provision(env)
        payload = os.urandom(256)
        env.gateway.upload(env.session("owner"), "f", payload, Classification.PUBLIC, [role])
        env.gateway.upload(env.session("owner"), "s", payload, Classification.CONFIDENTIAL, [role])

        reloaded_state = load_private(env.gateway._private_path)
        reloaded = Gateway(
            reloaded_state,
            env.gateway._public,
            AuditLog(),
            private_path=None,
        )
        assert reloaded.download(env.session("reader"), "f") == payload
        assert reloaded.download(env.session("reader"), "s") == payload


class TestRoleKeysOnFirstUse:
    """A gateway over a reloaded document parses only the role keys its
    operations use; a key that fails validation fails, audited, only
    the operations that use it."""

    def _reload(self, env, corrupt_role=None) -> Gateway:
        path = env.gateway._private_path
        if corrupt_role is not None:
            doc = json.load(open(path))
            entry = doc["role_keys"][corrupt_role]
            entry["private_pem"] = corrupt_pem(entry["private_pem"])
            json.dump(doc, open(path, "w"))
        return Gateway(load_private(path), env.gateway._public, env.gateway.audit_log,
                       private_path=path)

    def _setup(self, env) -> tuple[str, str]:
        role = provision(env)
        other = env.gateway.add_role(env.admin, "Auditor")
        env.gateway.ensure_role_key(env.admin, other, 1024)
        env.add_actor("aud", UserKind.END_USER)
        env.gateway.assign_role(env.admin, "aud", other)
        for rid, classification in (("pub", Classification.PUBLIC),
                                    ("conf", Classification.CONFIDENTIAL)):
            env.gateway.upload(env.session("owner"), rid, b"payload", classification,
                               [role, other])
        env.gateway.upload(env.session("owner"), "eng", b"payload", Classification.PUBLIC,
                           [role])
        return role, other

    def test_load_parses_no_key_and_a_download_parses_one(self, disk_env, pem_loads):
        role, _ = self._setup(disk_env)
        gw = self._reload(disk_env)
        assert pem_loads == []
        assert gw.download(disk_env.session("reader"), "pub") == b"payload"
        assert pem_loads == [role]

    def test_corrupt_key_fails_only_its_users(self, disk_env):
        env = disk_env
        role, other = self._setup(env)
        gw = self._reload(env, corrupt_role=other)
        doc_before = gw.state.to_doc()
        public_before = set(gw._public.names())
        log = gw.audit_log

        for rid in ("pub", "conf"):
            assert gw.download(env.session("reader"), rid) == b"payload"
        attempts = [
            lambda: gw.download(env.session("aud"), "pub"),
            lambda: gw.upload(env.session("owner"), "new", b"x", Classification.CONFIDENTIAL,
                              [role, other]),
            lambda: gw.upload(env.session("owner"), "pub", b"x", Classification.PUBLIC, [other]),
            lambda: gw.grant_resource_access(env.session("owner"), "eng", other),
            lambda: gw.rotate_resource_key(env.session("owner"), "conf"),
        ]
        for attempt in attempts:
            entries = len(log)
            with pytest.raises(FormatError):
                attempt()
            assert len(log) == entries + 1
            assert (log.head.decision, log.head.reason) == ("Deny", "FormatError")

        doc_after = gw.state.to_doc()
        assert doc_after.pop("audit_head")["seq"] == log.head.seq
        doc_before.pop("audit_head")
        assert doc_after == doc_before
        assert set(gw._public.names()) == public_before
        assert store_consistent(Env(gw, env.admin, env.tokens))


    def test_owner_download_falls_back_past_a_corrupt_first_role(self, disk_env, caplog):
        env = disk_env
        corrupt = min(self._setup(env))
        gw = self._reload(env, corrupt_role=corrupt)
        log = gw.audit_log
        for rid in ("pub", "conf"):
            entries = len(log)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hrbac.gateway"):
                assert gw.download(env.session("owner"), rid) == b"payload"
            assert len(log) == entries + 1
            assert (log.head.decision, log.head.reason) == ("Allow", "OwnerImplicit")
            # the skipped key is named, with the resource and the error class
            [record] = caplog.records
            assert record.levelno == logging.WARNING
            for word in (rid, corrupt, "FormatError"):
                assert word in record.getMessage()

class TestCorruptPrivateBlob:
    """A confidential blob file whose bytes are not a sealed blob (here the
    texts that were corrupt base64 in the older layout) is refused,
    audited, by the read that opens it; the home still loads."""

    @pytest.mark.parametrize("text", ["QUJD!", "QUJ"])
    def test_download_is_one_format_error_deny(self, disk_env, text):
        env = disk_env
        role = provision(env)
        env.gateway.upload(env.session("owner"), "sec", MARKER, Classification.CONFIDENTIAL,
                           [role])
        path = env.gateway._private_path
        name = env.gateway.state.resources["sec"].blob_ref.name
        with open(os.path.join(blob_dir(path), name), "wb") as fh:
            fh.write(text.encode())
        gw = Gateway(load_private(path), env.gateway._public, env.gateway.audit_log,
                     private_path=path)
        log = gw.audit_log
        entries = len(log)
        with pytest.raises(FormatError) as caught:
            gw.download(env.session("reader"), "sec")
        assert [(e.action, e.actor, e.decision, e.reason, e.resource)
                for e in list(log)[entries:]] == [
            ("Download", "reader", "Deny", "FormatError", "sec")]
        assert MARKER not in str(caught.value).encode()


class TestPlaneSeparation:
    def test_public_store_scan(self, disk_env):
        """The serialized public plane contains no plaintext, no private
        key material, and no policy fragments."""
        env = disk_env
        role = provision(env)
        env.gateway.upload(env.session("owner"), "pub", MARKER, Classification.PUBLIC, [role])
        env.gateway.upload(env.session("owner"), "cn", MARKER, Classification.CONFIDENTIAL, [role])

        public_bytes = b"".join(
            env.gateway._public.get_blob(n) for n in env.gateway._public.names()
        )
        assert MARKER not in public_bytes
        assert b"PRIVATE KEY" not in public_bytes
        for fragment in (b'"roles"', b'"users"', b'"sod"', role.encode()):
            assert fragment not in public_bytes

    def test_confidential_never_in_public_plane(self, env):
        import random

        role = provision(env)
        rng = random.Random(5)
        for i in range(25):
            classification = rng.choice(list(Classification))
            env.gateway.upload(
                env.session("owner"), f"r{i}", os.urandom(64), classification, [role]
            )
        for meta in env.gateway.state.resources.values():
            if meta.classification is Classification.CONFIDENTIAL:
                assert meta.blob_ref.plane == PLANE_PRIVATE
                assert meta.blob_ref.name not in env.gateway._public.names()


    def test_remote_public_plane_gets_no_confidential_write(self, tmp_path, monkeypatch):
        """With a remote public backend, a confidential upload, replace and
        rotate send it nothing; each private blob file is a sealed blob."""
        server = BlobServer().start()
        try:
            public = RemoteBlobStore(server.url)
            env = make_env(private_path=str(tmp_path / "private.json"), public_store=public)
            role = provision(env)
            requests = []
            real = public._request

            def recording(method, path, body=None):
                requests.append((method, path))
                return real(method, path, body)

            monkeypatch.setattr(public, "_request", recording)
            owner = env.session("owner")
            directory = blob_dir(env.gateway._private_path)
            for write in (
                lambda: env.gateway.upload(owner, "cn", MARKER, Classification.CONFIDENTIAL,
                                           [role]),
                lambda: env.gateway.upload(owner, "cn", MARKER + b"-2",
                                           Classification.CONFIDENTIAL, [role]),
                lambda: env.gateway.rotate_resource_key(owner, "cn"),
            ):
                meta = write()
                [name] = os.listdir(directory)
                assert name == meta.blob_ref.name
                data = open(os.path.join(directory, name), "rb").read()
                assert data[:4] == b"HRB1"
                assert MARKER not in data
            assert env.gateway.download(env.session("reader"), "cn") == MARKER + b"-2"
            assert (requests, server.blobs) == ([], {})
        finally:
            server.stop()


def _tamper(env, rid, **changes):
    """Replace fields of ``rid``'s metadata in the in-memory state."""
    state = env.gateway.state
    state.resources[rid] = dataclasses.replace(state.resources[rid], **changes)


def _corrupt_wrapped_keys(env, rid):
    wrapped = env.gateway.state.resources[rid].wrapped_keys
    _tamper(env, rid, wrapped_keys={
        role: dataclasses.replace(wk, ciphertext=wk.ciphertext[:-1] + bytes([wk.ciphertext[-1] ^ 1]))
        for role, wk in wrapped.items()
    })


def _fail_allow_appends(env, monkeypatch):
    original_append = env.gateway._audit_log.append

    def boom(**kwargs):
        if kwargs.get("decision") == "Allow":
            raise IoError("audit disk gone")
        return original_append(**kwargs)

    monkeypatch.setattr(env.gateway._audit_log, "append", boom)


def _fail_public_put(env, monkeypatch):
    def boom(name, data):
        raise BackendUnavailable("503")

    monkeypatch.setattr(env.gateway._public, "put_blob", boom)


class TestDenyEntries:
    """Every path that refuses an operation, with the exact audit entries
    it adds: (action, actor, decision, reason, resource).

    Set-up: role ``eng`` with a key, held by ``reader``; role ``aud``
    with a key, not granted on anything; role ``keyless`` without a key,
    held by ``keyed`` and given READ on ``doc`` by policy only; ``doc``
    is a public resource of ``owner`` granted to ``eng``."""

    # name -> (prepare, act, expected exception, expected entries)
    CASES = {
        "upload-non-writer": (
            None,
            lambda env, r: env.gateway.upload(
                env.session("reader"), "new", b"x", Classification.PUBLIC, [r["eng"]]),
            Unauthorized, [("Upload", "reader", "Deny", "Unauthorized", "new")]),
        "upload-replace-by-non-owner": (
            None,
            lambda env, r: env.gateway.upload(
                env.session("owner2"), "doc", b"x", Classification.PUBLIC, [r["eng"]]),
            Unauthorized, [("Upload", "owner2", "Deny", "Unauthorized", "doc")]),
        "upload-no-grants": (
            None,
            lambda env, r: env.gateway.upload(
                env.session("owner"), "new", b"x", Classification.PUBLIC, []),
            ValidationError, [("Upload", "owner", "Deny", "NoGrantRoles", "new")]),
        "upload-unknown-role": (
            None,
            lambda env, r: env.gateway.upload(
                env.session("owner"), "new", b"x", Classification.PUBLIC, ["nope"]),
            UnknownRole, [("Upload", "owner", "Deny", "UnknownRole", "new")]),
        "upload-keyless-role": (
            None,
            lambda env, r: env.gateway.upload(
                env.session("owner"), "new", b"x", Classification.PUBLIC, [r["keyless"]]),
            UnknownRole, [("Upload", "owner", "Deny", "UnknownRole", "new")]),
        "upload-backend-failure": (
            _fail_public_put,
            lambda env, r: env.gateway.upload(
                env.session("owner"), "new", b"x", Classification.PUBLIC, [r["eng"]]),
            BackendUnavailable, [("Upload", "owner", "Deny", "BackendUnavailable", "new")]),
        "upload-invalid-name": (
            None,
            lambda env, r: env.gateway.upload(
                env.session("owner"), "Bad Name", b"x", Classification.PUBLIC, [r["eng"]]),
            NameInvalid, []),
        "download-missing": (
            None,
            lambda env, r: env.gateway.download(env.session("reader"), "ghost"),
            NotFound, [("Download", "reader", "Deny", "NotFound", "ghost")]),
        "download-policy-denial": (
            None,
            lambda env, r: env.gateway.download(env.session("outsider"), "doc"),
            AccessDenied, [("Download", "outsider", "Deny", "NoRole", "doc")]),
        "download-no-granting-role": (
            None,
            lambda env, r: env.gateway.download(env.session("keyed"), "doc"),
            AccessDenied, [("Download", "keyed", "Deny", "NoGrantingRole", "doc")]),
        "download-digest-mismatch": (
            lambda env, mp: _tamper(env, "doc", plaintext_sha256="0" * 64),
            lambda env, r: env.gateway.download(env.session("reader"), "doc"),
            IntegrityMismatch, [("Download", "reader", "Deny", "IntegrityMismatch", "doc")]),
        "download-unwrap-failure": (
            lambda env, mp: _corrupt_wrapped_keys(env, "doc"),
            lambda env, r: env.gateway.download(env.session("reader"), "doc"),
            UnwrapFailure, [("Download", "reader", "Deny", "UnwrapFailure", "doc")]),
        "override-wrong-kind": (
            None,
            lambda env, r: env.gateway.override_download(env.session("reader"), "doc", "why"),
            Unauthorized, [("Override", "reader", "Deny", "Unauthorized", "doc")]),
        "override-disabled": (
            lambda env, mp: setattr(env.gateway.state, "override_enabled", False),
            lambda env, r: env.gateway.override_download(env.session("rescue"), "doc", "why"),
            OverrideDisabled, [("Override", "rescue", "Deny", "OverrideDisabled", "doc")]),
        # a document older than the member, loaded without a config to fill it
        "override-unset": (
            lambda env, mp: setattr(env.gateway.state, "override_enabled", None),
            lambda env, r: env.gateway.override_download(env.session("rescue"), "doc", "why"),
            OverrideDisabled, [("Override", "rescue", "Deny", "OverrideDisabled", "doc")]),
        "override-no-justification": (
            None,
            lambda env, r: env.gateway.override_download(env.session("rescue"), "doc", "  "),
            ValidationError, [("Override", "rescue", "Deny", "JustificationMissing", "doc")]),
        "override-missing": (
            None,
            lambda env, r: env.gateway.override_download(env.session("rescue"), "ghost", "why"),
            NotFound, [("Override", "rescue", "Deny", "NotFound", "ghost")]),
        "grant-missing": (
            None,
            lambda env, r: env.gateway.grant_resource_access(
                env.session("owner"), "ghost", r["aud"]),
            NotFound, [("Grant", "owner", "Deny", "NotFound", "ghost")]),
        "grant-not-owner": (
            None,
            lambda env, r: env.gateway.grant_resource_access(
                env.session("owner2"), "doc", r["aud"]),
            Unauthorized, [("Grant", "owner2", "Deny", "Unauthorized", "doc")]),
        "grant-unknown-role": (
            None,
            lambda env, r: env.gateway.grant_resource_access(env.session("owner"), "doc", "nope"),
            UnknownRole, [("Grant", "owner", "Deny", "UnknownRole", "doc")]),
        "grant-keyless-role": (
            None,
            lambda env, r: env.gateway.grant_resource_access(
                env.session("owner"), "doc", r["keyless"]),
            UnknownRole, [("Grant", "owner", "Deny", "UnknownRole", "doc")]),
        "grant-unwrap-failure": (
            lambda env, mp: _corrupt_wrapped_keys(env, "doc"),
            lambda env, r: env.gateway.grant_resource_access(
                env.session("owner"), "doc", r["aud"]),
            UnwrapFailure, [("Grant", "owner", "Deny", "UnwrapFailure", "doc")]),
        "revoke-missing": (
            None,
            lambda env, r: env.gateway.revoke_resource_access(
                env.session("owner"), "ghost", r["eng"]),
            NotFound, [("Revoke", "owner", "Deny", "NotFound", "ghost")]),
        "revoke-not-owner": (
            None,
            lambda env, r: env.gateway.revoke_resource_access(
                env.session("owner2"), "doc", r["eng"]),
            Unauthorized, [("Revoke", "owner2", "Deny", "Unauthorized", "doc")]),
        "revoke-unknown-role": (
            None,
            lambda env, r: env.gateway.revoke_resource_access(env.session("owner"), "doc", "nope"),
            NotGranted, [("Revoke", "owner", "Deny", "NotGranted", "doc")]),
        "revoke-not-granted": (
            None,
            lambda env, r: env.gateway.revoke_resource_access(
                env.session("owner"), "doc", r["aud"]),
            NotGranted, [("Revoke", "owner", "Deny", "NotGranted", "doc")]),
        "rotate-missing": (
            None,
            lambda env, r: env.gateway.rotate_resource_key(env.session("owner"), "ghost"),
            NotFound, [("Rotate", "owner", "Deny", "NotFound", "ghost")]),
        "rotate-not-owner": (
            None,
            lambda env, r: env.gateway.rotate_resource_key(env.session("owner2"), "doc"),
            Unauthorized, [("Rotate", "owner2", "Deny", "Unauthorized", "doc")]),
        "rotate-unwrap-failure": (
            lambda env, mp: _corrupt_wrapped_keys(env, "doc"),
            lambda env, r: env.gateway.rotate_resource_key(env.session("owner"), "doc"),
            UnwrapFailure, [("Rotate", "owner", "Deny", "UnwrapFailure", "doc")]),
        "admin-wrong-kind": (
            None,
            lambda env, r: env.gateway.add_role(env.session("owner"), "Extra"),
            Unauthorized, [("PolicyChange", "owner", "Deny", "Unauthorized", None)]),
        "admin-cycle": (
            None,
            lambda env, r: env.gateway.link_roles(env.admin, r["eng"], r["eng"]),
            CycleError, [("PolicyChange", "admin", "Deny", "CycleError", None)]),
        "auth-bad-session-token": (
            None,
            lambda env, r: env.gateway.download(SessionContext("owner", "wrong", NOW), "doc"),
            TokenInvalid, [("AuthFail", "owner", "Deny", "TokenInvalid", None)]),
        "auth-unknown-actor": (
            None,
            lambda env, r: env.gateway.upload(
                SessionContext("ghost", "wrong", NOW), "new", b"x", Classification.PUBLIC, []),
            TokenInvalid, [("AuthFail", "ghost", "Deny", "TokenInvalid", None)]),
        "auth-bad-bearer-token": (
            None,
            lambda env, r: env.gateway.authenticate_token("wrong", NOW),
            TokenInvalid, [("AuthFail", "unknown", "Deny", "TokenInvalid", None)]),
        "status-denied": (
            None,
            lambda env, r: env.gateway.status(env.session("reader")),
            Unauthorized, []),
        "upload-allow-append-fault": (
            _fail_allow_appends,
            lambda env, r: env.gateway.upload(
                env.session("owner"), "new", b"x", Classification.PUBLIC, [r["eng"]]),
            IoError, []),
        "download-allow-append-fault": (
            _fail_allow_appends,
            lambda env, r: env.gateway.download(env.session("reader"), "doc"),
            IoError, []),
        "override-allow-append-fault": (
            _fail_allow_appends,
            lambda env, r: env.gateway.override_download(env.session("rescue"), "doc", "why"),
            IoError, []),
        "grant-allow-append-fault": (
            _fail_allow_appends,
            lambda env, r: env.gateway.grant_resource_access(
                env.session("owner"), "doc", r["aud"]),
            IoError, []),
        "admin-allow-append-fault": (
            _fail_allow_appends,
            lambda env, r: env.gateway.add_role(env.admin, "Extra"),
            IoError, []),
    }

    @staticmethod
    def _setup(env) -> dict[str, str]:
        gw = env.gateway
        roles = {"eng": provision(env)}
        roles["aud"] = gw.add_role(env.admin, "Auditor")
        gw.ensure_role_key(env.admin, roles["aud"], 1024)
        roles["keyless"] = gw.add_role(env.admin, "Keyless")
        for user, kind in (("owner2", UserKind.DATA_OWNER), ("outsider", UserKind.END_USER),
                           ("keyed", UserKind.END_USER), ("rescue", UserKind.OVERRIDE)):
            env.add_actor(user, kind)
        gw.assign_role(env.admin, "keyed", roles["keyless"])
        gw.upload(env.session("owner"), "doc", b"payload", Classification.PUBLIC, [roles["eng"]])
        gw.grant_permission(env.admin, roles["keyless"], Permission("doc", Action.READ))
        return roles

    @pytest.mark.parametrize("case", list(CASES))
    def test_entries_added(self, env, monkeypatch, case):
        prepare, act, error, expected = self.CASES[case]
        roles = self._setup(env)
        if prepare is not None:
            prepare(env, monkeypatch)
        doc_before = env.gateway.state.to_doc()
        log = env.gateway.audit_log
        entries = len(log)

        with pytest.raises(error):
            act(env, roles)

        added = [(e.action, e.actor, e.decision, e.reason, e.resource)
                 for e in list(log)[entries:]]
        assert added == expected
        if not expected:
            # nothing was audited, so nothing may have changed
            assert env.gateway.state.to_doc() == doc_before
        assert store_consistent(env)


class TestWrapMemo:
    """A role key pair remembers the data keys it wraps, so reading back a
    version this gateway sealed or granted makes no RSA decryption, while
    a freshly loaded gateway makes one; the memo changes no outcome."""

    @staticmethod
    def _setup(env) -> tuple[str, str]:
        role = provision(env)
        other = env.gateway.add_role(env.admin, "Auditor")
        env.gateway.ensure_role_key(env.admin, other, 1024)
        env.add_actor("aud", UserKind.END_USER)
        env.gateway.assign_role(env.admin, "aud", other)
        env.gateway.upload(env.session("owner"), "doc", b"v1", Classification.CONFIDENTIAL,
                           [role])
        return role, other

    @staticmethod
    def _reload(env) -> Gateway:
        path = env.gateway._private_path
        return Gateway(load_private(path), env.gateway._public, env.gateway.audit_log,
                       private_path=path)

    # name -> (write after the first upload, reader, bytes read)
    WRITES = {
        "upload": (lambda env, other: env.gateway.upload(
            env.session("owner"), "doc", b"v2", Classification.CONFIDENTIAL, [other]),
            "aud", b"v2"),
        "grant": (lambda env, other: env.gateway.grant_resource_access(
            env.session("owner"), "doc", other), "aud", b"v1"),
        "rotate": (lambda env, other: env.gateway.rotate_resource_key(
            env.session("owner"), "doc"), "reader", b"v1"),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_read_after_write_makes_no_rsa_decryption(self, disk_env, rsa_unwraps, write):
        env = disk_env
        _, other = self._setup(env)
        act, reader, expected = self.WRITES[write]
        act(env, other)  # grant and rotate unwrap the first version's key
        assert env.gateway.download(env.session(reader), "doc") == expected
        assert rsa_unwraps == []
        assert self._reload(env).download(env.session(reader), "doc") == expected
        assert len(rsa_unwraps) == 1

    @pytest.mark.parametrize("tamper", ["flipped", "swapped"])
    def test_tampered_wrapped_key_fails_after_a_good_read(self, env, rsa_unwraps, tamper):
        role, other = self._setup(env)
        env.gateway.grant_resource_access(env.session("owner"), "doc", other)
        assert env.gateway.download(env.session("reader"), "doc") == b"v1"
        if tamper == "flipped":
            _corrupt_wrapped_keys(env, "doc")
        else:  # each role's entry holds the other role's ciphertext
            wrapped = env.gateway.state.resources["doc"].wrapped_keys
            _tamper(env, "doc", wrapped_keys={
                role: dataclasses.replace(wrapped[other], role=role),
                other: dataclasses.replace(wrapped[role], role=other),
            })
        log = env.gateway.audit_log
        with pytest.raises(UnwrapFailure):
            env.gateway.download(env.session("reader"), "doc")
        assert (log.head.action, log.head.decision, log.head.reason) == (
            "Download", "Deny", "UnwrapFailure")
        assert rsa_unwraps == [role]

    def test_failed_replace_leaves_the_old_version(self, disk_env, monkeypatch, rsa_unwraps):
        env = disk_env
        role, _ = self._setup(env)

        def boom(path, state):
            raise IoError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(gateway_mod, "save_private", boom)
            with pytest.raises(IoError):
                env.gateway.upload(env.session("owner"), "doc", b"v2",
                                   Classification.CONFIDENTIAL, [role])
        assert env.gateway.download(env.session("reader"), "doc") == b"v1"
        assert self._reload(env).download(env.session("reader"), "doc") == b"v1"
        assert len(rsa_unwraps) == 1

    def test_every_entry_is_what_rsa_unwrap_returns(self, env):
        role, other = self._setup(env)
        gw = env.gateway
        gw.upload(env.session("owner"), "pub", b"p", Classification.PUBLIC, [role, other])
        gw.grant_resource_access(env.session("owner"), "doc", other)
        gw.rotate_resource_key(env.session("owner"), "doc")
        gw.upload(env.session("owner"), "pub", b"p2", Classification.PUBLIC, [other])
        memos = {r: gw.state.role_keys[r]._memo for r in (role, other)}
        assert all(memos.values())
        for r, memo in memos.items():
            private = gw.state.role_keys[r].private
            for ciphertext, data_key in memo.items():
                wrapped = envelope.WrappedKey(r, envelope.WRAP_SCHEME, ciphertext)
                assert unwrap_key(wrapped, private) == data_key
