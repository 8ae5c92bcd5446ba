"""Service orchestration: authenticates actors, routes uploads and
downloads through policy and crypto, manages grants, revocations, key
rotation, and break-glass override, and audits every decision.

Commit discipline for mutating operations (``Gateway._commit``, the one
path every mutation takes, bootstrap's first admin included): snapshot,
stage changes in memory, persist the private document, then append the
audit entry.  The audit append is the last step before success is
reported; if it fails the operation fails and staged changes are rolled
back (audit-or-abort).  A failure after the blob write compensates by
deleting the blob once no saved document names it, so a failed upload
never leaves an orphan blob or metadata without its blob.  A superseded
blob goes after the entry.

Every refusal is audited the same way (``Gateway._audited``, the one
deny path): an ``HrbacError`` that escapes the guarded block is recorded
as a Deny entry with the error's ``reason``, then re-raised.

Upload and rotation seal a resource version in one place
(``Gateway._seal``).  A download asks the policy once and unwraps
through the roles that decision was made on.  Data keys are wrapped and
unwrapped through the role's ``RoleKeyPair``, which remembers the keys
it wraps (a bounded memo), so reading back a version this gateway sealed
or granted needs no RSA decryption; a freshly loaded gateway starts
with empty memos.

Every record the state holds (resource metadata and the policy's roles,
users and delegations) is frozen and replaced, never changed in place, so
a snapshot copies containers and a rollback puts them back; neither goes
through the document codec.  The break-glass switch is a member too, so
a grant, revoke or policy change writes the private document alone; an
upload or rotation of a confidential resource also writes its one new
blob file in that save.  Every seal names its blob afresh (``_blob_name``),
so no name is written twice.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import hmac
import secrets
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import envelope
from .audit import ALLOW, DENY, AuditAction, AuditEntry, AuditLog
from .envelope import DataKey, SealedBlob, WrappedKey
from .errors import (
    AccessDenied,
    FormatError,
    HrbacError,
    IntegrityMismatch,
    IoError,
    NotFound,
    NotGranted,
    OverrideDisabled,
    TokenInvalid,
    Unauthorized,
    UnknownRole,
    UnwrapFailure,
    ValidationError,
)
from .policy import Action, Permission, UserKind, UserRecord
from .stores import (
    BlobRef,
    BlobStore,
    Classification,
    FilesystemBlobStore,
    PLANE_PRIVATE,
    PLANE_PUBLIC,
    PrivateState,
    ResourceMeta,
    blob_dir,
    check_name,
    save_private,
    validate_state,
)

_WRITE_KINDS = (UserKind.DATA_OWNER, UserKind.ADMIN)
_MANAGER_KINDS = (UserKind.ADMIN, UserKind.ROLE_MANAGER)


@dataclass
class SystemParams:
    default_modulus_bits: int = 2048


@dataclass(frozen=True)
class SessionContext:
    actor: str
    token: str
    now: float


@dataclass
class StatusReport:
    users: int
    roles: int
    resources: int
    audit_entries: int
    deny_rate: float
    override_count: int
    recent: list[AuditEntry] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "users": self.users,
            "roles": self.roles,
            "resources": self.resources,
            "audit_entries": self.audit_entries,
            "deny_rate": self.deny_rate,
            "override_count": self.override_count,
            "recent": [e.to_line() for e in self.recent],
        }


def _token_digest(token: str) -> str:
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def _aad(resource_id: str, version: int) -> bytes:
    # binds ciphertext to (resource, version) so blobs cannot be swapped
    return f"{resource_id}:{version}".encode("utf-8")


def _blob_name(resource_id: str, version: int) -> str:
    return f"{resource_id}.{version}.{secrets.token_hex(8)}.blob"


class Gateway:
    def __init__(
        self,
        state: PrivateState,
        public_store: BlobStore,
        audit_log: AuditLog,
        params: Optional[SystemParams] = None,
        private_path: Optional[str] = None,
    ) -> None:
        self._state = state
        self._public = public_store
        self._audit_log = audit_log
        self.params = params or SystemParams()
        self._private_path = private_path
        # a loaded document's head is the one before its last save, and the
        # log has grown since; it is moved to the log's head only when the
        # log holds it, so that a log cut short stays detectable
        head = audit_log.head
        if head is not None and audit_log.holds(state.audit_head):
            state.audit_head = {"seq": head.seq, "entry_hash": head.entry_hash}

    @property
    def state(self) -> PrivateState:
        return self._state

    @property
    def audit_log(self) -> AuditLog:
        return self._audit_log

    @classmethod
    def bootstrap(
        cls,
        public_store: BlobStore,
        audit_log: AuditLog,
        params: Optional[SystemParams] = None,
        private_path: Optional[str] = None,
        admin_id: str = "admin",
        now: float = 0.0,
    ) -> tuple["Gateway", str]:
        """Create a fresh system with one Admin user; returns the gateway
        and the admin's one-time-visible API token.  The admin is added
        through ``_commit``, so no saved document holds an unaudited one."""
        gateway = cls(PrivateState(), public_store, audit_log, params, private_path)
        token = secrets.token_urlsafe(24)
        gateway._commit(
            SessionContext(admin_id, token, now), AuditAction.POLICY_CHANGE, None, "Bootstrap",
            lambda: gateway._state.policy.add_user(
                admin_id, UserKind.ADMIN, _token_digest(token)),
        )
        return gateway, token

    # -- plumbing --------------------------------------------------------

    def _persist(self) -> None:
        if self._private_path is not None:
            save_private(self._private_path, self._state)
        else:
            validate_state(self._state)

    def _audit_entry(
        self,
        ts: float,
        actor: str,
        action: AuditAction,
        decision: str,
        reason: str,
        resource: Optional[str] = None,
        override_flag: bool = False,
    ) -> AuditEntry:
        entry = self._audit_log.append(
            ts=ts,
            actor=actor,
            action=action,
            decision=decision,
            reason=reason,
            resource=resource,
            override_flag=override_flag,
        )
        self._state.audit_head = {"seq": entry.seq, "entry_hash": entry.entry_hash}
        return entry

    @contextlib.contextmanager
    def _audited(
        self, ctx: SessionContext, action: AuditAction, resource: Optional[str] = None
    ):
        """Audit an ``HrbacError`` escaping the block as a Deny with the
        error's ``reason``, then re-raise it."""
        try:
            yield
        except HrbacError as exc:
            self._audit_entry(ctx.now, ctx.actor, action, DENY, exc.reason, resource)
            raise

    def authenticate(self, ctx: SessionContext) -> UserRecord:
        """The session's user; a bad token is audited and rejected."""
        user = self._state.policy.users.get(ctx.actor)
        presented = _token_digest(ctx.token)
        if user is None or not hmac.compare_digest(presented, user.token_digest):
            self._audit_entry(
                ctx.now, ctx.actor, AuditAction.AUTH_FAIL, DENY, "TokenInvalid"
            )
            raise TokenInvalid(f"authentication failed for {ctx.actor}")
        return user

    def authenticate_token(self, token: str, now: float) -> SessionContext:
        """Resolve a bearer token to a session; audits and rejects unknown
        tokens."""
        presented = _token_digest(token)
        for user in self._state.policy.users.values():
            if user.token_digest and hmac.compare_digest(presented, user.token_digest):
                return SessionContext(actor=user.id, token=token, now=now)
        self._audit_entry(now, "unknown", AuditAction.AUTH_FAIL, DENY, "TokenInvalid")
        raise TokenInvalid("bearer token does not match any user")

    def _roll_back(self, snapshot: dict, new_ref: Optional[BlobRef], resave: bool) -> None:
        """Put the snapshot back and delete ``new_ref`` once no saved
        document names it: when the saved document may be the failed
        commit's (``resave``), only after the restored state is saved,
        and not at all if that save fails too."""
        self._state.restore(snapshot)  # drops a private new_ref; a save removes its file
        if resave:
            try:
                self._persist()
            except HrbacError:
                return  # the in-memory state is authoritative; the next save retries
        if new_ref is not None and new_ref.plane == PLANE_PUBLIC:
            self._delete_blob(new_ref)

    def _commit(
        self,
        ctx: SessionContext,
        action: AuditAction,
        resource: Optional[str],
        allow_reason: str,
        stage: Callable[[], object],
        new_ref: Optional[BlobRef] = None,
        old_ref: Optional[BlobRef] = None,
    ):
        """Stage a mutation, persist it, then audit it as Allowed.

        ``stage`` changes the in-memory state and may write ``new_ref``;
        ``old_ref`` is the blob the mutation supersedes, deleted only once
        the Allow entry is durable, so a failed commit never needs it
        written again.  If staging or the save fails, the snapshot is
        restored, ``new_ref`` deleted and the failure audited as a Deny;
        if the audit append fails, or the save failed after its document
        was in place, the same rollback is saved before ``new_ref`` goes.
        """
        snapshot = self._state.snapshot()
        with self._audited(ctx, action, resource):
            try:
                result = stage()
                self._persist()
            except HrbacError as exc:
                replaced = isinstance(exc, IoError) and exc.replaced
                self._roll_back(snapshot, new_ref, resave=replaced)
                raise
        # outside the audited block: a failed Allow append is not a Deny
        try:
            self._audit_entry(ctx.now, ctx.actor, action, ALLOW, allow_reason, resource)
        except HrbacError:
            self._roll_back(snapshot, new_ref, resave=True)
            raise
        if old_ref is not None:
            self._delete_blob(old_ref)
        return result

    def _plane_store(self, plane: str):
        return self._state if plane == PLANE_PRIVATE else self._public

    def _delete_blob(self, ref: BlobRef) -> None:
        try:
            self._plane_store(ref.plane).delete_blob(ref.name)
            if ref.plane == PLANE_PRIVATE and self._private_path is not None:
                FilesystemBlobStore(blob_dir(self._private_path)).delete_blob(ref.name)
        except (HrbacError, OSError):
            pass  # compensation is best-effort; consistency check tolerates absence

    def _unwrap_any(self, meta: ResourceMeta, roles: Optional[Iterable[str]] = None) -> DataKey:
        # a role whose key is corrupt falls through to the next candidate;
        # the first error is raised only when every candidate fails
        first_error: Optional[HrbacError] = None
        for role in sorted(meta.wrapped_keys if roles is None else roles):
            keypair = self._state.role_keys.get(role)
            if keypair is None:
                continue
            try:
                return keypair.unwrap(meta.wrapped_keys[role])
            except (FormatError, UnwrapFailure) as exc:
                import logging  # only here: a cold CLI import does not load it

                logging.getLogger(__name__).warning(
                    "resource %s: unwrap through role %s failed with %s",
                    meta.resource_id, role, type(exc).__name__,
                )
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        raise AccessDenied(
            f"no usable wrapped key for resource {meta.resource_id}",
            reason="NoGrantingRole",
        )

    # -- administration (audited as PolicyChange) -------------------------

    def _admin_op(
        self,
        ctx: SessionContext,
        op_name: str,
        kinds: tuple[UserKind, ...],
        fn: Callable[[UserRecord], object],
    ):
        user = self.authenticate(ctx)
        with self._audited(ctx, AuditAction.POLICY_CHANGE):
            if user.kind not in kinds:
                raise Unauthorized(f"{user.kind.value} may not perform {op_name}")
        return self._commit(
            ctx, AuditAction.POLICY_CHANGE, None, op_name, lambda: fn(user)
        )

    def create_user(self, ctx: SessionContext, user_id: str, kind: UserKind) -> str:
        """Register an actor; returns their one-time-visible API token."""
        token = secrets.token_urlsafe(24)

        def run(_: UserRecord):
            self._state.policy.add_user(user_id, kind, _token_digest(token))

        self._admin_op(ctx, "CreateUser", (UserKind.ADMIN,), run)
        return token

    def add_role(self, ctx: SessionContext, name: str, juniors: Iterable[str] = ()) -> str:
        return self._admin_op(
            ctx, "AddRole", (UserKind.ADMIN,),
            lambda _: self._state.policy.add_role(name, juniors),
        )

    def link_roles(self, ctx: SessionContext, senior: str, junior: str) -> None:
        self._admin_op(
            ctx, "LinkRoles", (UserKind.ADMIN,),
            lambda _: self._state.policy.link_roles(senior, junior),
        )

    def grant_permission(self, ctx: SessionContext, role: str, perm: Permission) -> None:
        self._admin_op(
            ctx, "GrantPermission", (UserKind.ADMIN,),
            lambda _: self._state.policy.grant_permission(role, perm),
        )

    def add_sod_constraint(self, ctx: SessionContext, role_a: str, role_b: str) -> None:
        self._admin_op(
            ctx, "AddSodConstraint", (UserKind.ADMIN,),
            lambda _: self._state.policy.add_sod_constraint(role_a, role_b),
        )

    def assign_role(self, ctx: SessionContext, user_id: str, role: str) -> None:
        self._admin_op(
            ctx, "AssignRole", _MANAGER_KINDS,
            lambda _: self._state.policy.assign_role(user_id, role),
        )

    def revoke_role(self, ctx: SessionContext, user_id: str, role: str) -> None:
        self._admin_op(
            ctx, "RevokeRole", _MANAGER_KINDS,
            lambda _: self._state.policy.revoke_role(user_id, role),
        )

    def delegate_role(
        self, ctx: SessionContext, to_user: str, role: str, ttl_seconds: float
    ) -> str:
        """Self-service: the session actor delegates a directly-held role."""
        return self._admin_op(
            ctx, "Delegate", tuple(UserKind),
            lambda user: self._state.policy.delegate_role(
                user.id, to_user, role, ttl_seconds, ctx.now
            ),
        )

    def revoke_delegation(self, ctx: SessionContext, delegation_id: str) -> None:
        def run(user: UserRecord):
            delegation = self._state.policy.delegations.get(delegation_id)
            if delegation is not None and user.kind not in _MANAGER_KINDS:
                if delegation.from_user != user.id:
                    raise Unauthorized("only the delegator or a role manager may revoke")
            self._state.policy.revoke_delegation(delegation_id)

        self._admin_op(ctx, "RevokeDelegation", tuple(UserKind), run)

    def ensure_role_key(
        self, ctx: SessionContext, role: str, modulus_bits: Optional[int] = None
    ) -> int:
        """Generate the role's RSA keypair if absent; returns modulus bits."""

        def run(_: UserRecord) -> int:
            if role not in self._state.policy.roles:
                raise UnknownRole(f"no such role: {role}")
            existing = self._state.role_keys.get(role)
            if existing is not None:
                return existing.modulus_bits
            bits = modulus_bits or self.params.default_modulus_bits
            self._state.role_keys[role] = envelope.generate_role_keypair(role, bits)
            return bits

        return self._admin_op(ctx, "EnsureRoleKey", (UserKind.ADMIN,), run)

    def set_override_enabled(self, ctx: SessionContext, enabled: bool) -> None:
        def run(_: UserRecord):
            self._state.override_enabled = enabled

        value = "true" if enabled else "false"  # the Allow entry names it
        self._admin_op(ctx, f"SetParams override_enabled={value}", (UserKind.ADMIN,), run)

    # -- data path ---------------------------------------------------------

    def upload(
        self,
        ctx: SessionContext,
        resource_id: str,
        plaintext: bytes,
        classification: Classification,
        grant_roles: Iterable[str],
    ) -> ResourceMeta:
        user = self.authenticate(ctx)
        grant_roles = sorted(set(grant_roles))
        existing = self._state.resources.get(resource_id)
        with self._audited(ctx, AuditAction.UPLOAD, resource_id):
            if user.kind not in _WRITE_KINDS:
                raise Unauthorized(f"{user.kind.value} may not upload")
            if existing is not None and existing.owner != user.id and user.kind is not UserKind.ADMIN:
                raise Unauthorized("only the owner or an admin may replace a resource")
            if not grant_roles:
                raise ValidationError("grant_roles must be non-empty", reason="NoGrantRoles")
        version = existing.version + 1 if existing else 1
        ref = BlobRef(classification.plane, _blob_name(resource_id, version))
        # refused unaudited: a bad id, or a new one (version 1) whose blob
        # name leaves no room for a 10-digit version, 9 characters more
        check_name(ref.name if existing else ref.name + "0" * 9)
        with self._audited(ctx, AuditAction.UPLOAD, resource_id):
            self._require_keyed_roles(grant_roles)

        def stage() -> ResourceMeta:
            wrapped = self._seal(ref, resource_id, version, plaintext, grant_roles)
            meta = self._state.resources[resource_id] = ResourceMeta(
                resource_id=resource_id,
                owner=user.id,
                classification=classification,
                blob_ref=ref,
                plaintext_sha256=hashlib.sha256(plaintext).hexdigest(),
                size_bytes=len(plaintext),
                version=version,
                wrapped_keys=wrapped,
                created_at=ctx.now,
            )
            for role in grant_roles:
                self._state.policy.grant_permission(
                    role, Permission(resource_id, Action.READ)
                )
            if existing is not None:
                for role in existing.wrapped_keys:
                    if role not in wrapped:
                        self._state.policy.revoke_permission(
                            role, Permission(resource_id, Action.READ)
                        )
            return meta

        return self._commit(
            ctx, AuditAction.UPLOAD, resource_id, "Granted", stage,
            new_ref=ref, old_ref=existing.blob_ref if existing else None,
        )

    def _seal(
        self, ref: BlobRef, resource_id: str, version: int, plaintext: bytes,
        roles: Iterable[str],
    ) -> dict[str, WrappedKey]:
        """Seal a resource version under a fresh data key, wrapped for
        each role first and the blob put last, so a role key that fails
        its first-use validation writes no blob; returns the wrapped keys."""
        data_key = envelope.generate_data_key()
        wrapped = {role: self._state.role_keys[role].wrap(data_key) for role in roles}
        blob = envelope.seal(plaintext, data_key, _aad(resource_id, version))
        self._plane_store(ref.plane).put_blob(ref.name, blob.to_bytes())
        return wrapped

    def _read_and_open(self, meta: ResourceMeta, data_key: DataKey) -> bytes:
        raw = self._plane_store(meta.blob_ref.plane).get_blob(meta.blob_ref.name)
        blob = SealedBlob.from_bytes(raw)
        plaintext = envelope.open_blob(
            blob, data_key, _aad(meta.resource_id, meta.version)
        )
        if hashlib.sha256(plaintext).hexdigest() != meta.plaintext_sha256:
            raise IntegrityMismatch(
                f"decrypted bytes disagree with recorded digest for {meta.resource_id}"
            )
        return plaintext

    def download(self, ctx: SessionContext, resource_id: str) -> bytes:
        user = self.authenticate(ctx)
        with self._audited(ctx, AuditAction.DOWNLOAD, resource_id):
            meta = self._state.resources.get(resource_id)
            if meta is None:
                raise NotFound(f"no such resource: {resource_id}")

            # owners are decided on too: the decision's roles pick the key
            decision = self._state.policy.check_access(
                user.id, resource_id, Action.READ, ctx.now
            )
            owner_implicit = meta.owner == user.id
            reason = "OwnerImplicit" if owner_implicit else decision.reason.value
            if not (owner_implicit or decision.allowed):
                raise AccessDenied(f"read of {resource_id} denied: {reason}", reason=reason)
            granting = [r for r in meta.wrapped_keys if r in decision.roles]
            if granting:
                data_key = self._unwrap_any(meta, granting)
            elif owner_implicit:
                # server-mediated recovery: the private store holds every
                # role key, so the owner is not blocked on role membership
                data_key = self._unwrap_any(meta)
            else:
                raise AccessDenied(
                    f"no granting role for {resource_id}", reason="NoGrantingRole"
                )
            plaintext = self._read_and_open(meta, data_key)
        self._audit_entry(
            ctx.now, ctx.actor, AuditAction.DOWNLOAD, ALLOW, reason, resource_id
        )
        return plaintext

    def override_download(self, ctx: SessionContext, resource_id: str, reason: str) -> bytes:
        user = self.authenticate(ctx)
        with self._audited(ctx, AuditAction.OVERRIDE, resource_id):
            if user.kind is not UserKind.OVERRIDE:
                raise Unauthorized(f"{user.kind.value} may not use override access")
            if not self._state.override_enabled:  # None (unset) refuses too
                raise OverrideDisabled("break-glass override is disabled")
            if not reason or not reason.strip():
                raise ValidationError(
                    "override requires a justification reason", reason="JustificationMissing"
                )
            meta = self._state.resources.get(resource_id)
            if meta is None:
                raise NotFound(f"no such resource: {resource_id}")
            plaintext = self._read_and_open(meta, self._unwrap_any(meta))
        self._audit_entry(
            ctx.now,
            ctx.actor,
            AuditAction.OVERRIDE,
            ALLOW,
            reason.strip(),
            resource_id,
            override_flag=True,
        )
        return plaintext

    def _require_resource_admin(self, user: UserRecord, resource_id: str) -> ResourceMeta:
        meta = self._state.resources.get(resource_id)
        if meta is None:
            raise NotFound(f"no such resource: {resource_id}")
        if not (
            user.kind is UserKind.ADMIN
            or (user.kind is UserKind.DATA_OWNER and meta.owner == user.id)
        ):
            raise Unauthorized("only the resource owner or an admin may do this")
        return meta

    def _require_keyed_roles(self, roles: Iterable[str]) -> None:
        for role in roles:
            if role not in self._state.policy.roles:
                raise UnknownRole(f"no such role: {role}")
            if role not in self._state.role_keys:
                raise UnknownRole(f"role {role} has no keypair")

    def grant_resource_access(self, ctx: SessionContext, resource_id: str, role: str) -> None:
        user = self.authenticate(ctx)
        with self._audited(ctx, AuditAction.GRANT, resource_id):
            meta = self._require_resource_admin(user, resource_id)
            self._require_keyed_roles([role])

        def stage() -> None:
            if role not in meta.wrapped_keys:
                wrapped = self._state.role_keys[role].wrap(self._unwrap_any(meta))
                self._state.resources[resource_id] = dataclasses.replace(
                    meta, wrapped_keys={**meta.wrapped_keys, role: wrapped}
                )
            self._state.policy.grant_permission(
                role, Permission(resource_id, Action.READ)
            )

        self._commit(ctx, AuditAction.GRANT, resource_id, "Granted", stage)

    def revoke_resource_access(self, ctx: SessionContext, resource_id: str, role: str) -> None:
        user = self.authenticate(ctx)
        with self._audited(ctx, AuditAction.REVOKE, resource_id):
            meta = self._require_resource_admin(user, resource_id)
            if role not in meta.wrapped_keys:
                raise NotGranted(f"role {role} is not granted on {resource_id}")

        def stage() -> None:
            self._state.resources[resource_id] = dataclasses.replace(
                meta,
                wrapped_keys={r: wk for r, wk in meta.wrapped_keys.items() if r != role},
            )
            self._state.policy.revoke_permission(
                role, Permission(resource_id, Action.READ)
            )

        self._commit(ctx, AuditAction.REVOKE, resource_id, "Revoked", stage)

    def rotate_resource_key(self, ctx: SessionContext, resource_id: str) -> ResourceMeta:
        user = self.authenticate(ctx)
        with self._audited(ctx, AuditAction.ROTATE, resource_id):
            meta = self._require_resource_admin(user, resource_id)
            plaintext = self._read_and_open(meta, self._unwrap_any(meta))

        new_version = meta.version + 1
        new_ref = BlobRef(meta.blob_ref.plane, _blob_name(resource_id, new_version))

        def stage() -> ResourceMeta:
            wrapped = self._seal(new_ref, resource_id, new_version, plaintext, meta.wrapped_keys)
            rotated = self._state.resources[resource_id] = dataclasses.replace(
                meta, version=new_version, blob_ref=new_ref, wrapped_keys=wrapped
            )
            return rotated

        return self._commit(
            ctx, AuditAction.ROTATE, resource_id, "Rotated", stage,
            new_ref=new_ref, old_ref=meta.blob_ref,
        )

    def status(self, ctx: SessionContext, last_n: int = 10) -> StatusReport:
        user = self.authenticate(ctx)
        if user.kind not in _MANAGER_KINDS:
            raise Unauthorized(f"{user.kind.value} may not view status")
        log = self._audit_log
        return StatusReport(
            users=len(self._state.policy.users),
            roles=len(self._state.policy.roles),
            resources=len(self._state.resources),
            audit_entries=len(log),
            deny_rate=log.deny_count / len(log) if len(log) else 0.0,
            override_count=log.override_count,
            recent=log.recent(last_n),
        )
