"""Role hierarchy, permissions, separation of duties, delegation, and the
single access-decision function.

The hierarchy is a DAG over junior edges: ``senior.juniors`` lists the
roles directly subordinate to it, and seniors inherit the permissions of
their transitive juniors (downward closure).  Every mutation re-checks
acyclicity and separation-of-duties safety before committing, so the
structural invariants hold after any operation sequence.

Decisions are deny-by-default.  ``check_access`` applies rules in a fixed
order: the read-only-actor rule (end users never write), then role
possession, then permission match over the effective closure; the
``Decision`` carries the effective roles it was made on.
``sod_conflict_any_user`` is the one SoD scan over every user.

Records (``Role``, ``UserRecord``, ``Delegation``) are frozen and replaced,
never changed in place, so ``snapshot`` copies the four containers only.
"""

from __future__ import annotations

import uuid
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    ConflictExists,
    CycleError,
    NotAssigned,
    NotHeld,
    SodViolation,
    UnknownDelegation,
    UnknownRole,
    UnknownUser,
    ValidationError,
)


class Action(Enum):
    READ = "Read"
    WRITE = "Write"


class UserKind(Enum):
    ADMIN = "Admin"
    ROLE_MANAGER = "RoleManager"
    DATA_OWNER = "DataOwner"
    END_USER = "EndUser"
    OVERRIDE = "Override"


class DecisionReason(Enum):
    NO_ROLE = "NoRole"
    NO_PERMISSION = "NoPermission"
    READ_ONLY_ACTOR = "ReadOnlyActor"
    GRANTED = "Granted"


@dataclass(frozen=True)
class Permission:
    """A grantable (resource pattern, action) pair.

    The resource is an exact identifier, or a prefix pattern whose only
    wildcard is a single trailing ``*``.
    """

    resource: str
    action: Action

    def __post_init__(self) -> None:
        if not self.resource:
            raise ValidationError("permission resource must be non-empty")
        if "*" in self.resource[:-1]:
            raise ValidationError(
                f"wildcard only allowed as final character: {self.resource!r}"
            )

    def matches(self, resource: str, action: Action) -> bool:
        if action is not self.action:
            return False
        if self.resource.endswith("*"):
            return resource.startswith(self.resource[:-1])
        return resource == self.resource


@dataclass(frozen=True)
class Role:
    id: str
    name: str
    juniors: frozenset[str] = frozenset()
    permissions: frozenset[Permission] = frozenset()

    @cached_property
    def _patterns(self) -> tuple[Permission, ...]:
        # built at most once per record: a grant replaces the record
        return tuple(p for p in self.permissions if p.resource.endswith("*"))

    def grants(self, resource: str, action: Action) -> bool:
        """Whether one of the role's own permissions matches the request."""
        # no exact grant can equal a probe that is not a valid exact id
        # ("", "a*b"), and a stored pattern equal to a probe is matched below
        if resource and "*" not in resource and Permission(resource, action) in self.permissions:
            return True
        return any(p.matches(resource, action) for p in self._patterns)


@dataclass(frozen=True)
class UserRecord:
    id: str
    kind: UserKind
    roles: frozenset[str] = frozenset()
    token_digest: str = ""


@dataclass(frozen=True)
class Delegation:
    id: str
    from_user: str
    to_user: str
    role: str
    created_at: float
    expires_at: float
    revoked: bool = False

    def active(self, now: float) -> bool:
        # expiry is exclusive: the delegation is dead at exactly expires_at
        return not self.revoked and now < self.expires_at


@dataclass(frozen=True)
class Decision:
    """A ``check_access`` outcome and the effective roles it was decided on."""

    reason: DecisionReason
    roles: frozenset[str] = frozenset()

    @property
    def allowed(self) -> bool:
        return self.reason is DecisionReason.GRANTED


def _fresh_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


class PolicyEngine:
    """In-memory policy state with cached role closures; each role answers
    for its own permissions (``Role.grants``).

    Mutations require exclusive access; ``check_access`` and
    ``effective_roles`` are read-only.
    """

    def __init__(self) -> None:
        self.roles: dict[str, Role] = {}
        self.users: dict[str, UserRecord] = {}
        self.sod: set[frozenset[str]] = set()
        self.delegations: dict[str, Delegation] = {}
        self._closure_cache: dict[str, frozenset[str]] = {}

    def snapshot(self) -> tuple:
        """The four containers, copied: with frozen records, a full copy."""
        return dict(self.roles), dict(self.users), set(self.sod), dict(self.delegations)

    def restore(self, snapshot: tuple) -> None:
        """Adopt a ``snapshot()``'s containers and drop the closure cache."""
        self.roles, self.users, self.sod, self.delegations = snapshot
        self._closure_cache.clear()

    def _require_role(self, role_id: str) -> Role:
        try:
            return self.roles[role_id]
        except KeyError:
            raise UnknownRole(f"no such role: {role_id}") from None

    def _require_user(self, user_id: str) -> UserRecord:
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownUser(f"no such user: {user_id}") from None

    # -- hierarchy -----------------------------------------------------

    def add_role(self, name: str, juniors: Iterable[str] = ()) -> str:
        juniors = frozenset(juniors)
        for j in juniors:
            self._require_role(j)
        role_id = _fresh_id("role")
        self.roles[role_id] = Role(id=role_id, name=name, juniors=juniors)
        self._closure_cache.clear()
        return role_id

    def link_roles(self, senior: str, junior: str) -> None:
        senior_role = self._require_role(senior)
        self._require_role(junior)
        if junior in senior_role.juniors:
            return  # idempotent relink
        if senior == junior or senior in self.role_closure(junior):
            raise CycleError(f"linking {senior} above {junior} would form a cycle")
        self.roles[senior] = replace(senior_role, juniors=senior_role.juniors | {junior})
        self._closure_cache.clear()
        conflict = self.sod_conflict_any_user()
        if conflict is not None:
            self.roles[senior] = senior_role
            self._closure_cache.clear()
            user_id, a, b = conflict
            raise SodViolation(
                f"link would give user {user_id} both {a} and {b}"
            )

    def role_closure(self, role_id: str) -> frozenset[str]:
        """The role plus all transitive juniors."""
        cached = self._closure_cache.get(role_id)
        if cached is not None:
            return cached
        self._require_role(role_id)
        seen: set[str] = set()
        stack = [role_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.roles[current].juniors - seen)
        result = frozenset(seen)
        self._closure_cache[role_id] = result
        return result

    def role_level(self, role_id: str) -> int:
        """Length of the longest senior-chain above the role; 0 for roles
        with no seniors."""
        self._require_role(role_id)
        return self._compute_levels()[role_id]

    def _compute_levels(self) -> dict[str, int]:
        indegree = {rid: 0 for rid in self.roles}
        for role in self.roles.values():
            for j in role.juniors:
                indegree[j] += 1
        levels = {rid: 0 for rid in self.roles}
        queue = deque(rid for rid, d in indegree.items() if d == 0)
        processed = 0
        while queue:
            rid = queue.popleft()
            processed += 1
            for j in self.roles[rid].juniors:
                levels[j] = max(levels[j], levels[rid] + 1)
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if processed != len(self.roles):  # pragma: no cover - guarded by mutations
            raise CycleError("role hierarchy contains a cycle")
        return levels

    def is_acyclic(self) -> bool:
        try:
            self._compute_levels()
            return True
        except CycleError:
            return False

    # -- permissions ---------------------------------------------------

    def grant_permission(self, role_id: str, perm: Permission) -> None:
        role = self._require_role(role_id)
        if perm in role.permissions:
            return
        self.roles[role_id] = replace(role, permissions=role.permissions | {perm})

    def revoke_permission(self, role_id: str, perm: Permission) -> None:
        role = self._require_role(role_id)
        self.roles[role_id] = replace(role, permissions=role.permissions - {perm})

    # -- separation of duties ------------------------------------------

    def add_sod_constraint(self, role_a: str, role_b: str) -> None:
        if role_a == role_b:
            raise ValidationError("SoD constraint requires two distinct roles")
        self._require_role(role_a)
        self._require_role(role_b)
        pair = frozenset((role_a, role_b))
        if pair in self.sod:
            return
        self.sod.add(pair)
        conflict = self.sod_conflict_any_user()
        if conflict is not None:
            self.sod.discard(pair)
            user_id, a, b = conflict
            raise ConflictExists(f"user {user_id} already holds both {a} and {b}")

    def sod_conflict_in(self, closure: frozenset[str]) -> Optional[tuple[str, str]]:
        for pair in self.sod:
            if pair <= closure:
                a, b = sorted(pair)
                return a, b
        return None

    def sod_conflict_any_user(self) -> Optional[tuple[str, str, str]]:
        """``(user, role, role)`` for the first user whose assigned roles
        span an SoD pair, or None."""
        for user in self.users.values():
            hit = self.sod_conflict_in(self.closure_of(user.roles))
            if hit is not None:
                return user.id, hit[0], hit[1]
        return None

    # -- users and assignments -----------------------------------------

    def add_user(self, user_id: str, kind: UserKind, token_digest: str = "") -> None:
        if user_id in self.users:
            raise ValidationError(f"user already exists: {user_id}")
        self.users[user_id] = UserRecord(id=user_id, kind=kind, token_digest=token_digest)

    def assign_role(self, user_id: str, role_id: str) -> None:
        user = self._require_user(user_id)
        self._require_role(role_id)
        if role_id in user.roles:
            return
        closure = self.closure_of(user.roles | {role_id})
        hit = self.sod_conflict_in(closure)
        if hit is not None:
            raise SodViolation(
                f"assigning {role_id} to {user_id} would combine {hit[0]} and {hit[1]}"
            )
        self.users[user_id] = replace(user, roles=user.roles | {role_id})

    def revoke_role(self, user_id: str, role_id: str) -> None:
        user = self._require_user(user_id)
        if role_id not in user.roles:
            raise NotAssigned(f"user {user_id} does not hold role {role_id}")
        self.users[user_id] = replace(user, roles=user.roles - {role_id})

    # -- delegation ------------------------------------------------------

    def delegate_role(
        self,
        from_user: str,
        to_user: str,
        role_id: str,
        ttl_seconds: float,
        now: float,
    ) -> str:
        giver = self._require_user(from_user)
        receiver = self._require_user(to_user)
        self._require_role(role_id)
        if ttl_seconds <= 0:
            raise ValidationError("delegation ttl must be positive")
        if role_id not in giver.roles:
            # chains are disallowed: the role must be directly assigned,
            # not itself held through a delegation
            raise NotHeld(f"user {from_user} does not directly hold {role_id}")
        held = self._held_roles(receiver, now)
        hit = self.sod_conflict_in(self.closure_of(held | {role_id}))
        if hit is not None:
            raise SodViolation(
                f"delegating {role_id} to {to_user} would combine {hit[0]} and {hit[1]}"
            )
        delegation_id = _fresh_id("dlg")
        self.delegations[delegation_id] = Delegation(
            id=delegation_id,
            from_user=from_user,
            to_user=to_user,
            role=role_id,
            created_at=now,
            expires_at=now + ttl_seconds,
        )
        return delegation_id

    def revoke_delegation(self, delegation_id: str) -> None:
        try:
            delegation = self.delegations[delegation_id]
        except KeyError:
            raise UnknownDelegation(f"no such delegation: {delegation_id}") from None
        self.delegations[delegation_id] = replace(delegation, revoked=True)

    # -- evaluation ------------------------------------------------------

    def closure_of(self, role_ids: Iterable[str]) -> frozenset[str]:
        result: set[str] = set()
        for rid in role_ids:
            result |= self.role_closure(rid)
        return frozenset(result)

    def _held_roles(self, user: UserRecord, now: float) -> set[str]:
        """Directly held roles at ``now``: assignments plus active
        delegations, the latter admitted in creation order and dropped
        if they would introduce an SoD conflict at evaluation time."""
        held = set(user.roles)
        incoming = sorted(
            (d for d in self.delegations.values() if d.to_user == user.id),
            key=lambda d: (d.created_at, d.id),
        )
        for d in incoming:
            if not d.active(now):
                continue
            if self.sod_conflict_in(self.closure_of(held | {d.role})) is None:
                held.add(d.role)
        return held

    def effective_roles(self, user_id: str, now: float) -> frozenset[str]:
        """Downward closure of everything the user holds at ``now``."""
        return self.closure_of(self._held_roles(self._require_user(user_id), now))

    def check_access(
        self, user_id: str, resource: str, action: Action, now: float
    ) -> Decision:
        user = self._require_user(user_id)
        if user.kind is UserKind.END_USER and action is Action.WRITE:
            return Decision(DecisionReason.READ_ONLY_ACTOR)
        effective = self.effective_roles(user_id, now)
        if not effective:
            return Decision(DecisionReason.NO_ROLE)
        if any(self.roles[rid].grants(resource, action) for rid in effective):
            return Decision(DecisionReason.GRANTED, effective)
        return Decision(DecisionReason.NO_PERMISSION, effective)

    # -- serialization ---------------------------------------------------

    def dump_state(self) -> dict:
        return {
            "roles": {
                rid: {
                    "name": role.name,
                    "juniors": sorted(role.juniors),
                    "permissions": sorted(
                        [p.resource, p.action.value] for p in role.permissions
                    ),
                }
                for rid, role in sorted(self.roles.items())
            },
            "users": {
                uid: {
                    "kind": u.kind.value,
                    "roles": sorted(u.roles),
                    "token_digest": u.token_digest,
                }
                for uid, u in sorted(self.users.items())
            },
            "sod": sorted(sorted(pair) for pair in self.sod),
            "delegations": {
                did: {
                    "from_user": d.from_user,
                    "to_user": d.to_user,
                    "role": d.role,
                    "created_at": d.created_at,
                    "expires_at": d.expires_at,
                    "revoked": d.revoked,
                }
                for did, d in sorted(self.delegations.items())
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "PolicyEngine":
        engine = cls()
        for rid, r in json_object(state["roles"]).items():
            engine.roles[rid] = Role(
                id=rid,
                name=r["name"],
                juniors=frozenset(json_strings(r["juniors"])),
                permissions=frozenset(
                    Permission(resource, Action(action))
                    for resource, action in map(_permission_pair, json_array(r["permissions"]))
                ),
            )
        for uid, u in json_object(state["users"]).items():
            engine.users[uid] = UserRecord(
                id=uid,
                kind=UserKind(u["kind"]),
                roles=frozenset(json_strings(u["roles"])),
                token_digest=u.get("token_digest", ""),
            )
        for pair in json_array(state["sod"]):
            if len(set(json_strings(pair))) != 2:
                raise ValueError(f"SoD pair is not two distinct roles: {pair!r}")
            engine.sod.add(frozenset(pair))
        for did, d in json_object(state["delegations"]).items():
            engine.delegations[did] = Delegation(
                id=did,
                from_user=d["from_user"],
                to_user=d["to_user"],
                role=d["role"],
                created_at=d["created_at"],
                expires_at=d["expires_at"],
                revoked=d["revoked"],
            )
        return engine


def json_object(value) -> dict:
    """``value`` if it is a JSON object, else TypeError (not AttributeError)."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def json_array(value) -> list:
    """``value`` if it is a JSON array, else TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def json_strings(value) -> list:
    """``value`` if it is a JSON array of strings, else TypeError."""
    if not all(isinstance(item, str) for item in json_array(value)):
        raise TypeError("expected an array of strings")
    return value


def _permission_pair(value) -> list:
    if len(json_strings(value)) != 2:
        raise ValueError(f"permission is not a [resource, action] pair: {value!r}")
    return value
