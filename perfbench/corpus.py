"""Deterministic inputs and provisioning.

Everything the program receives (role hierarchy, users, grants,
delegations, resource names and bytes, the target of each op) is drawn
from the workload seed.  What would make one seed cost more than another
is fixed instead: sizes, classifications, and the share and order of op
kinds follow fixed patterns.  ``Model`` is the benchmark's own account of the policy it
provisioned; the correctness gate compares every decision the program
makes against it.

Provisioning goes through the ``Gateway`` API with the private plane
held in memory, then persists the document once with ``save_private``
and continues with a file-backed ``Gateway``.  Provisioning with a file-backed plane
rewrites the whole document per call and takes tens of seconds at the
http-mixed scale, which no run could repeat; the per-call persist cost
is what write-heavy measures in its timed phase.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from hrbac import cli
from hrbac.audit import AuditLog
from hrbac.errors import AccessDenied
from hrbac.gateway import Gateway, SessionContext, SystemParams
from hrbac.policy import UserKind
from hrbac.stores import Classification, FilesystemBlobStore, save_private

KIB = 1024
DAY = 86400.0


@dataclass(frozen=True)
class Spec:
    roles: int
    end_users: int
    no_role_users: int
    owners: int
    resources: int
    confidential_share: float
    public_sizes: tuple[int, int, float]  # low, high, skew exponent
    confidential_sizes: tuple[int, int, float]
    expired_delegations: int = 0
    active_delegations: int = 0
    history_ops: int = 0  # audited downloads run after provisioning


def skewed_sizes(n: int, low: int, high: int, skew: float) -> list[int]:
    """n sizes at the midpoints of n quantile strata of
    low*(high/low)**(q**skew): the same for every seed."""
    return [int(low * (high / low) ** (((i + 0.5) / n) ** skew)) for i in range(n)]


class Deck:
    """Draws kinds in a fixed cycle that holds ``counts[kind]`` of each
    kind, spread evenly (smooth weighted round robin).  The order is the
    same for every seed, so how often a kind follows another, which moves
    latencies, does not vary from run to run; the seed picks the targets."""

    def __init__(self, counts: dict) -> None:
        total = sum(counts.values())
        credit = dict.fromkeys(counts, 0)
        self._cards = []
        for _ in range(total):
            for kind, n in counts.items():
                credit[kind] += n
            kind = max(credit, key=credit.get)
            credit[kind] -= total
            self._cards.append(kind)
        self._next = 0

    def draw(self):
        kind = self._cards[self._next]
        self._next = (self._next + 1) % len(self._cards)
        return kind


def payload(seed: int, resource_id: str, version: int, size: int) -> bytes:
    return random.Random(f"{seed}:{resource_id}:{version}").randbytes(size)


@dataclass
class UserM:
    kind: UserKind
    token: str
    roles: set[str] = field(default_factory=set)


@dataclass
class ResourceM:
    owner: str
    grants: set[str]
    sha256: str
    size: int
    confidential: bool
    version: int = 1


@dataclass
class DelegationM:
    to_user: str
    role: str
    created_at: float
    expires_at: float


class Model:
    """The provisioned policy as the benchmark understands it."""

    def __init__(self) -> None:
        self.juniors: dict[str, set[str]] = {}
        self.sod: list[frozenset[str]] = []
        self.users: dict[str, UserM] = {}
        self.delegations: list[DelegationM] = []
        self._incoming: dict[str, list[DelegationM]] = {}
        self.resources: dict[str, ResourceM] = {}

    def closure(self, roles) -> frozenset[str]:
        seen: set[str] = set()
        stack = list(roles)
        while stack:
            role = stack.pop()
            if role not in seen:
                seen.add(role)
                stack.extend(self.juniors[role])
        return frozenset(seen)

    def conflicts(self, roles) -> bool:
        closure = self.closure(roles)
        return any(pair <= closure for pair in self.sod)

    def held(self, user_id: str, now: float) -> set[str]:
        held = set(self.users[user_id].roles)
        incoming = sorted(self._incoming.get(user_id, ()), key=lambda d: d.created_at)
        for d in incoming:
            if now < d.expires_at and not self.conflicts(held | {d.role}):
                held.add(d.role)
        return held

    def add_delegation(self, to_user: str, role: str, created_at: float, ttl: float) -> None:
        d = DelegationM(to_user, role, created_at, created_at + ttl)
        self.delegations.append(d)
        self._incoming.setdefault(to_user, []).append(d)

    def download_denial(self, user_id: str, resource_id: str, now: float) -> Optional[str]:
        """None when the read must succeed, else the expected deny reason."""
        res = self.resources.get(resource_id)
        if res is None:
            return "NotFound"
        if res.owner == user_id:
            return None if res.grants else "NoGrantingRole"
        effective = self.closure(self.held(user_id, now))
        if not effective:
            return "NoRole"
        if not res.grants & effective:
            return "NoPermission"
        return None

    def live_bytes(self) -> int:
        return sum(r.size for r in self.resources.values())


@dataclass
class Home:
    path: str
    seed: int
    gateway: Gateway
    audit: AuditLog
    model: Model
    admin: str  # admin token
    roles: list[str]  # role ids, index = rank in the hierarchy
    end_users: list[str]
    no_role_users: list[str]
    owners: list[str]
    ranked: list[str] = field(default_factory=list)  # resources, most popular first

    def ctx(self, user_id: str, now: Optional[float] = None) -> SessionContext:
        token = self.admin if user_id == "admin" else self.model.users[user_id].token
        return SessionContext(user_id, token, time.time() if now is None else now)

    @property
    def private_path(self) -> str:
        return os.path.join(self.path, cli.DEFAULT_CONFIG["private_store"])

    @property
    def audit_path(self) -> str:
        return os.path.join(self.path, cli.DEFAULT_CONFIG["audit_log"])

    @property
    def public_dir(self) -> str:
        return os.path.join(self.path, cli.DEFAULT_CONFIG["public_backend"])

    def upload_call(self, owner: str, resource_id: str, size: int, confidential: bool,
                    grants: set[str], now: Optional[float] = None):
        """A zero-argument upload call plus the model update to apply once
        it succeeds; the payload is made here, outside any timer."""
        previous = self.model.resources.get(resource_id)
        version = previous.version + 1 if previous else 1
        data = payload(self.seed, resource_id, version, size)
        ctx = self.ctx(owner, now)
        classification = Classification.CONFIDENTIAL if confidential else Classification.PUBLIC

        def call():
            return self.gateway.upload(ctx, resource_id, data, classification, sorted(grants))

        def commit():
            self.model.resources[resource_id] = ResourceM(
                owner, set(grants), hashlib.sha256(data).hexdigest(), size, confidential,
                version,
            )

        return call, commit

    def in_rank_order(self, roles) -> list[str]:
        """Role ids are random; draws iterate roles in hierarchy order."""
        return [r for r in self.roles if r in roles]

    def close(self) -> None:
        self.audit.close()


def _build_roles(home: Home, rng: random.Random, count: int, now: float) -> None:
    model, gw = home.model, home.gateway
    admin = SessionContext("admin", home.admin, now)
    for i in range(count):
        juniors = set()
        if i:
            juniors.add(home.roles[rng.randrange(i)])
            if i > 2 and rng.random() < 0.3:
                juniors.add(home.roles[rng.randrange(i)])
        role_id = gw.add_role(admin, f"r{i}", sorted(juniors))
        model.juniors[role_id] = juniors
        home.roles.append(role_id)
    for role_id in home.roles:
        gw.ensure_role_key(admin, role_id)
    # one separation-of-duties pair that no single role's closure spans
    pairs = [(a, b) for i, a in enumerate(home.roles) for b in home.roles[i + 1:]]
    rng.shuffle(pairs)
    for a, b in pairs:
        pair = frozenset((a, b))
        if not any(pair <= model.closure([r]) for r in home.roles):
            gw.add_sod_constraint(admin, a, b)
            model.sod.append(pair)
            break


def _add_user(home: Home, user_id: str, kind: UserKind, now: float) -> None:
    admin = SessionContext("admin", home.admin, now)
    token = home.gateway.create_user(admin, user_id, kind)
    home.model.users[user_id] = UserM(kind, token)


def _assign(home: Home, user_id: str, role_id: str, now: float) -> bool:
    user = home.model.users[user_id]
    if role_id in user.roles or home.model.conflicts(user.roles | {role_id}):
        return False
    home.gateway.assign_role(SessionContext("admin", home.admin, now), user_id, role_id)
    user.roles.add(role_id)
    return True


def draw_delegation(home: Home, rng: random.Random, created: float):
    """(giver, receiver, role) for a delegation the program must accept,
    or None when the draw would be refused (no role, self, SoD)."""
    model = home.model
    giver = rng.choice(home.end_users)
    receiver = rng.choice(home.end_users)
    roles = home.in_rank_order(model.users[giver].roles)
    if giver == receiver or not roles:
        return None
    role = rng.choice(roles)
    if model.conflicts(model.held(receiver, created) | {role}):
        return None
    return giver, receiver, role


def _delegate(home: Home, rng: random.Random, created: float, ttl: float) -> bool:
    drawn = draw_delegation(home, rng, created)
    if drawn is None:
        return False
    giver, receiver, role = drawn
    home.gateway.delegate_role(home.ctx(giver, created), receiver, role, ttl)
    home.model.add_delegation(receiver, role, created, ttl)
    return True


def provision(path: str, spec: Spec, seed: int) -> Home:
    """Build a CLI-compatible home under path from the seed."""
    rng = random.Random(seed)
    os.makedirs(path)
    config = dict(cli.DEFAULT_CONFIG)
    cli.App(path, "json").save_config(config)
    public = FilesystemBlobStore(os.path.join(path, config["public_backend"]))
    audit = AuditLog(os.path.join(path, config["audit_log"]))
    params = SystemParams(default_modulus_bits=config["default_modulus_bits"])
    now = time.time()
    gateway, admin_token = Gateway.bootstrap(public, audit, params, None, now=now)
    home = Home(path, seed, gateway, audit, Model(), admin_token, [], [], [], [])
    _build_roles(home, rng, spec.roles, now)

    for i in range(spec.owners):
        home.owners.append(f"o{i}")
        _add_user(home, f"o{i}", UserKind.DATA_OWNER, now)
    for i in range(spec.end_users):
        user_id = f"u{i}"
        home.end_users.append(user_id)
        _add_user(home, user_id, UserKind.END_USER, now)
        for _ in range(1 + (rng.random() < 0.4)):
            _assign(home, user_id, rng.choice(home.roles), now)
    for i in range(spec.no_role_users):
        home.no_role_users.append(f"n{i}")
        _add_user(home, f"n{i}", UserKind.END_USER, now)

    # expired delegations were made a month ago with a one-hour lifetime;
    # distinct creation times keep their evaluation order deterministic
    made = 0
    for _ in range(20 * spec.expired_delegations):
        if made == spec.expired_delegations:
            break
        made += _delegate(home, rng, now - 30 * DAY + made, 3600.0)
    made = 0
    for _ in range(20 * spec.active_delegations):
        if made == spec.active_delegations:
            break
        made += _delegate(home, rng, now - 1000.0 + made * 1e-3, 30 * DAY)

    # Classification and size follow the popularity rank through fixed
    # patterns, so popular resources, and the confidential bytes every
    # snapshot re-encodes, are the same for every seed.
    every = round(1 / spec.confidential_share)
    confidential = {rank for rank in range(spec.resources) if rank % every == every // 2}
    pub_sizes = skewed_sizes(spec.resources - len(confidential), *spec.public_sizes)
    conf_sizes = skewed_sizes(len(confidential), *spec.confidential_sizes)
    stride = _coprime_stride(spec.resources)
    for rank in range(spec.resources):
        slot = (rank * stride) % spec.resources
        is_conf = rank in confidential
        sizes = conf_sizes if is_conf else pub_sizes
        size = sizes[slot * len(sizes) // spec.resources]
        grants = set(rng.sample(home.roles, 1 + (rng.random() < 0.3)))
        resource_id = f"res-{rank}-{rng.getrandbits(32):08x}"
        call, commit = home.upload_call(
            home.owners[rank % spec.owners], resource_id, size, is_conf, grants, now
        )
        call()
        commit()
        home.ranked.append(resource_id)

    save_private(home.private_path, gateway.state)
    home.gateway = Gateway(gateway.state, public, audit, params, home.private_path)

    resources = sorted(home.model.resources)
    for _ in range(spec.history_ops):
        user_id = rng.choice(home.end_users)
        resource_id = rng.choice(resources)
        try:
            home.gateway.download(home.ctx(user_id), resource_id)
        except AccessDenied:  # denials are part of the history
            pass
    return home


def _coprime_stride(n: int) -> int:
    stride = max(1, int(n * 0.618))
    while math.gcd(stride, n) != 1:
        stride += 1
    return stride
