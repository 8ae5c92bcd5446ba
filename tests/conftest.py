from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import settings

import hrbac.envelope as envelope
from hrbac.audit import AuditLog
from hrbac.envelope import RoleKeyPair
from hrbac.errors import NotFound
from hrbac.gateway import Gateway, SessionContext
from hrbac.policy import UserKind
from hrbac.stores import BlobStore, FilesystemBlobStore, check_name

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

NOW = 1_700_000_000.0


class MemoryBlobStore(BlobStore):
    """A public plane held in a dict, for tests."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put_blob(self, name: str, data: bytes) -> None:
        check_name(name)
        self._blobs[name] = bytes(data)

    def get_blob(self, name: str) -> bytes:
        try:
            return self._blobs[name]
        except KeyError:
            raise NotFound(f"no such blob: {name}") from None

    def delete_blob(self, name: str) -> None:
        self._blobs.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._blobs)


@dataclasses.dataclass
class Env:
    """A bootstrapped gateway plus session contexts for common actors."""

    gateway: Gateway
    admin: SessionContext
    tokens: dict[str, str]

    def session(self, actor: str, at: float = NOW) -> SessionContext:
        return SessionContext(actor, self.tokens[actor], at)

    def add_actor(self, user_id: str, kind: UserKind) -> SessionContext:
        self.tokens[user_id] = self.gateway.create_user(self.admin, user_id, kind)
        return self.session(user_id)


def is_blob_name(name: str, resource_id: str, version: int) -> bool:
    """Whether ``name`` is a write-once blob name of that resource version:
    ``<rid>.<version>.<16 hex>.blob``."""
    pattern = rf"{re.escape(resource_id)}\.{version}\.[0-9a-f]{{16}}\.blob"
    return re.fullmatch(pattern, name) is not None


def make_env(private_path=None, public_store=None, audit_path=None) -> Env:
    gateway, admin_token = Gateway.bootstrap(
        public_store if public_store is not None else MemoryBlobStore(),
        AuditLog(audit_path),
        private_path=private_path,
        now=NOW,
    )
    admin = SessionContext("admin", admin_token, NOW)
    return Env(gateway=gateway, admin=admin, tokens={"admin": admin_token})


@pytest.fixture
def env() -> Env:
    return make_env()


@pytest.fixture
def disk_env(tmp_path) -> Env:
    return make_env(
        private_path=str(tmp_path / "private.json"),
        public_store=FilesystemBlobStore(str(tmp_path / "public")),
        audit_path=str(tmp_path / "audit.log"),
    )


def corrupt_pem(pem: str) -> str:
    """``pem`` with most of its body cut out, so that it no longer loads."""
    lines = pem.splitlines()
    return "\n".join(lines[:4] + lines[-1:]) + "\n"


@pytest.fixture
def pem_loads(monkeypatch) -> list[str]:
    """The roles whose PEM ``RoleKeyPair.from_private_pem`` parses, in
    call order."""
    calls: list[str] = []
    real = RoleKeyPair.from_private_pem.__func__

    def counting(cls, role, pem):
        calls.append(role)
        return real(cls, role, pem)

    monkeypatch.setattr(RoleKeyPair, "from_private_pem", classmethod(counting))
    return calls


@pytest.fixture
def rsa_unwraps(monkeypatch) -> list[str]:
    """The roles of the wrapped keys ``envelope.unwrap_key`` decrypts
    through RSA, in call order."""
    calls: list[str] = []
    real = envelope.unwrap_key

    def counting(wrapped, private):
        calls.append(wrapped.role)
        return real(wrapped, private)

    monkeypatch.setattr(envelope, "unwrap_key", counting)
    return calls
