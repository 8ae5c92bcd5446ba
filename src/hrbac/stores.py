"""Two storage planes: a public blob store for sealed public-classified
objects, and a private store holding everything sensitive: policy state,
role keys, resource metadata, confidential blobs, the break-glass
override switch, and the audit chain head.

The public plane stores only SealedBlob bytes, never key material or
policy documents; ``Classification.plane`` routes confidential data to
the private plane.  The private plane is one versioned JSON document
replaced atomically on save (temp file + fsync + rename + directory
fsync), so a crash between write and rename leaves the previous document
intact, plus one file of sealed bytes per confidential blob in the
directory beside it (``private-blobs/`` for ``private.json``).

``PrivateState.blobs`` maps each confidential blob's name to its sealed
bytes.  A blob name is written once (the gateway names every sealed
version afresh), so a save writes the v1 document as compact, sorted-key
JSON after putting only the blob files that are missing, and removes the
files the state no longer holds once the document is in place.  A load
reads the document, then every blob file, referenced or not; an entry
that is not a validly named file fails it with ``FormatError``.  A
document that still has the older base64 ``blobs`` member loads it (a
bad name, or a file of that name with other bytes, is ``FormatError``),
and the next save moves those blobs to files.  ``PolicyEngine`` owns the
policy members (``dump_state``/``from_state``).  Documents written in the
older indented form load unchanged; one without ``override_enabled``
loads it as None.  A member of the wrong kind fails the load with
``FormatError``.  ``ResourceMeta`` is frozen like the policy's records,
so a snapshot copies containers and never goes through the document.

Loading parses no role key: each keeps its PEM text and recorded
modulus size, and is validated when first used (``RoleKeyPair``), so a
corrupt key is reported by the first command that uses it, and a save
writes back the PEM text it loaded.  ``http.client`` is imported only
when a remote public backend is built.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import re
import tempfile
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Callable, Optional
from urllib.parse import urlsplit

from .envelope import RoleKeyPair, WrappedKey, WRAP_SCHEME
from .errors import (
    BackendUnavailable,
    FormatError,
    HrbacError,
    IoError,
    NameInvalid,
    NotFound,
    UnsupportedVersion,
    ValidationError,
)
from .policy import PolicyEngine, json_object

DOC_VERSION = 1
PLANE_PUBLIC = "public"
PLANE_PRIVATE = "private"

# a name starting with a dot would be hidden as a temp file by ``names()``
_NAME_RE = re.compile(r"[a-z0-9-][a-z0-9.-]{0,254}")


def check_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name or ""):
        raise NameInvalid(
            f"blob name must be 1-255 of a-z, 0-9, dash or dot, not first a dot: {name!r}"
        )
    return name


class Classification(Enum):
    PUBLIC = "Public"
    CONFIDENTIAL = "Confidential"

    @property
    def plane(self) -> str:
        """The plane a resource of this class is stored on."""
        return PLANE_PRIVATE if self is Classification.CONFIDENTIAL else PLANE_PUBLIC


@dataclass(frozen=True)
class BlobRef:
    plane: str  # PLANE_PUBLIC or PLANE_PRIVATE
    name: str


def replace_file(
    path: str, fill: Callable[[IO], object], prefix: str, encoding: Optional[str] = None
) -> None:
    """Replace ``path`` atomically: ``fill`` writes a temp file beside
    it (in text mode when ``encoding`` is given), which is fsynced and
    renamed over ``path``; the directory is then fsynced, so the new name
    is durable before the caller goes on.  A failure before the rename
    removes the temp file and leaves ``path`` as it was; the exception
    propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix)
    try:
        with os.fdopen(fd, "w" if encoding else "wb", encoding=encoding) as fh:
            fill(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    fsync_directory(directory)


def fsync_directory(directory: str) -> None:
    """Make the entries of ``directory`` (a rename, a new file) durable."""
    fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- public plane backends ---------------------------------------------

class BlobStore(ABC):
    """Named blob storage; concurrent use on distinct names is safe,
    last writer wins on the same name."""

    @abstractmethod
    def put_blob(self, name: str, data: bytes) -> None:
        ...

    @abstractmethod
    def get_blob(self, name: str) -> bytes:
        ...

    @abstractmethod
    def delete_blob(self, name: str) -> None:
        ...

    @abstractmethod
    def names(self) -> list[str]:
        ...


class FilesystemBlobStore(BlobStore):
    """One file per blob under a directory; writes are tmp+rename atomic."""

    def __init__(self, directory: str) -> None:
        self._dir = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self._dir, check_name(name))

    def put_blob(self, name: str, data: bytes) -> None:
        path = self._path(name)
        try:
            replace_file(path, lambda fh: fh.write(data), ".tmp-")
        except OSError as exc:
            raise BackendUnavailable(f"blob write failed: {exc}") from exc

    def get_blob(self, name: str) -> bytes:
        path = self._path(name)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise NotFound(f"no such blob: {name}") from None
        except OSError as exc:
            raise BackendUnavailable(f"blob read failed: {exc}") from exc

    def delete_blob(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise BackendUnavailable(f"blob delete failed: {exc}") from exc

    def names(self) -> list[str]:
        return sorted(n for n in os.listdir(self._dir) if not n.startswith("."))


class RemoteBlobStore(BlobStore):
    """Client for the minimal object protocol: PUT/GET/DELETE
    /blobs/{name} with 200/404/503 semantics.

    It keeps one persistent connection, guarded by a lock because an
    ``HTTPConnection`` is not thread-safe.  A request that finds the
    connection stale (closed by the server while idle) reconnects and is
    sent once more, which is safe because every request of the protocol
    is idempotent.  Any other transport failure is BackendUnavailable."""

    # what a send on a connection the server closed raises; http.client's
    # RemoteDisconnected is a ConnectionResetError
    _STALE = (BrokenPipeError, ConnectionResetError)

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        import http.client  # only this backend needs it

        url = urlsplit(base_url)
        connection = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._conn = connection(url.hostname, url.port, timeout=timeout)
        self._prefix = url.path.rstrip("/")
        self._lock = threading.Lock()
        self._failure = (OSError, http.client.HTTPException)

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes]:
        with self._lock:
            try:
                try:
                    return self._exchange(method, path, body)
                except self._STALE:
                    self._conn.close()  # reconnect and resend once
                    return self._exchange(method, path, body)
            except self._failure as exc:
                self._conn.close()
                raise BackendUnavailable(f"remote store unreachable, retry later: {exc}") from exc

    def _exchange(self, method: str, path: str, body: Optional[bytes]) -> tuple[int, bytes]:
        self._conn.request(method, self._prefix + path, body=body)
        resp = self._conn.getresponse()
        return resp.status, resp.read()

    def _path(self, name: str) -> str:
        return f"/blobs/{check_name(name)}"

    def put_blob(self, name: str, data: bytes) -> None:
        status, _ = self._request("PUT", self._path(name), data)
        if status != 200:
            raise BackendUnavailable(f"remote PUT returned {status}, retry later")

    def get_blob(self, name: str) -> bytes:
        status, body = self._request("GET", self._path(name))
        if status == 404:
            raise NotFound(f"no such blob: {name}")
        if status != 200:
            raise BackendUnavailable(f"remote GET returned {status}, retry later")
        return body

    def delete_blob(self, name: str) -> None:
        status, _ = self._request("DELETE", self._path(name))
        if status not in (200, 404):
            raise BackendUnavailable(f"remote DELETE returned {status}, retry later")

    def names(self) -> list[str]:
        status, body = self._request("GET", "/blobs")
        if status != 200:
            raise BackendUnavailable(f"remote LIST returned {status}, retry later")
        return sorted(json.loads(body))


# -- private plane -----------------------------------------------------

@dataclass(frozen=True)
class ResourceMeta:
    resource_id: str
    owner: str
    classification: Classification
    blob_ref: BlobRef
    plaintext_sha256: str
    size_bytes: int
    version: int
    wrapped_keys: dict[str, WrappedKey]
    created_at: float


@dataclass
class PrivateState:
    """Private-plane state: policy, resources, role keys, confidential
    blobs (name -> sealed bytes), audit chain head and override switch."""

    policy: PolicyEngine = field(default_factory=PolicyEngine)
    resources: dict[str, ResourceMeta] = field(default_factory=dict)
    role_keys: dict[str, RoleKeyPair] = field(default_factory=dict)
    blobs: dict[str, bytes] = field(default_factory=dict)
    audit_head: Optional[dict] = None
    # None: loaded from a document older than the member; refuses override
    override_enabled: Optional[bool] = True

    def snapshot(self) -> dict:
        """Every member, so none can be left out of a rollback, with the
        containers copied; the records in them are frozen."""
        return {
            **vars(self),
            "policy": self.policy.snapshot(),
            "resources": dict(self.resources),
            "role_keys": dict(self.role_keys),
            "blobs": dict(self.blobs),
        }

    def restore(self, snapshot: dict) -> None:
        """Put back the members of a ``snapshot()``, which this state then owns."""
        self.policy.restore(snapshot["policy"])
        vars(self).update(snapshot, policy=self.policy)

    def to_doc(self) -> dict:
        return {
            "version": DOC_VERSION,
            **self.policy.dump_state(),
            "resources": {
                rid: {
                    "owner": m.owner,
                    "classification": m.classification.value,
                    "blob_ref": {"plane": m.blob_ref.plane, "name": m.blob_ref.name},
                    "plaintext_sha256": m.plaintext_sha256,
                    "size_bytes": m.size_bytes,
                    "version": m.version,
                    "wrapped_keys": {
                        role: {
                            "scheme": wk.scheme,
                            "ciphertext": base64.b64encode(wk.ciphertext).decode("ascii"),
                        }
                        for role, wk in sorted(m.wrapped_keys.items())
                    },
                    "created_at": m.created_at,
                }
                for rid, m in sorted(self.resources.items())
            },
            "role_keys": {
                role: {
                    "modulus_bits": kp.modulus_bits,
                    "private_pem": kp.private_pem(),
                }
                for role, kp in sorted(self.role_keys.items())
            },
            "audit_head": self.audit_head,
            "override_enabled": self.override_enabled,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PrivateState":
        try:
            policy = PolicyEngine.from_state(doc)
            resources = {
                rid: ResourceMeta(
                    resource_id=rid,
                    owner=m["owner"],
                    classification=Classification(m["classification"]),
                    blob_ref=BlobRef(m["blob_ref"]["plane"], m["blob_ref"]["name"]),
                    plaintext_sha256=m["plaintext_sha256"],
                    size_bytes=m["size_bytes"],
                    version=m["version"],
                    wrapped_keys={
                        role: WrappedKey(
                            role=role,
                            scheme=_wrap_scheme(json_object(wk).get("scheme", WRAP_SCHEME)),
                            ciphertext=base64.b64decode(wk["ciphertext"]),
                        )
                        for role, wk in json_object(m["wrapped_keys"]).items()
                    },
                    created_at=m["created_at"],
                )
                for rid, m in json_object(doc["resources"]).items()
            }
            role_keys = {
                role: RoleKeyPair.stored(role, rk["modulus_bits"], rk["private_pem"])
                for role, rk in json_object(doc["role_keys"]).items()
            }
            # the older layout's base64 member; the next save moves it to files
            blobs = {
                check_name(name): base64.b64decode(text, validate=True)
                for name, text in json_object(doc.get("blobs", {})).items()
            }
            audit_head = _audit_head(doc.get("audit_head"))
            override_enabled = doc.get("override_enabled")
            if override_enabled is not None and not isinstance(override_enabled, bool):
                raise TypeError("override_enabled is not a boolean")
        except (KeyError, TypeError, ValueError, ValidationError, NameInvalid) as exc:
            raise FormatError(f"malformed private document: {exc}") from None
        return cls(
            policy=policy,
            resources=resources,
            role_keys=role_keys,
            blobs=blobs,
            audit_head=audit_head,
            override_enabled=override_enabled,
        )

    # private-plane blob operations, mirroring the BlobStore surface
    def put_blob(self, name: str, data: bytes) -> None:
        self.blobs[check_name(name)] = data

    def get_blob(self, name: str) -> bytes:
        try:
            return self.blobs[name]
        except KeyError:
            raise NotFound(f"no such private blob: {name}") from None

    def delete_blob(self, name: str) -> None:
        self.blobs.pop(name, None)


def _wrap_scheme(scheme):
    """``scheme`` if it is the one scheme keys are unwrapped with."""
    if scheme != WRAP_SCHEME:
        raise ValueError(f"unknown key wrap scheme: {scheme!r}")
    return scheme


_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def _audit_head(head):
    """``head`` if it is null or the ``{"seq", "entry_hash"}`` of an entry."""
    if head is not None and not (
        isinstance(head, dict)
        and set(head) == {"seq", "entry_hash"}
        and type(head["seq"]) is int and head["seq"] >= 1  # a bool is not a seq
        and isinstance(head["entry_hash"], str)
        and _HEX_DIGEST.fullmatch(head["entry_hash"])
    ):
        raise ValueError(f"audit_head is not an entry's seq and hash: {head!r}")
    return head


def validate_state(state: PrivateState) -> None:
    """Reject documents violating structural invariants before any write."""
    engine = state.policy
    for role in engine.roles.values():
        for j in role.juniors:
            if j not in engine.roles:
                raise ValidationError(f"role {role.id} references unknown junior {j}")
    if not engine.is_acyclic():
        raise ValidationError("role hierarchy contains a cycle")
    for user in engine.users.values():
        for rid in user.roles:
            if rid not in engine.roles:
                raise ValidationError(f"user {user.id} assigned unknown role {rid}")
    conflict = engine.sod_conflict_any_user()
    if conflict is not None:
        user_id, a, b = conflict
        raise ValidationError(f"user {user_id} violates SoD constraint {a}/{b}")
    for rid, meta in state.resources.items():
        # wrapped_keys is non-empty at creation (upload requires grant
        # roles) but may be emptied by revocation of the last role
        if meta.blob_ref.plane != meta.classification.plane:
            raise ValidationError(
                f"resource {rid} ({meta.classification.value}) routed to "
                f"{meta.blob_ref.plane} plane"
            )
        if meta.blob_ref.plane == PLANE_PRIVATE and meta.blob_ref.name not in state.blobs:
            raise ValidationError(f"resource {rid} references missing private blob")
        for role in meta.wrapped_keys:
            if role not in engine.roles:
                raise ValidationError(f"resource {rid} wraps key for unknown role {role}")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def blob_dir(path: str) -> str:
    """The directory of the confidential blob files beside the document
    at ``path``: ``<stem>-blobs``, so ``private-blobs`` for ``private.json``."""
    return os.path.splitext(os.path.abspath(path))[0] + "-blobs"


def _inode(path: str) -> Optional[int]:
    try:
        return os.stat(path).st_ino
    except OSError:  # absent, or not reachable
        return None


def save_private(path: str, state: PrivateState) -> None:
    """Validate; put each blob whose file is missing; atomically replace
    the document; then remove every blob file the state does not hold.
    If the document is not replaced, the files this save put are removed
    again, so the saved document and its blob directory are left as they
    were.  A failure raises ``IoError``, whose ``replaced`` tells whether
    the new document was already in place."""
    validate_state(state)
    text = _ENCODER.encode(state.to_doc())
    old_doc = _inode(path)
    new: set[str] = set()
    try:
        store = FilesystemBlobStore(blob_dir(path))
        on_disk = set(store.names())
        new = state.blobs.keys() - on_disk
        for name in sorted(new):
            store.put_blob(name, state.blobs[name])
        # ensure_ascii output: the text is ASCII
        replace_file(path, lambda fh: fh.write(text), ".private-", "ascii")
    except (OSError, BackendUnavailable) as exc:
        error = IoError(f"private store save failed: {exc}")
        error.replaced = _inode(path) != old_doc
        if new and not error.replaced:  # the old document is still in place
            _remove(store, new)
        raise error from exc
    _remove(store, on_disk - state.blobs.keys())


def _remove(store: BlobStore, names) -> None:
    """Best effort: a file left behind is removed by a later save."""
    for name in names:
        with contextlib.suppress(HrbacError):
            store.delete_blob(name)


def load_private(path: str) -> PrivateState:
    """The document at ``path``, with every file of its blob directory,
    each of which must be a validly named file (else ``FormatError``)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise NotFound(f"no private store at {path}") from None
    except OSError as exc:
        raise IoError(f"private store read failed: {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"private store is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "version" not in doc:
        raise FormatError("private store document missing version field")
    if doc["version"] != DOC_VERSION:
        raise UnsupportedVersion(f"unsupported document version {doc['version']}")
    state = PrivateState.from_doc(doc)
    directory = blob_dir(path)
    if os.path.isdir(directory):
        store = FilesystemBlobStore(directory)
        for name in store.names():
            if not (_NAME_RE.fullmatch(name) and os.path.isfile(os.path.join(directory, name))):
                raise FormatError(f"private blob directory entry {name!r} is not a blob file")
            data = store.get_blob(name)
            if state.blobs.setdefault(name, data) != data:
                raise FormatError(f"private blob {name} differs from its legacy member")
    return state
