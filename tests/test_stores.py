"""Storage plane tests: naming, round trips, atomic document replacement,
validation, and the remote object protocol against a loopback server."""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import sys
import threading
import time

import pytest

from hrbac import envelope, httpapi
from hrbac.errors import (
    BackendUnavailable,
    FormatError,
    IoError,
    NameInvalid,
    NotFound,
    UnsupportedVersion,
    ValidationError,
)
from hrbac.httpapi import BlobServer
from hrbac.policy import PolicyEngine, UserKind
from hrbac.stores import (
    BlobRef,
    Classification,
    FilesystemBlobStore,
    PLANE_PRIVATE,
    PLANE_PUBLIC,
    PrivateState,
    RemoteBlobStore,
    ResourceMeta,
    blob_dir,
    load_private,
    save_private,
    validate_state,
)

from conftest import MemoryBlobStore, corrupt_pem


@pytest.fixture(params=["memory", "filesystem"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryBlobStore()
    return FilesystemBlobStore(str(tmp_path / "blobs"))


class TestBlobStores:
    def test_put_get_round_trip(self, store):
        data = os.urandom(1024)
        store.put_blob("obj.1.blob", data)
        assert store.get_blob("obj.1.blob") == data

    def test_zero_byte_blob(self, store):
        store.put_blob("empty.blob", b"")
        assert store.get_blob("empty.blob") == b""

    def test_overwrite_returns_latest(self, store):
        store.put_blob("obj.blob", b"v1")
        store.put_blob("obj.blob", b"v2")
        assert store.get_blob("obj.blob") == b"v2"

    def test_missing_name(self, store):
        with pytest.raises(NotFound):
            store.get_blob("ghost.blob")

    @pytest.mark.parametrize("bad", ["a/b", "", "UPPER", "sp ace", "x" * 256, "a\\b",
                                     ".x.blob", "..", "x.blob\n"])
    def test_invalid_names(self, store, bad):
        with pytest.raises(NameInvalid):
            store.put_blob(bad, b"data")

    def test_names_listing(self, store):
        store.put_blob("b.blob", b"2")
        store.put_blob("a.blob", b"1")
        assert store.names() == ["a.blob", "b.blob"]

    def test_delete(self, store):
        store.put_blob("x.blob", b"1")
        store.delete_blob("x.blob")
        with pytest.raises(NotFound):
            store.get_blob("x.blob")


class TestRemoteStore:
    @pytest.fixture
    def server(self):
        server = BlobServer().start()
        yield server
        server.stop()

    def test_round_trip_over_http(self, server):
        client = RemoteBlobStore(server.url)
        data = os.urandom(2048)
        client.put_blob("remote.1.blob", data)
        assert client.get_blob("remote.1.blob") == data
        assert client.names() == ["remote.1.blob"]
        client.delete_blob("remote.1.blob")
        with pytest.raises(NotFound):
            client.get_blob("remote.1.blob")

    def test_missing_is_not_found(self, server):
        with pytest.raises(NotFound):
            RemoteBlobStore(server.url).get_blob("absent.blob")

    def test_503_maps_to_backend_unavailable_with_retry_hint(self, server):
        client = RemoteBlobStore(server.url)
        server.fail.set()
        with pytest.raises(BackendUnavailable, match="retry"):
            client.put_blob("x.blob", b"1")
        with pytest.raises(BackendUnavailable):
            client.get_blob("x.blob")

    def test_round_trips_reuse_one_connection(self, server):
        client = RemoteBlobStore(server.url)
        client.put_blob("keep.blob", b"first")
        sock = client._conn.sock
        assert sock is not None  # left open after the response
        for i in range(50):
            data = os.urandom(64)
            client.put_blob("keep.blob", data)
            assert client.get_blob("keep.blob") == data
        assert client._conn.sock is sock

    def test_server_close_between_calls_is_survived_by_one_reconnect(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(httpapi._BlobHandler, "timeout", 0.2)
        client = RemoteBlobStore(server.url)
        client.put_blob("idle.blob", b"kept")
        sock = client._conn.sock
        time.sleep(0.6)  # past the server's idle timeout: it closes the connection
        assert client.get_blob("idle.blob") == b"kept"
        assert client._conn.sock not in (None, sock)

    def test_threads_share_the_connection_safely(self, server):
        client = RemoteBlobStore(server.url)
        errors: list[BaseException] = []

        def worker(i: int) -> None:
            try:
                for j in range(25):
                    data = f"{i}:{j}".encode()
                    client.put_blob(f"t{i}.blob", data)
                    assert client.get_blob(f"t{i}.blob") == data
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_unreachable_host(self):
        client = RemoteBlobStore("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(BackendUnavailable):
            client.get_blob("x.blob")


def _role(doc: dict, name: str) -> dict:
    """The member of ``doc["roles"]`` whose name is ``name``."""
    [role] = [r for r in doc["roles"].values() if r["name"] == name]
    return role


def build_state() -> PrivateState:
    engine = PolicyEngine()
    engineer = engine.add_role("Engineer")
    manager = engine.add_role("Manager", [engineer])
    engine.add_user("owner", UserKind.DATA_OWNER, "digest")
    engine.assign_role("owner", manager)
    engine.add_user("giver", UserKind.DATA_OWNER, "digest2")
    engine.assign_role("giver", engineer)
    engine.delegate_role("giver", "owner", engineer, 100.0, 0.0)

    state = PrivateState(policy=engine)
    keypair = envelope.generate_role_keypair(engineer, 1024)
    state.role_keys[engineer] = keypair
    data_key = envelope.generate_data_key()
    state.put_blob("doc.1.blob", envelope.seal(b"secret", data_key, b"doc:1").to_bytes())
    state.resources["doc"] = ResourceMeta(
        resource_id="doc",
        owner="owner",
        classification=Classification.CONFIDENTIAL,
        blob_ref=BlobRef(PLANE_PRIVATE, "doc.1.blob"),
        plaintext_sha256="00" * 32,
        size_bytes=6,
        version=1,
        wrapped_keys={engineer: envelope.wrap_key(data_key, keypair.public, engineer)},
        created_at=0.0,
    )
    state.audit_head = {"seq": 3, "entry_hash": "ab" * 32}
    return state


class TestPrivateDocument:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        loaded = load_private(path)
        assert loaded.to_doc() == state.to_doc()
        assert loaded.blobs == state.blobs

    def test_document_version_and_fields(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        doc = json.load(open(path))
        assert doc["version"] == 1
        for field in ("roles", "users", "sod", "delegations", "resources",
                      "role_keys", "audit_head", "override_enabled"):
            assert field in doc
        # each confidential blob is a file of sealed bytes beside the document
        assert "blobs" not in doc
        assert blob_dir(path) == str(tmp_path / "private-blobs")
        assert blob_files(path) == state.blobs

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "private.json")
        save_private(path, build_state())
        doc = json.load(open(path))
        doc["version"] = 99
        json.dump(doc, open(path, "w"))
        with pytest.raises(UnsupportedVersion):
            load_private(path)

    # nested members the CLI tests (test_cli.TestMalformedFiles) do not reach
    MALFORMED = {
        "wrapped_keys": lambda doc: doc["resources"]["doc"].update(wrapped_keys=[]),
        "wrapped_key": lambda doc: doc["resources"]["doc"].update(
            wrapped_keys={role: [] for role in doc["resources"]["doc"]["wrapped_keys"]}),
        "sod_pair_as_text": lambda doc: doc.update(sod=["".join(sorted(doc["roles"])[:2])]),
        "sod_pair_of_numbers": lambda doc: doc.update(sod=[[1, 2]]),
        "juniors_as_text": lambda doc: _role(doc, "Manager").update(juniors="ab"),
        "junior_not_text": lambda doc: _role(doc, "Manager").update(juniors=[1]),
        "permissions_as_object": lambda doc: _role(doc, "Manager").update(permissions={}),
        "permission_as_text": lambda doc: _role(doc, "Manager").update(permissions=["doc"]),
        "permission_of_three": lambda doc: _role(doc, "Manager").update(
            permissions=[["doc", "Read", "x"]]),
        "permission_resource_not_text": lambda doc: _role(doc, "Manager").update(
            permissions=[[1, "Read"]]),
        "user_roles_as_text": lambda doc: doc["users"]["owner"].update(roles="ab"),
        "user_role_not_text": lambda doc: doc["users"]["owner"].update(roles=[None]),
        "audit_head_as_text": lambda doc: doc.update(audit_head="garbage"),
        "audit_head_seq_zero": lambda doc: doc["audit_head"].update(seq=0),
        "audit_head_seq_bool": lambda doc: doc["audit_head"].update(seq=True),
        "audit_head_seq_text": lambda doc: doc["audit_head"].update(seq="3"),
        "audit_head_hash_short": lambda doc: doc["audit_head"].update(entry_hash="ab"),
        "audit_head_hash_upper": lambda doc: doc["audit_head"].update(entry_hash="AB" * 32),
        "audit_head_extra_key": lambda doc: doc["audit_head"].update(extra=1),
        "audit_head_missing_key": lambda doc: doc["audit_head"].pop("entry_hash"),
    }

    @pytest.mark.parametrize("where", sorted(MALFORMED))
    def test_member_of_wrong_kind_is_format_error(self, where):
        doc = json.loads(json.dumps(build_state().to_doc()))
        self.MALFORMED[where](doc)
        with pytest.raises(FormatError):
            PrivateState.from_doc(doc)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "private.json")
        save_private(path, build_state())
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_private(path)

    def test_crash_between_write_and_rename_keeps_old_doc(self, tmp_path, monkeypatch):
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        before = open(path, "rb").read()

        real_replace = os.replace

        def crash_replace(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr(os, "replace", crash_replace)
        state.resources["doc"] = dataclasses.replace(state.resources["doc"], size_bytes=999)
        with pytest.raises(Exception):
            save_private(path, state)
        monkeypatch.setattr(os, "replace", real_replace)

        assert open(path, "rb").read() == before
        assert load_private(path).resources["doc"].size_bytes == 6
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".private-")]

    def test_save_where_no_directory_can_be_made_is_io_error(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(IoError):
            save_private(str(tmp_path / "file" / "private.json"), build_state())

    def test_sod_violating_user_rejected(self, tmp_path):
        state = build_state()
        engine = state.policy
        a = engine.add_role("Auditor")
        b = engine.add_role("Accountant")
        engine.add_sod_constraint(a, b)
        # corrupt behind the engine's back
        owner = engine.users["owner"]
        engine.users["owner"] = dataclasses.replace(owner, roles=owner.roles | {a, b})
        with pytest.raises(ValidationError):
            save_private(str(tmp_path / "p.json"), state)

    def test_confidential_routed_to_public_rejected(self, tmp_path):
        state = build_state()
        state.resources["doc"] = dataclasses.replace(
            state.resources["doc"], blob_ref=BlobRef(PLANE_PUBLIC, "doc.1.blob")
        )
        with pytest.raises(ValidationError):
            save_private(str(tmp_path / "p.json"), state)

    def test_missing_private_blob_rejected(self, tmp_path):
        state = build_state()
        state.blobs.clear()
        with pytest.raises(ValidationError):
            save_private(str(tmp_path / "p.json"), state)

    def test_validate_accepts_good_state(self):
        validate_state(build_state())


class TestSaveFormat:
    """The v1 document as saved: compact sorted-key JSON; each blob a file
    of the sealed bytes the state holds, beside it."""

    def test_saved_bytes_are_compact_sorted_json(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        expected = json.dumps(state.to_doc(), sort_keys=True, separators=(",", ":")).encode()
        assert open(path, "rb").read() == expected

    def test_indented_document_loads(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        with open(path, "wb") as fh:
            fh.write(json.dumps(state.to_doc(), sort_keys=True, indent=1).encode("utf-8"))
        assert load_private(path).to_doc() == state.to_doc()

    def test_save_puts_only_the_names_missing_on_disk(self, tmp_path, monkeypatch):
        """Blob names are written once, so a file that is present is never
        written again."""
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        present = os.stat(os.path.join(blob_dir(path), "doc.1.blob")).st_ino
        puts = []
        real = FilesystemBlobStore.put_blob
        monkeypatch.setattr(FilesystemBlobStore, "put_blob",
                            lambda store, name, data: puts.append(name) or real(store, name, data))
        state.put_blob("extra.blob", b"extra")
        save_private(path, state)
        save_private(path, state)
        assert puts == ["extra.blob"]
        assert os.stat(os.path.join(blob_dir(path), "doc.1.blob")).st_ino == present
        assert blob_files(path) == state.blobs

    def test_blob_file_missing_on_disk_is_written_again(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        save_private(path, state)
        os.unlink(os.path.join(blob_dir(path), "doc.1.blob"))  # behind the state's back
        save_private(path, state)
        assert blob_files(path) == state.blobs

    def test_deleted_blob_is_absent_from_saved_document(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        state.put_blob("extra.blob", b"extra")
        state.put_blob("dropped.blob", b"dropped")
        save_private(path, state)
        assert set(blob_files(path)) == {"doc.1.blob", "extra.blob", "dropped.blob"}
        state.delete_blob("extra.blob")
        del state.blobs["dropped.blob"]  # removed without delete_blob
        save_private(path, state)
        assert set(blob_files(path)) == {"doc.1.blob"}
        assert set(load_private(path).blobs) == {"doc.1.blob"}


class TestBlobsAsBase64:
    """Private blobs are held as the sealed bytes of their files:
    ``put_blob`` and ``get_blob`` neither encode nor decode, a load reads
    each file as it is, and base64 is decoded only from the older
    layout's ``blobs`` member, which must decode, or the load fails."""

    @staticmethod
    def saved(tmp_path, edit=None) -> str:
        path = str(tmp_path / "private.json")
        save_private(path, build_state())
        if edit is not None:
            doc = json.load(open(path))
            edit(doc)
            json.dump(doc, open(path, "w"))
        return path

    def test_put_holds_raw_bytes_and_get_returns_them(self):
        state = PrivateState()
        state.put_blob("x.blob", b"\x00payload\xff")
        assert state.blobs["x.blob"] == b"\x00payload\xff"
        assert state.get_blob("x.blob") == b"\x00payload\xff"
        with pytest.raises(NameInvalid):
            state.put_blob("X/../y", b"")

    def test_load_keeps_every_blob_as_its_file_bytes_and_decodes_none(
        self, tmp_path, monkeypatch
    ):
        path = self.saved(tmp_path)
        wrapped = {wk["ciphertext"] for m in json.load(open(path))["resources"].values()
                   for wk in m["wrapped_keys"].values()}
        decoded = []
        real = base64.b64decode

        def recording(data, *args, **kwargs):
            decoded.append(data)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(base64, "b64decode", recording)
        state = load_private(path)
        assert state.blobs == blob_files(path)
        assert all(type(data) is bytes for data in state.blobs.values())
        assert set(decoded) <= wrapped  # only the wrapped keys are base64

    @pytest.mark.parametrize("text", ["QUJD!", "QUJ", "QU=D"])
    def test_corrupt_base64_loads_and_fails_on_read(self, tmp_path, text):
        """A blob file holding these bytes (the texts that were corrupt
        base64 in the older layout) is not a sealed blob: it loads, fails
        where it is read, and a save leaves the file as it was loaded."""
        path = self.saved(tmp_path)
        file = os.path.join(blob_dir(path), "doc.1.blob")
        open(file, "wb").write(text.encode())
        state = load_private(path)
        assert state.get_blob("doc.1.blob") == text.encode()
        with pytest.raises(FormatError):
            envelope.SealedBlob.from_bytes(state.get_blob("doc.1.blob"))
        before = os.stat(file)
        save_private(path, state)  # not written again
        assert open(file, "rb").read() == text.encode()
        assert os.stat(file).st_ino == before.st_ino

    @pytest.mark.parametrize("value", [7, None, ["QUJD"], 'QU"D', "QU\\D", "QU\nD", "QU\u00e9D"])
    def test_blob_that_is_not_plain_text_is_a_format_error(self, tmp_path, value):
        path = self.saved(tmp_path, lambda doc: doc.update(blobs={"doc.1.blob": value}))
        assert_load_fails_closed(path)

    @pytest.mark.parametrize("text", ["QUJD!", "QUJ", "QU=D"])
    def test_legacy_member_that_does_not_decode_is_a_format_error(self, tmp_path, text):
        path = self.saved(tmp_path, lambda doc: doc.update(blobs={"doc.1.blob": text}))
        assert_load_fails_closed(path)


class TestLegacyBlobsMember:
    """A document of the older layout, its confidential blobs as the base64
    ``blobs`` member and no blob directory, loads; the next save writes
    those blobs as files and drops the member."""

    def test_loads_and_next_save_moves_blobs_to_files(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        state.put_blob("extra.blob", b"HRB1 extra")
        write_legacy(path, state)
        assert not os.path.exists(blob_dir(path))

        loaded = load_private(path)
        assert loaded.blobs == state.blobs
        assert not os.path.exists(blob_dir(path))  # a load writes nothing
        save_private(path, loaded)
        assert "blobs" not in json.load(open(path))
        assert blob_files(path) == state.blobs
        again = load_private(path)
        assert (again.to_doc(), again.blobs) == (state.to_doc(), state.blobs)

    @staticmethod
    def legacy_with_file(tmp_path, stale: bool) -> tuple[str, PrivateState]:
        """A legacy document and a file of its blob's name, holding the same
        bytes or ``stale`` ones, as a migrating save that put the file but
        did not replace the document leaves them."""
        path = str(tmp_path / "private.json")
        state = build_state()
        write_legacy(path, state)
        os.makedirs(blob_dir(path))
        data = b"stale" if stale else state.blobs["doc.1.blob"]
        open(os.path.join(blob_dir(path), "doc.1.blob"), "wb").write(data)
        return path, state

    def test_member_and_an_equal_file_load_and_migrate(self, tmp_path):
        path, state = self.legacy_with_file(tmp_path, stale=False)
        loaded = load_private(path)
        assert loaded.blobs == state.blobs
        save_private(path, loaded)
        assert "blobs" not in json.load(open(path))
        assert blob_files(path) == state.blobs

    def test_member_and_a_file_that_differ_fail_closed(self, tmp_path):
        """A save never rewrites a name, so loading either copy would lose
        the other: the load fails and writes nothing."""
        path, _ = self.legacy_with_file(tmp_path, stale=True)
        assert_load_fails_closed(path)


def blob_files(path: str) -> dict[str, bytes]:
    """The blob files beside the document at ``path``, by name."""
    directory = blob_dir(path)
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in os.listdir(directory) if not name.startswith(".")
    }


def write_legacy(path: str, state: PrivateState) -> None:
    """``state`` as the older layout saved it: blobs in the document, base64."""
    doc = {**state.to_doc(),
           "blobs": {n: base64.b64encode(b).decode() for n, b in state.blobs.items()}}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def assert_load_fails_closed(path: str) -> None:
    """Loading ``path`` is a FormatError that writes nothing."""
    home = os.path.dirname(path)
    before = files_under(home)
    with pytest.raises(FormatError):
        load_private(path)
    assert files_under(home) == before


def files_under(directory: str) -> dict[str, bytes]:
    return {
        os.path.join(root, name): open(os.path.join(root, name), "rb").read()
        for root, _, names in os.walk(directory) for name in names
    }


class TestOverrideMember:
    """``override_enabled`` is a member of the private document."""

    def test_round_trips(self, tmp_path):
        path = str(tmp_path / "private.json")
        state = build_state()
        state.override_enabled = False
        save_private(path, state)
        assert json.load(open(path))["override_enabled"] is False
        assert load_private(path).override_enabled is False

    def test_document_without_member_loads_as_none(self, tmp_path):
        path = str(tmp_path / "private.json")
        save_private(path, build_state())
        doc = json.load(open(path))
        del doc["override_enabled"]
        json.dump(doc, open(path, "w"))
        assert load_private(path).override_enabled is None

    @pytest.mark.parametrize("value", [0, 1, "false", "true", [], {}])
    def test_non_boolean_is_a_format_error(self, tmp_path, value):
        path = str(tmp_path / "private.json")
        save_private(path, build_state())
        doc = json.load(open(path))
        doc["override_enabled"] = value
        json.dump(doc, open(path, "w"))
        with pytest.raises(FormatError):
            load_private(path)


class TestRoleKeysOnFirstUse:
    """Loading parses no role key; each is validated when first used."""

    @staticmethod
    def saved(tmp_path, edit=None) -> str:
        path = str(tmp_path / "private.json")
        save_private(path, build_state())
        if edit is not None:
            doc = json.load(open(path))
            (role,) = doc["role_keys"]
            edit(doc["role_keys"][role])
            json.dump(doc, open(path, "w"))
        return path

    def test_load_then_save_is_byte_identical(self, tmp_path):
        path = self.saved(tmp_path)
        before = open(path, "rb").read()
        save_private(path, load_private(path))
        assert open(path, "rb").read() == before

    def test_load_parses_no_key_and_first_use_parses_once(self, tmp_path, pem_loads):
        state = load_private(self.saved(tmp_path))
        assert pem_loads == []
        (keypair,) = state.role_keys.values()
        for _ in range(2):
            assert keypair.public.key_size == keypair.private.key_size == 1024
        assert pem_loads == [keypair.role]

    def test_corrupt_pem_loads_and_fails_on_first_use(self, tmp_path):
        def corrupt(entry):
            entry["private_pem"] = corrupt_pem(entry["private_pem"])

        state = load_private(self.saved(tmp_path, corrupt))
        (keypair,) = state.role_keys.values()
        with pytest.raises(FormatError):
            keypair.private
        with pytest.raises(FormatError):
            keypair.public

    def test_recorded_size_must_match_the_key(self, tmp_path):
        def resize(entry):
            entry["modulus_bits"] = 2048

        state = load_private(self.saved(tmp_path, resize))
        (keypair,) = state.role_keys.values()
        with pytest.raises(FormatError, match="1024 bits"):
            keypair.public

    @pytest.mark.parametrize("field,value", [("modulus_bits", "1024"), ("private_pem", 7)])
    def test_bad_field_type_fails_at_load(self, tmp_path, field, value):
        path = self.saved(tmp_path, lambda entry: entry.update({field: value}))
        with pytest.raises(FormatError):
            load_private(path)
