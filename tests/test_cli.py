"""CLI behavior: command flows, exit codes, and --format json output."""

from __future__ import annotations

import base64
import errno
import gc
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import hrbac.errors as errors_mod
import hrbac.httpapi as httpapi_mod
import hrbac.stores as stores_mod
from hrbac.cli import App, main
from hrbac.errors import HrbacError

from conftest import corrupt_pem, is_blob_name


class Cli:
    def __init__(self, capsys):
        self._capsys = capsys

    def run(self, *args, expect=0):
        code = main([str(a) for a in args])
        out, err = self._capsys.readouterr()
        assert code == expect, f"exit {code} (wanted {expect}): {err or out}"
        return out

    def json(self, *args, expect=0):
        return json.loads(self.run("--format", "json", *args, expect=expect))


@pytest.fixture
def cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HRBAC_HOME", str(tmp_path / "home"))
    return Cli(capsys)


@pytest.fixture
def world(cli):
    """Initialized home with a role hierarchy, keypair, and three actors."""
    init = cli.json("init")
    admin = ["--as", "admin", "--token", init["token"]]
    engineer = cli.json("admin", "add-role", *admin, "--name", "Engineer")["role_id"]
    cli.run("admin", "add-role", *admin, "--name", "Manager", "--junior", "Engineer")
    cli.run("admin", "gen-role-key", *admin, "--role", "Engineer", "--bits", "1024")
    owner_tok = cli.json("admin", "create-user", *admin, "--id", "owner", "--kind", "DataOwner")["token"]
    reader_tok = cli.json("admin", "create-user", *admin, "--id", "reader", "--kind", "EndUser")["token"]
    rescue_tok = cli.json("admin", "create-user", *admin, "--id", "rescue", "--kind", "Override")["token"]
    cli.run("rolemgr", "assign-role", *admin, "--user", "reader", "--role", "Engineer")
    return {
        "admin": admin,
        "owner": ["--as", "owner", "--token", owner_tok],
        "reader": ["--as", "reader", "--token", reader_tok],
        "rescue": ["--as", "rescue", "--token", rescue_tok],
        "engineer": engineer,
    }


class TestInit:
    def test_init_prints_admin_token(self, cli):
        result = cli.json("init")
        assert result["admin"] == "admin"
        assert len(result["token"]) > 20

    def test_double_init_is_usage_error(self, cli):
        cli.run("init")
        cli.run("init", expect=2)

    def test_command_before_init_is_usage_error(self, cli):
        cli.run("admin", "list-roles", "--as", "a", "--token", "t", expect=2)

    def test_init_after_failed_document_save_succeeds(self, cli, tmp_path, monkeypatch):
        real = stores_mod.replace_file

        def no_space(path, fill, prefix, encoding=None):
            if prefix == ".private-":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(path, fill, prefix, encoding)

        monkeypatch.setattr(stores_mod, "replace_file", no_space)
        cli.run("init", expect=3)
        monkeypatch.setattr(stores_mod, "replace_file", real)
        assert not (tmp_path / "home" / "config").exists()
        token = cli.json("init")["token"]
        cli.run("audit", "verify")
        entries = [json.loads(line) for line in cli.json("audit", "query")["entries"]]
        assert [(e["decision"], e["reason"]) for e in entries] == [
            ("Deny", "IoError"), ("Allow", "Bootstrap")]
        cli.run("admin", "status", "--as", "admin", "--token", token)

    def test_failed_config_write_keeps_old_config(self, cli, tmp_path):
        cli.run("init")
        home = tmp_path / "home"
        before = (home / "config").read_bytes()
        app = App(str(home), "text")
        with pytest.raises(TypeError):
            # the sorted keys before "zz" are written before the failure
            app.save_config({**app.load_config(), "zz": object()})
        assert (home / "config").read_bytes() == before
        assert not [n for n in os.listdir(home) if n.startswith(".")]


class TestAdminCommands:
    def test_add_role_prints_id(self, world, cli):
        out = cli.run("admin", "add-role", *world["admin"], "--name", "Intern")
        assert out.strip().startswith("role-")

    def test_add_role_with_junior_by_name(self, world, cli):
        result = cli.json(
            "admin", "add-role", *world["admin"], "--name", "Lead", "--junior", "Engineer"
        )
        assert result["role_id"].startswith("role-")

    def test_role_level(self, world, cli):
        out = cli.run("admin", "role-level", *world["admin"], "--role", "Engineer")
        assert out.strip() == "1"  # Manager sits above Engineer

    def test_link_roles_cycle_is_usage_error(self, world, cli):
        cli.run(
            "admin", "link-roles", *world["admin"],
            "--senior", "Engineer", "--junior", "Manager", expect=2,
        )

    def test_unknown_role_name_is_usage_error(self, world, cli):
        cli.run("admin", "role-level", *world["admin"], "--role", "Nobody", expect=2)

    def test_wrong_token_is_denied(self, world, cli):
        cli.run("admin", "add-role", "--as", "admin", "--token", "bad", "--name", "X", expect=1)

    def test_grant_perm_and_sod(self, world, cli):
        cli.run("admin", "add-role", *world["admin"], "--name", "Auditor")
        cli.run(
            "admin", "grant-perm", *world["admin"],
            "--role", "Auditor", "--resource", "logs-*", "--action", "Read",
        )
        cli.run(
            "admin", "add-sod", *world["admin"], "--role-a", "Auditor", "--role-b", "Manager"
        )
        cli.run("rolemgr", "assign-role", *world["admin"], "--user", "reader", "--role", "Auditor")
        # an Auditor holder cannot also take Manager
        cli.run("rolemgr", "assign-role", *world["admin"], "--user", "reader", "--role", "Manager", expect=1)

    def test_list_roles_json(self, world, cli):
        roles = cli.json("admin", "list-roles", *world["admin"])["roles"]
        assert {r["name"] for r in roles} == {"Engineer", "Manager"}

    def test_status_json(self, world, cli):
        report = cli.json("admin", "status", *world["admin"])
        assert report["users"] == 4
        assert report["roles"] == 2


class TestSetParams:
    """``admin set-params`` commits ``override_enabled`` in the private
    document, in the same save as any mutation, and writes no config."""

    @staticmethod
    def home(tmp_path):
        return tmp_path / "home"

    def member(self, tmp_path):
        return json.loads((self.home(tmp_path) / "private.json").read_text())["override_enabled"]

    def last_entry(self, tmp_path) -> dict:
        return json.loads((self.home(tmp_path) / "audit.log").read_text().splitlines()[-1])

    def override(self, world, cli, tmp_path, expect):
        src = tmp_path / "payload.bin"
        src.write_bytes(b"break glass")
        cli.run("owner", "upload", *world["owner"], "--resource", "bg", "--file", str(src),
                "--grant", "Engineer")
        cli.run("override", "download", *world["rescue"], "--resource", "bg",
                "--reason", "drill", "--out", str(tmp_path / "bg.out"), expect=expect)

    def test_set_params_commits_to_private_document(self, world, cli, tmp_path):
        config = (self.home(tmp_path) / "config").read_bytes()
        assert "override_enabled" not in json.loads(config)
        assert self.member(tmp_path) is True
        cli.run("admin", "set-params", *world["admin"], "--override-enabled", "false")
        assert self.member(tmp_path) is False
        assert (self.home(tmp_path) / "config").read_bytes() == config
        entry = self.last_entry(tmp_path)
        assert (entry["action"], entry["decision"], entry["reason"]) == (
            "PolicyChange", "Allow", "SetParams override_enabled=false")
        self.override(world, cli, tmp_path, expect=1)
        assert self.last_entry(tmp_path)["reason"] == "OverrideDisabled"

    def test_full_disk_for_config_does_not_matter(self, world, cli, tmp_path, monkeypatch):
        def no_space(app, config):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(App, "save_config", no_space)
        cli.run("admin", "set-params", *world["admin"], "--override-enabled", "false")
        assert self.member(tmp_path) is False
        self.override(world, cli, tmp_path, expect=1)

    def test_failed_document_save_changes_nothing(self, world, cli, tmp_path, monkeypatch):
        real = stores_mod.replace_file

        def no_space(path, fill, prefix, encoding=None):
            if prefix == ".private-":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(path, fill, prefix, encoding)

        entries = len((self.home(tmp_path) / "audit.log").read_text().splitlines())
        monkeypatch.setattr(stores_mod, "replace_file", no_space)
        cli.run("admin", "set-params", *world["admin"], "--override-enabled", "false", expect=3)
        monkeypatch.setattr(stores_mod, "replace_file", real)
        lines = (self.home(tmp_path) / "audit.log").read_text().splitlines()
        assert len(lines) == entries + 1
        entry = json.loads(lines[-1])
        assert (entry["action"], entry["decision"], entry["reason"]) == (
            "PolicyChange", "Deny", "IoError")
        assert self.member(tmp_path) is True
        assert App(str(self.home(tmp_path)), "json").gateway().state.override_enabled is True
        self.override(world, cli, tmp_path, expect=0)

    @pytest.mark.parametrize("configured,enabled", [(None, True), (False, False), (True, True)])
    def test_document_older_than_the_member(self, world, cli, tmp_path, configured, enabled):
        home = self.home(tmp_path)
        doc = json.loads((home / "private.json").read_text())
        del doc["override_enabled"]
        (home / "private.json").write_text(json.dumps(doc))
        if configured is not None:
            config = json.loads((home / "config").read_text())
            (home / "config").write_text(json.dumps({**config, "override_enabled": configured}))
        assert App(str(home), "json").gateway().state.override_enabled is enabled
        self.override(world, cli, tmp_path, expect=0 if enabled else 1)
        # the upload inside ``override`` was the next commit
        assert self.member(tmp_path) is enabled


class TestDataCommands:
    def upload(self, world, cli, tmp_path, rid="filea", classification="Public"):
        src = tmp_path / "payload.bin"
        src.write_bytes(b"cli payload bytes")
        return cli.json(
            "owner", "upload", *world["owner"],
            "--resource", rid, "--file", str(src),
            "--classification", classification, "--grant", "Engineer",
        )

    def test_upload_and_download(self, world, cli, tmp_path):
        result = self.upload(world, cli, tmp_path)
        assert result["version"] == 1 and result["plane"] == "public"
        out_path = tmp_path / "fetched.bin"
        got = cli.json(
            "user", "download", *world["reader"], "--resource", "filea", "--out", str(out_path)
        )
        assert out_path.read_bytes() == b"cli payload bytes"
        assert got["sha256"] == result["sha256"]

    def test_download_without_grant_denied_and_audited(self, world, cli, tmp_path):
        self.upload(world, cli, tmp_path)
        stranger_tok = cli.json(
            "admin", "create-user", *world["admin"], "--id", "s1", "--kind", "EndUser"
        )["token"]
        cli.run(
            "user", "download", "--as", "s1", "--token", stranger_tok,
            "--resource", "filea", "--out", str(tmp_path / "no.bin"), expect=1,
        )
        denies = cli.json("audit", "query", "--decision", "Deny", "--action", "Download")
        assert denies["count"] == 1

    def test_grant_revoke_rotate_cycle(self, world, cli, tmp_path):
        self.upload(world, cli, tmp_path)
        cli.run("admin", "add-role", *world["admin"], "--name", "Analyst")
        cli.run("admin", "gen-role-key", *world["admin"], "--role", "Analyst", "--bits", "1024")
        cli.run("owner", "grant", *world["owner"], "--resource", "filea", "--role", "Analyst")
        rotated = cli.json("owner", "rotate", *world["owner"], "--resource", "filea")
        assert rotated["version"] == 2
        cli.run("owner", "revoke", *world["owner"], "--resource", "filea", "--role", "Analyst")
        cli.run("owner", "revoke", *world["owner"], "--resource", "filea", "--role", "Analyst", expect=2)

    def test_override_requires_reason_flag(self, world, cli, tmp_path):
        self.upload(world, cli, tmp_path)
        cli.run(
            "override", "download", *world["rescue"],
            "--resource", "filea", "--out", str(tmp_path / "o.bin"), expect=2,
        )
        cli.run(
            "override", "download", *world["rescue"], "--resource", "filea",
            "--reason", "drill", "--out", str(tmp_path / "o.bin"),
        )
        assert (tmp_path / "o.bin").read_bytes() == b"cli payload bytes"

    def test_unwritable_out_exits_3_after_allow(self, world, cli, tmp_path, capsys):
        self.upload(world, cli, tmp_path)
        out = tmp_path / "missing-dir" / "x.bin"
        code = main(["user", "download", *world["reader"], "--resource", "filea",
                     "--out", str(out)])
        assert code == 3
        assert "error: IoError: " in capsys.readouterr().err
        # the plaintext was released to the process, so its Allow entry stays
        allows = cli.json("audit", "query", "--action", "Download", "--decision", "Allow")
        assert allows["count"] == 1

    def test_delegation_flow(self, world, cli, tmp_path):
        self.upload(world, cli, tmp_path)
        temp_tok = cli.json(
            "admin", "create-user", *world["admin"], "--id", "temp", "--kind", "EndUser"
        )["token"]
        delegation = cli.json(
            "user", "delegate", *world["reader"], "--to", "temp", "--role", "Engineer", "--ttl", "3600"
        )
        cli.run(
            "user", "download", "--as", "temp", "--token", temp_tok,
            "--resource", "filea", "--out", str(tmp_path / "d.bin"),
        )
        cli.run("user", "revoke-delegation", *world["reader"], "--id", delegation["delegation_id"])
        cli.run(
            "user", "download", "--as", "temp", "--token", temp_tok,
            "--resource", "filea", "--out", str(tmp_path / "d2.bin"), expect=1,
        )


class TestCorruptRoleKey:
    """A role key that fails validation is reported by the first command
    that uses it; commands that do not use it run as before."""

    @pytest.fixture
    def home(self, world, cli, tmp_path):
        admin = world["admin"]
        analyst = cli.json("admin", "add-role", *admin, "--name", "Analyst")["role_id"]
        cli.run("admin", "gen-role-key", *admin, "--role", "Analyst", "--bits", "1024")
        token = cli.json(
            "admin", "create-user", *admin, "--id", "analyst", "--kind", "EndUser"
        )["token"]
        cli.run("rolemgr", "assign-role", *admin, "--user", "analyst", "--role", "Analyst")
        src = tmp_path / "in.bin"
        src.write_bytes(b"shared payload")
        cli.run(
            "owner", "upload", *world["owner"], "--resource", "shared", "--file", str(src),
            "--grant", "Engineer", "--grant", "Analyst",
        )
        path = tmp_path / "home" / "private.json"
        doc = json.loads(path.read_text())
        entry = doc["role_keys"][analyst]
        entry["private_pem"] = corrupt_pem(entry["private_pem"])
        path.write_text(json.dumps(doc))
        return {**world, "analyst": ["--as", "analyst", "--token", token], "src": src,
                "home": tmp_path / "home"}

    @staticmethod
    def denies(cli):
        return cli.json("audit", "query", "--decision", "Deny")["count"]

    def test_status_and_other_role_unaffected(self, home, cli, tmp_path):
        assert cli.json("admin", "status", *home["admin"])["resources"] == 1
        out = tmp_path / "ok.bin"
        cli.run("user", "download", *home["reader"], "--resource", "shared", "--out", str(out))
        assert out.read_bytes() == b"shared payload"

    def test_download_through_corrupt_role_fails_audited(self, home, cli, tmp_path):
        before = self.denies(cli)
        out = tmp_path / "no.bin"
        cli.run("user", "download", *home["analyst"], "--resource", "shared",
                "--out", str(out), expect=3)
        assert not out.exists()
        assert self.denies(cli) == before + 1

    def test_upload_granting_corrupt_role_fails_audited(self, home, cli):
        before = self.denies(cli)
        doc = (home["home"] / "private.json").read_bytes()
        blobs = {p.name: p.read_bytes() for p in (home["home"] / "private-blobs").iterdir()}
        public = sorted(os.listdir(home["home"] / "public"))
        for classification in ("Public", "Confidential"):
            cli.run(
                "owner", "upload", *home["owner"], "--resource", "fresh",
                "--file", str(home["src"]), "--classification", classification,
                "--grant", "Analyst", expect=3,
            )
        assert self.denies(cli) == before + 2
        assert {p.name: p.read_bytes()
                for p in (home["home"] / "private-blobs").iterdir()} == blobs
        # the two Deny entries move only the in-memory chain head
        assert (home["home"] / "private.json").read_bytes() == doc
        assert sorted(os.listdir(home["home"] / "public")) == public


class TestMalformedFiles:
    """A private document or config holding a value of the wrong kind
    fails closed: exit 3, the FormatError code, and nothing written."""

    @staticmethod
    def status_fails_closed(world, cli, tmp_path):
        home = tmp_path / "home"
        before = {name: (home / name).read_bytes() for name in ("private.json", "audit.log")}
        cli.run("admin", "status", *world["admin"], expect=3)
        assert {name: (home / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize(
        "member", ["roles", "users", "delegations", "resources", "role_keys", "blobs"])
    def test_private_member_that_is_not_an_object(self, world, cli, tmp_path, member):
        path = tmp_path / "home" / "private.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), member: []}))
        self.status_fails_closed(world, cli, tmp_path)

    @pytest.mark.parametrize("name", ["private.json", "config"])
    def test_file_that_is_not_utf8(self, world, cli, tmp_path, name):
        path = tmp_path / "home" / name
        path.write_bytes(path.read_bytes().replace(b'"', b'"\xff', 1))
        self.status_fails_closed(world, cli, tmp_path)

    def test_audit_log_that_is_not_utf8(self, world, cli, tmp_path):
        path = tmp_path / "home" / "audit.log"
        path.write_bytes(path.read_bytes().replace(b'"', b'"\xff', 1))
        self.status_fails_closed(world, cli, tmp_path)
        cli.run("audit", "verify", expect=3)

    @pytest.mark.parametrize("member", ["juniors", "roles", "audit_head"])
    def test_private_member_that_loads_as_something_else(self, world, cli, tmp_path, member):
        path = tmp_path / "home" / "private.json"
        doc = json.loads(path.read_text())
        if member == "juniors":
            doc["roles"][world["engineer"]]["juniors"] = "ab"
        elif member == "roles":
            doc["users"]["admin"]["roles"] = "ab"
        else:
            doc["audit_head"] = "garbage"
        path.write_text(json.dumps(doc))
        self.status_fails_closed(world, cli, tmp_path)

    @staticmethod
    def untrusted_blob_entry(home: pathlib.Path, case: str) -> str:
        """Plant what ``case`` names beside the home's document; returns the
        entry an error must name."""
        path, directory = home / "private.json", home / "private-blobs"
        directory.mkdir(exist_ok=True)
        doc = json.loads(path.read_text())
        if case == "stray-file":
            (directory / "Notes").write_bytes(b"notes")
            return "Notes"
        if case == "stray-directory":
            (directory / "sub.blob").mkdir()
            return "sub.blob"
        if case == "legacy-member-name":
            doc["blobs"] = {"Bad Name": base64.b64encode(b"HRB1").decode()}
            path.write_text(json.dumps(doc))
            return "Bad Name"
        doc["blobs"] = {"doc.1.blob": base64.b64encode(b"member copy").decode()}
        path.write_text(json.dumps(doc))
        (directory / "doc.1.blob").write_bytes(b"file copy")
        return "doc.1.blob"

    @pytest.mark.parametrize("case", [
        "stray-file", "stray-directory", "legacy-member-name", "legacy-copies-differ"])
    def test_blob_entry_that_cannot_be_trusted(self, world, cli, tmp_path, capsys, case):
        home = tmp_path / "home"
        entry = self.untrusted_blob_entry(home, case)
        before = {p: p.read_bytes() for p in home.rglob("*") if p.is_file()}
        assert main(["admin", "status", *world["admin"]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and entry in err
        assert {p: p.read_bytes() for p in home.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("scheme", [7, "RSA-OAEP-SHA1", None, "absent"])
    def test_wrapped_key_of_unknown_scheme(self, world, cli, tmp_path, scheme):
        """Only the one wrap scheme loads; an absent scheme is that one."""
        src = tmp_path / "payload.bin"
        src.write_bytes(b"sealed")
        cli.run("owner", "upload", *world["owner"], "--resource", "sec", "--file", str(src),
                "--classification", "Confidential", "--grant", "Engineer")
        path = tmp_path / "home" / "private.json"
        doc = json.loads(path.read_text())
        wrapped = doc["resources"]["sec"]["wrapped_keys"][world["engineer"]]
        if scheme == "absent":
            del wrapped["scheme"]
            path.write_text(json.dumps(doc))
            cli.run("user", "download", *world["reader"], "--resource", "sec",
                    "--out", str(tmp_path / "sec.out"))
            assert (tmp_path / "sec.out").read_bytes() == b"sealed"
        else:
            wrapped["scheme"] = scheme
            path.write_text(json.dumps(doc))
            self.status_fails_closed(world, cli, tmp_path)

    def test_sod_pair_of_one_role(self, world, cli, tmp_path):
        path = tmp_path / "home" / "private.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "sod": [[world["engineer"]]]}))
        self.status_fails_closed(world, cli, tmp_path)

    @pytest.mark.parametrize("config", [
        [], "public", 5, None,
        {"private_store": []}, {"private_store": 5},
        {"audit_log": []}, {"audit_log": 5},
        {"public_backend": []}, {"public_backend": 5},
        {"default_modulus_bits": "x"}, {"default_modulus_bits": True},
        {"default_modulus_bits": 2048.0},
    ], ids=json.dumps)
    def test_config_of_wrong_kind(self, world, cli, tmp_path, config):
        path = tmp_path / "home" / "config"
        if isinstance(config, dict):
            config = {**json.loads(path.read_text()), **config}
        path.write_text(json.dumps(config))
        self.status_fails_closed(world, cli, tmp_path)


def test_cli_import_leaves_out_requests_and_httpapi():
    code = (
        "import sys, hrbac.cli, hrbac.stores; "
        "hrbac.stores.RemoteBlobStore('http://127.0.0.1:9'); "
        "print(sorted(m for m in ('requests', 'click', 'hrbac.httpapi') if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_requests():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "hrbac"
    pattern = re.compile(r"^\s*(import|from)\s+(requests|click)\b", re.MULTILINE)
    offenders = [p.name for p in sorted(src.rglob("*.py")) if pattern.search(p.read_text())]
    assert offenders == []


class TestAuditCommands:
    def test_verify_clean_log(self, world, cli):
        result = cli.json("audit", "verify")
        assert result["ok"] is True

    def test_verify_detects_tamper(self, world, cli, tmp_path):
        path = tmp_path / "home" / "audit.log"
        lines = path.read_text().splitlines()
        fields = json.loads(lines[2])
        fields["actor"] = "intruder"
        lines[2] = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        cli.run("audit", "verify", expect=3)

    def test_verify_fails_on_a_log_cut_short_of_the_anchor(self, cli, tmp_path):
        """The private document's ``audit_head`` names the entry before the
        last save's; a log cut back past it fails, and so does one whose
        later mutation wrote that seq again."""
        admin = ["--as", "admin", "--token", cli.json("init")["token"]]
        for name in ("A", "B"):
            cli.run("admin", "add-role", *admin, "--name", name)
        path = tmp_path / "home" / "audit.log"
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        path.write_text(lines[0])
        assert cli.json("audit", "verify", expect=3) == {"ok": False, "first_bad_seq": 2}
        cli.run("admin", "add-role", *admin, "--name", "C")  # writes seq 2 again
        assert cli.json("audit", "verify", expect=3) == {"ok": False, "first_bad_seq": 2}

    def test_query_limit(self, world, cli):
        result = cli.json("audit", "query", "--limit", "2")
        assert result["count"] == 2


class TestIntegrityCommands:
    def test_identical_files_pass_with_four_rows(self, cli, tmp_path):
        cli.run("init")
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"same content")
        b.write_bytes(b"same content")
        out = cli.run("integrity", "verify", "--original", str(a), "--decrypted", str(b))
        for alg in ("MD5", "SHA1", "SHA256", "SHA512"):
            assert alg in out
        assert "PASS" in out

    def test_differing_files_exit3(self, cli, tmp_path):
        cli.run("init")
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"same content")
        b.write_bytes(b"other content")
        cli.run("integrity", "verify", "--original", str(a), "--decrypted", str(b), expect=3)

    def test_digest_known_value(self, cli, tmp_path):
        cli.run("init")
        f = tmp_path / "abc.txt"
        f.write_bytes(b"abc")
        out = cli.run("integrity", "digest", "--file", str(f), "--alg", "SHA256")
        assert out.strip() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestBenchCommand:
    def test_run_emits_csv(self, cli, tmp_path):
        cli.run("init")
        csv_path = tmp_path / "bench.csv"
        result = cli.json(
            "bench", "run", "--sizes", "16kib,32kib,64kib", "--reps", "5",
            "--csv", str(csv_path),
        )
        assert len(result["rows"]) == 3
        assert "trend" in result
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "size_bytes,encrypt_ms,decrypt_ms,ratio"
        assert len(lines) == 4


class TestDemo:
    def test_demo_provisions_and_respects_plane_volumes(self, cli, tmp_path):
        init = cli.json("init")
        result = cli.json("demo", "--as", "admin", "--token", init["token"])
        assert set(result["roles"]) == {"engineer", "manager", "auditor"}

        home = tmp_path / "home"
        public_total = sum(
            os.path.getsize(home / "public" / n) for n in os.listdir(home / "public")
        )
        private_total = os.path.getsize(home / "private.json")
        assert private_total < public_total

    def test_demo_reader_can_download(self, cli, tmp_path):
        init = cli.json("init")
        result = cli.json("demo", "--as", "admin", "--token", init["token"])
        cli.run(
            "user", "download", "--as", "bob", "--token", result["tokens"]["bob"],
            "--resource", "report-0", "--out", str(tmp_path / "r0.bin"),
        )
        assert (tmp_path / "r0.bin").stat().st_size == 256 * 1024


class TestJsonRoundTrip:
    def test_every_subcommand_emits_parseable_json(self, cli, tmp_path):
        """--format json output must parse for every subcommand."""
        init = cli.json("init")
        admin = ["--as", "admin", "--token", init["token"]]
        cli.json("admin", "add-role", *admin, "--name", "Engineer")
        cli.json("admin", "add-role", *admin, "--name", "Manager")
        cli.json("admin", "add-role", *admin, "--name", "Auditor")
        cli.json("admin", "link-roles", *admin, "--senior", "Manager", "--junior", "Engineer")
        cli.json("admin", "grant-perm", *admin, "--role", "Engineer", "--resource", "x*")
        cli.json("admin", "add-sod", *admin, "--role-a", "Auditor", "--role-b", "Manager")
        cli.json("admin", "gen-role-key", *admin, "--role", "Engineer", "--bits", "1024")
        cli.json("admin", "set-params", *admin, "--override-enabled", "true")
        cli.json("admin", "role-level", *admin, "--role", "Engineer")
        cli.json("admin", "list-roles", *admin)
        cli.json("admin", "status", *admin)

        owner_tok = cli.json("admin", "create-user", *admin, "--id", "o", "--kind", "DataOwner")["token"]
        reader_tok = cli.json("admin", "create-user", *admin, "--id", "r", "--kind", "EndUser")["token"]
        rescue_tok = cli.json("admin", "create-user", *admin, "--id", "b", "--kind", "Override")["token"]
        owner = ["--as", "o", "--token", owner_tok]
        reader = ["--as", "r", "--token", reader_tok]

        cli.json("rolemgr", "assign-role", *admin, "--user", "r", "--role", "Engineer")
        cli.json("rolemgr", "status", *admin)

        src = tmp_path / "src.bin"
        src.write_bytes(b"json round trip")
        cli.json("owner", "upload", *owner, "--resource", "xfile", "--file", str(src), "--grant", "Engineer")
        cli.json("owner", "grant", *owner, "--resource", "xfile", "--role", "Engineer")
        cli.json("owner", "rotate", *owner, "--resource", "xfile")
        cli.json("user", "download", *reader, "--resource", "xfile", "--out", str(tmp_path / "d.bin"))
        delegation = cli.json("user", "delegate", *reader, "--to", "b", "--role", "Engineer", "--ttl", "60")
        cli.json("user", "revoke-delegation", *reader, "--id", delegation["delegation_id"])
        cli.json(
            "override", "download", "--as", "b", "--token", rescue_tok,
            "--resource", "xfile", "--reason", "check", "--out", str(tmp_path / "o.bin"),
        )
        cli.json("owner", "revoke", *owner, "--resource", "xfile", "--role", "Engineer")
        cli.json("rolemgr", "revoke-role", *admin, "--user", "r", "--role", "Engineer")

        cli.json("audit", "verify")
        cli.json("audit", "query", "--limit", "5")
        cli.json("integrity", "digest", "--file", str(src))
        cli.json("integrity", "verify", "--original", str(src), "--decrypted", str(src))
        cli.json("bench", "run", "--sizes", "1kib,2kib,4kib", "--reps", "5")


class TestExitCodeMapping:
    # every error class's (exit code, HTTP status)
    ERROR_TABLE = {
        "HrbacError": (3, 500),
        "UnknownRole": (2, 404),
        "UnknownUser": (2, 404),
        "UnknownDelegation": (2, 404),
        "CycleError": (2, 409),
        "SodViolation": (1, 409),
        "ConflictExists": (1, 409),
        "NotAssigned": (2, 500),
        "NotHeld": (1, 500),
        "CryptoError": (3, 500),
        "RandomnessUnavailable": (3, 500),
        "UnsupportedKeySize": (2, 500),
        "KeyTooSmall": (3, 500),
        "AuthFailure": (3, 500),
        "UnwrapFailure": (3, 500),
        "FormatError": (3, 500),
        "StoreError": (3, 500),
        "BackendUnavailable": (3, 503),
        "NameInvalid": (2, 400),
        "NotFound": (2, 404),
        "ValidationError": (2, 400),
        "IoError": (3, 503),
        "UnsupportedVersion": (3, 500),
        "GatewayError": (3, 500),
        "TokenInvalid": (1, 401),
        "Unauthorized": (1, 403),
        "AccessDenied": (1, 403),
        "OverrideDisabled": (1, 403),
        "NotGranted": (2, 409),
        "IntegrityMismatch": (3, 500),
        "TooFewRows": (2, 500),
        "InsufficientMemory": (2, 500),
    }

    @staticmethod
    def _error_classes() -> list[type]:
        return [
            obj
            for obj in vars(errors_mod).values()
            if isinstance(obj, type) and issubclass(obj, HrbacError)
        ]

    def test_every_error_class_has_documented_code(self):
        for klass in self._error_classes():
            code = klass("x").exit_code
            assert code in (1, 2, 3), f"{klass.__name__} -> {code}"

    def test_error_table(self):
        table = {
            klass.__name__: (klass("x").exit_code, klass("x").http_status)
            for klass in self._error_classes()
        }
        assert table == self.ERROR_TABLE

    def test_usage_error_is_2(self, cli):
        assert main(["admin", "add-role"]) == 2  # missing required options
        assert main(["no-such-command"]) == 2


class TestParsing:
    """How arguments are read: environment defaults, usage errors,
    boolean spellings, help and repeatable options."""

    @staticmethod
    def entries(tmp_path) -> int:
        return len((tmp_path / "home" / "audit.log").read_text().splitlines())

    def test_actor_and_token_from_environment(self, world, cli, monkeypatch):
        monkeypatch.setenv("HRBAC_ACTOR", "admin")
        monkeypatch.setenv("HRBAC_TOKEN", world["admin"][3])
        assert cli.json("admin", "status")["users"] == 4

    def test_flags_override_environment(self, world, cli, monkeypatch):
        monkeypatch.setenv("HRBAC_ACTOR", "admin")
        monkeypatch.setenv("HRBAC_TOKEN", "bad")
        cli.run("admin", "add-role", "--name", "X", expect=1)
        cli.run("admin", "add-role", "--token", world["admin"][3], "--name", "X")
        monkeypatch.setenv("HRBAC_TOKEN", world["admin"][3])
        cli.run("admin", "add-role", "--token", "bad", "--name", "Y", expect=1)
        cli.run("admin", "status", *world["reader"], expect=1)

    def test_empty_environment_value_is_missing(self, world, cli, monkeypatch):
        monkeypatch.setenv("HRBAC_ACTOR", "")
        monkeypatch.setenv("HRBAC_TOKEN", world["admin"][3])
        cli.run("admin", "status", expect=2)

    def test_value_starting_with_dash_is_a_value(self, world, cli, tmp_path):
        before = self.entries(tmp_path)
        cli.run("admin", "status", "--as", "-ghost", "--token", "-bad", expect=1)
        last = json.loads((tmp_path / "home" / "audit.log").read_text().splitlines()[-1])
        assert self.entries(tmp_path) == before + 1 and last["actor"] == "-ghost"

    # who acts -> arguments after the actor's --as/--token; MISSING and
    # DIR stand for a path that does not exist and for a directory
    USAGE_ERRORS = {
        "missing-option": ("admin", ["admin", "add-role"]),
        "unknown-command": (None, ["no-such-command"]),
        "unknown-leaf": ("admin", ["admin", "no-such-leaf"]),
        "unknown-option": ("admin", ["admin", "add-role", "--name", "X", "--bogus"]),
        "abbreviated-option": ("admin", ["admin", "add-role", "--nam", "X"]),
        "bad-kind": ("admin", ["admin", "create-user", "--id", "x", "--kind", "Bogus"]),
        "bad-format": (None, ["--format", "xml", "audit", "verify"]),
        "bad-ttl": ("reader", ["user", "delegate", "--to", "owner", "--role", "Engineer",
                               "--ttl", "1.5"]),
        "missing-file": ("owner", ["owner", "upload", "--resource", "r", "--file", "MISSING",
                                   "--grant", "Engineer"]),
        "directory-file": ("owner", ["owner", "upload", "--resource", "r", "--file", "DIR",
                                     "--grant", "Engineer"]),
        "directory-out": ("reader", ["user", "download", "--resource", "r", "--out", "DIR"]),
        "bad-boolean": ("admin", ["admin", "set-params", "--override-enabled", "maybe"]),
        "bad-size": (None, ["bench", "run", "--sizes", "1kb"]),
        "bad-listen": (None, ["serve", "--listen", "127.0.0.1:http"]),
        "zero-limit": (None, ["audit", "query", "--limit", "0"]),
        "negative-limit": (None, ["audit", "query", "--limit", "-1"]),
    }

    @pytest.mark.parametrize("case", list(USAGE_ERRORS))
    def test_usage_error_exits_2_unaudited(self, world, cli, tmp_path, case):
        who, args = self.USAGE_ERRORS[case]
        paths = {"MISSING": str(tmp_path / "missing.bin"), "DIR": str(tmp_path)}
        argv = [paths.get(a, a) for a in args]
        if who is not None:
            argv[2:2] = world[who]
        before = self.entries(tmp_path)
        cli.run(*argv, expect=2)
        assert self.entries(tmp_path) == before

    @pytest.mark.parametrize("spelling,value", [("yes", True), ("OFF", False), ("0", False)])
    def test_boolean_spellings(self, world, cli, tmp_path, spelling, value):
        cli.run("admin", "set-params", *world["admin"], "--override-enabled", spelling)
        doc = json.loads((tmp_path / "home" / "private.json").read_text())
        assert doc["override_enabled"] is value

    @pytest.mark.parametrize("argv", [["--help"], ["admin", "--help"],
                                      ["owner", "upload", "--help"]])
    def test_help_exits_0(self, cli, argv):
        assert "--help" in cli.run(*argv)

    def test_repeatable_options(self, world, cli, tmp_path):
        admin = world["admin"]
        cli.run("admin", "gen-role-key", *admin, "--role", "Manager", "--bits", "1024")
        lead = cli.json("admin", "add-role", *admin, "--name", "Lead",
                        "--junior", "Engineer", "--junior", "Manager")["role_id"]
        roles = {r["id"]: r for r in cli.json("admin", "list-roles", *admin)["roles"]}
        names = {r["name"]: rid for rid, r in roles.items()}
        assert roles[lead]["juniors"] == sorted([names["Engineer"], names["Manager"]])
        src = tmp_path / "in.bin"
        src.write_bytes(b"twice granted")
        meta = cli.json("owner", "upload", *world["owner"], "--resource", "two",
                        "--file", str(src), "--grant", "Engineer", "--grant", "Manager")
        assert meta["granted_roles"] == sorted([names["Engineer"], names["Manager"]])

    def test_module_entry_point(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "HRBAC_HOME": str(tmp_path), "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "hrbac.cli", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0 and "admin" in done.stdout


class TestAuditLogClosed:
    """``main`` closes the audit log its command opened, however the
    command ends, ``serve`` included."""

    @staticmethod
    def unclosed(run) -> list[str]:
        """The ResourceWarnings for files left open by ``run()``."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run()
            gc.collect()
        return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]

    def test_after_init_a_mutation_and_a_refusal(self, cli):
        admin = []
        assert self.unclosed(lambda: admin.extend(
            ["--as", "admin", "--token", cli.json("init")["token"]])) == []
        assert self.unclosed(lambda: cli.run("admin", "add-role", *admin, "--name", "Ops")) == []
        assert self.unclosed(lambda: cli.run(
            "admin", "status", "--as", "admin", "--token", "wrong", expect=1)) == []

    def test_serve_stopped_by_interrupt(self, cli, monkeypatch):
        cli.run("init")

        def serve(gateway, host, port):
            with pytest.raises(HrbacError):
                gateway.authenticate_token("wrong", 0.0)  # opens the log to append
            raise KeyboardInterrupt

        monkeypatch.setattr(httpapi_mod, "serve", serve)
        assert self.unclosed(lambda: cli.run("serve", "--listen", "127.0.0.1:0", expect=2)) == []


class TestRemoteBackendProbe:
    def test_unreachable_remote_backend_fails_at_startup(self, cli, tmp_path):
        cli.run("--offline", "init", "--public-backend", "http://127.0.0.1:9")
        # without --offline, any gateway-backed command probes the backend
        cli.run("admin", "list-roles", "--as", "admin", "--token", "x", expect=3)

    def test_offline_flag_skips_probe(self, cli, tmp_path, capsys):
        cli.run("--offline", "init", "--public-backend", "http://127.0.0.1:9")
        # offline skips the probe; failure is now the bad token (exit 1)
        code = main(["--offline", "admin", "list-roles", "--as", "admin", "--token", "x"])
        capsys.readouterr()
        assert code == 1

    def test_remote_backend_end_to_end(self, cli, tmp_path):
        from hrbac.httpapi import BlobServer

        server = BlobServer().start()
        try:
            init = cli.json("init", "--public-backend", server.url)
            admin = ["--as", "admin", "--token", init["token"]]
            cli.run("admin", "add-role", *admin, "--name", "Engineer")
            cli.run("admin", "gen-role-key", *admin, "--role", "Engineer", "--bits", "1024")
            owner_tok = cli.json(
                "admin", "create-user", *admin, "--id", "o", "--kind", "DataOwner"
            )["token"]
            src = tmp_path / "f.bin"
            src.write_bytes(b"remote plane payload")
            cli.run(
                "owner", "upload", "--as", "o", "--token", owner_tok,
                "--resource", "rem", "--file", str(src), "--grant", "Engineer",
            )
            [(name, sealed)] = server.blobs.items()
            assert is_blob_name(name, "rem", 1) and sealed[:4] == b"HRB1"
            out = tmp_path / "back.bin"
            cli.run(
                "user", "download", "--as", "o", "--token", owner_tok,
                "--resource", "rem", "--out", str(out),
            )
            assert out.read_bytes() == b"remote plane payload"
        finally:
            server.stop()
