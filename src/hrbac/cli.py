"""Command-line entry point.

Subcommand namespaces follow the actor model: admin, rolemgr, owner,
user, override, plus audit, integrity, bench, demo, and serve.  State
lives under a home directory (flag --home, env HRBAC_HOME, default
~/.hrbac) holding a config file, the private store document, the audit
log, and the public blob directory unless a remote URL is configured.
Only ``init`` writes the config, once the bootstrap has committed, so a
failed ``init`` can be run again.  The break-glass switch lives in the
private document (an older document reads the config's, default true).

Each command is a handler ``fn(app, args)`` entered in one table with
its options by ``@command``; ``_parser()`` builds the argparse parser
from that table on every call, so environment defaults are read then.

Exit codes: 0 success, 1 denied or unauthorized, 2 usage error,
3 backend or integrity failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Callable, Optional

from . import audit as audit_mod
from . import bench as bench_mod
from . import integrity as integrity_mod
from .audit import AuditAction, AuditLog
from .errors import (
    FormatError,
    HrbacError,
    IntegrityMismatch,
    IoError,
    NotFound,
    TooFewRows,
    UnknownRole,
    ValidationError,
)
from .gateway import Gateway, SessionContext, SystemParams
from .policy import Action, Permission, UserKind
from .stores import (
    Classification,
    FilesystemBlobStore,
    RemoteBlobStore,
    load_private,
    replace_file,
)

DEFAULT_CONFIG = {
    "private_store": "private.json",
    "audit_log": "audit.log",
    "public_backend": "public",
    "default_modulus_bits": 2048,
}


class App:
    """Lazily-built gateway plus config handling for one invocation."""

    def __init__(self, home: str, output_format: str, offline: bool = False) -> None:
        self.home = os.path.abspath(home)
        self.output_format = output_format
        self.offline = offline
        self._gateway: Optional[Gateway] = None
        self._audit_log: Optional[AuditLog] = None

    @property
    def config_path(self) -> str:
        return os.path.join(self.home, "config")

    def load_config(self) -> dict:
        """The config over ``DEFAULT_CONFIG``; each key must have its
        default's type, else FormatError."""
        try:
            with open(self.config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise NotFound(
                f"no config at {self.config_path}; run `hrbac init` first"
            ) from None
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise FormatError(f"bad config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise FormatError("bad config file: not a JSON object")
        for key, default in DEFAULT_CONFIG.items():
            if type(loaded.setdefault(key, default)) is not type(default):
                raise FormatError(f"bad config file: {key} is not a {type(default).__name__}")
        return loaded

    def save_config(self, config: dict) -> None:
        def fill(fh) -> None:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")

        os.makedirs(self.home, exist_ok=True)
        replace_file(self.config_path, fill, ".config-", "utf-8")

    def _resolve(self, value: str) -> str:
        return value if os.path.isabs(value) else os.path.join(self.home, value)

    def _public_store(self, config: dict):
        backend = config["public_backend"]
        if backend.startswith("http://") or backend.startswith("https://"):
            store = RemoteBlobStore(backend)
            if not self.offline:
                store.names()  # startup reachability probe
            return store
        return FilesystemBlobStore(self._resolve(backend))

    def _gateway_args(self, config: dict) -> tuple:
        """A gateway's arguments after its state, built from the config."""
        self._audit_log = AuditLog(self._resolve(config["audit_log"]))
        return (
            self._public_store(config),
            self._audit_log,
            SystemParams(default_modulus_bits=config["default_modulus_bits"]),
            self._resolve(config["private_store"]),
        )

    def gateway(self) -> Gateway:
        if self._gateway is None:
            config = self.load_config()
            public, audit_log, params, private_path = self._gateway_args(config)
            state = load_private(private_path)
            if state.override_enabled is None:  # a document older than the member
                state.override_enabled = config.get("override_enabled", True) is True
            self._gateway = Gateway(state, public, audit_log, params, private_path)
        return self._gateway

    def close(self) -> None:
        if self._audit_log is not None:
            self._audit_log.close()

    def session(self, args: argparse.Namespace) -> SessionContext:
        return SessionContext(actor=args.actor, token=args.token, now=time.time())

    def resolve_role(self, ref: str) -> str:
        """Accept a role id or a unique role name."""
        roles = self.gateway().state.policy.roles
        if ref in roles:
            return ref
        matches = [rid for rid, role in roles.items() if role.name == ref]
        if not matches:
            raise UnknownRole(f"no role with id or name {ref!r}")
        if len(matches) > 1:
            raise ValidationError(
                f"role name {ref!r} is ambiguous; use one of: {', '.join(sorted(matches))}"
            )
        return matches[0]

    def emit(self, data: dict, text: str) -> None:
        if self.output_format == "json":
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(text)


# -- argument parsing ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Options are spelled in full, and help is ``--help`` alone."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        # a word that names no option is a value: a token may start with "-"
        if arg_string.split("=", 1)[0] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


_BOOLEANS = {
    **dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
    **dict.fromkeys(("0", "false", "f", "no", "n", "off", ""), False),
}


def _boolean(value: str) -> bool:
    try:
        return _BOOLEANS[value.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a valid boolean") from None


def _file(value: str, must_exist: bool = False) -> str:
    """A path that is not a directory and, if it exists, is readable."""
    if not os.path.exists(value):
        problem = "does not exist" if must_exist else None
    elif os.path.isdir(value):
        problem = "is a directory"
    else:
        problem = None if os.access(value, os.R_OK) else "is not readable"
    if problem:
        raise argparse.ArgumentTypeError(f"file {value!r} {problem}")
    return value


def _existing_file(value: str) -> str:
    return _file(value, must_exist=True)


def _count(value: str) -> int:
    """A whole number of at least 1."""
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a count of at least 1")
    return int(value)


# "group leaf" or "leaf" -> (handler, options, takes --as/--token)
_COMMANDS: dict[str, tuple[Callable, tuple, bool]] = {}

_GROUPS = {
    "admin": "System administration: hierarchy, permissions, users, keys.",
    "rolemgr": "Role manager: user-role assignment.",
    "owner": "Data owner: upload, grant, revoke, rotate.",
    "user": "End user: download and delegation.",
    "override": "Break-glass: audited policy bypass for designated actors.",
    "audit": "Audit log verification and queries.",
    "integrity": "Digest computation and original-vs-decrypted comparison.",
    "bench": "Seal/open timing versus payload size.",
}


def opt(*flags: str, **kwargs) -> tuple:
    """One option: the arguments of ``ArgumentParser.add_argument``."""
    return flags, kwargs


def command(name: str, *options: tuple, auth: bool = True):
    """Register ``fn(app, args)`` as command ``name`` with ``opt`` options;
    ``auth`` adds the required --as and --token."""

    def register(fn: Callable) -> Callable:
        _COMMANDS[name] = (fn, options, auth)
        return fn

    return register


def _parser() -> argparse.ArgumentParser:
    env = os.environ.get
    base = _Parser()
    base.add_argument("--help", action="help", help="Show this message and exit.")
    auth = _Parser(parents=[base])
    for flag, dest, var, text in (
        ("--as", "actor", "HRBAC_ACTOR", "Acting user id."),
        ("--token", "token", "HRBAC_TOKEN", "API token."),
    ):
        auth.add_argument(
            flag, dest=dest, default=env(var) or None, required=not env(var), help=text
        )
    top = _Parser(prog="hrbac", description="Hierarchical RBAC storage gateway.", parents=[base])
    top.add_argument(
        "--home",
        default=env("HRBAC_HOME") or os.path.join(os.path.expanduser("~"), ".hrbac"),
        help="State directory (env HRBAC_HOME).",
    )
    top.add_argument(
        "--format", dest="output_format", choices=["text", "json"], default="text",
        help="Output format.",
    )
    top.add_argument(
        "--offline", action="store_true",
        help="Skip the startup reachability probe of a remote backend.",
    )
    subcommands = {"": top.add_subparsers(metavar="COMMAND", required=True)}
    for name, (fn, options, needs_auth) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subcommands:
            text = _GROUPS[group]
            parser = subcommands[""].add_parser(group, help=text, description=text, parents=[base])
            subcommands[group] = parser.add_subparsers(metavar="COMMAND", required=True)
        parser = subcommands[group].add_parser(
            leaf, help=fn.__doc__, description=fn.__doc__, parents=[auth if needs_auth else base]
        )
        for flags, kwargs in options:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(handler=fn)
    return top


@command("init", opt("--public-backend", default=None, help="Blob directory or http(s) URL."),
         opt("--modulus-bits", choices=["1024", "2048"], default="2048"),
         opt("--admin-id", default="admin"), auth=False)
def init(app: App, args: argparse.Namespace) -> None:
    """Create a fresh home directory and print the admin token."""
    if os.path.exists(app.config_path):
        raise ValidationError(f"{app.config_path} already exists")
    config = dict(DEFAULT_CONFIG)
    config["default_modulus_bits"] = int(args.modulus_bits)
    if args.public_backend:
        config["public_backend"] = args.public_backend
    gateway, token = Gateway.bootstrap(
        *app._gateway_args(config), admin_id=args.admin_id, now=time.time()
    )
    # written last: until the config exists, a failed init can be run again
    app.save_config(config)
    app._gateway = gateway
    app.emit(
        {"home": app.home, "admin": args.admin_id, "token": token},
        f"initialized {app.home}\nadmin user: {args.admin_id}\nadmin token: {token}",
    )


# -- admin ----------------------------------------------------------------

@command("admin add-role", opt("--name", required=True),
         opt("--junior", dest="juniors", action="append", default=[],
             help="Existing junior role (repeatable)."))
def admin_add_role(app: App, args: argparse.Namespace) -> None:
    junior_ids = [app.resolve_role(j) for j in args.juniors]
    role_id = app.gateway().add_role(app.session(args), args.name, junior_ids)
    app.emit({"role_id": role_id, "name": args.name}, role_id)


@command("admin link-roles", opt("--senior", required=True), opt("--junior", required=True))
def admin_link_roles(app: App, args: argparse.Namespace) -> None:
    senior_id, junior_id = app.resolve_role(args.senior), app.resolve_role(args.junior)
    app.gateway().link_roles(app.session(args), senior_id, junior_id)
    app.emit({"senior": senior_id, "junior": junior_id}, f"linked {senior_id} -> {junior_id}")


@command("admin grant-perm", opt("--role", required=True),
         opt("--resource", required=True, help="Resource id or prefix ending in *."),
         opt("--action", choices=["Read", "Write"], default="Read"))
def admin_grant_perm(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    app.gateway().grant_permission(
        app.session(args), role_id, Permission(args.resource, Action(args.action))
    )
    app.emit(
        {"role": role_id, "resource": args.resource, "action": args.action},
        f"granted {args.action} on {args.resource} to {role_id}",
    )


@command("admin add-sod", opt("--role-a", required=True), opt("--role-b", required=True))
def admin_add_sod(app: App, args: argparse.Namespace) -> None:
    a, b = app.resolve_role(args.role_a), app.resolve_role(args.role_b)
    app.gateway().add_sod_constraint(app.session(args), a, b)
    app.emit({"role_a": a, "role_b": b}, f"separation of duties: {a} <-> {b}")


@command("admin create-user", opt("--id", dest="user_id", required=True),
         opt("--kind", choices=[k.value for k in UserKind], required=True))
def admin_create_user(app: App, args: argparse.Namespace) -> None:
    new_token = app.gateway().create_user(app.session(args), args.user_id, UserKind(args.kind))
    app.emit(
        {"user": args.user_id, "kind": args.kind, "token": new_token},
        f"user {args.user_id} ({args.kind})\ntoken: {new_token}",
    )


@command("admin gen-role-key", opt("--role", required=True),
         opt("--bits", choices=["1024", "2048"], default=None))
def admin_gen_role_key(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    modulus = app.gateway().ensure_role_key(
        app.session(args), role_id, int(args.bits) if args.bits else None
    )
    app.emit({"role": role_id, "modulus_bits": modulus}, f"{role_id}: RSA-{modulus}")


@command("admin set-params", opt("--override-enabled", type=_boolean, required=True))
def admin_set_params(app: App, args: argparse.Namespace) -> None:
    app.gateway().set_override_enabled(app.session(args), args.override_enabled)
    app.emit(
        {"override_enabled": args.override_enabled},
        f"override_enabled = {args.override_enabled}",
    )


@command("admin role-level", opt("--role", required=True))
def admin_role_level(app: App, args: argparse.Namespace) -> None:
    app.gateway().authenticate(app.session(args))
    role_id = app.resolve_role(args.role)
    level = app.gateway().state.policy.role_level(role_id)
    app.emit({"role": role_id, "level": level}, str(level))


@command("admin list-roles")
def admin_list_roles(app: App, args: argparse.Namespace) -> None:
    app.gateway().authenticate(app.session(args))
    policy = app.gateway().state.policy
    rows = [
        {
            "id": rid,
            "name": role.name,
            "level": policy.role_level(rid),
            "juniors": sorted(role.juniors),
        }
        for rid, role in sorted(policy.roles.items())
    ]
    text = "\n".join(
        f"{r['id']}  {r['name']}  level={r['level']}  juniors={','.join(r['juniors']) or '-'}"
        for r in rows
    )
    app.emit({"roles": rows}, text or "(no roles)")


@command("admin status")
@command("rolemgr status")
def status(app: App, args: argparse.Namespace) -> None:
    report = app.gateway().status(app.session(args))
    text = (
        f"users: {report.users}\nroles: {report.roles}\n"
        f"resources: {report.resources}\naudit entries: {report.audit_entries}\n"
        f"deny rate: {report.deny_rate:.3f}\noverride events: {report.override_count}"
    )
    app.emit(report.as_dict(), text)


# -- rolemgr ----------------------------------------------------------------

@command("rolemgr assign-role", opt("--user", dest="user_id", required=True),
         opt("--role", required=True))
def rolemgr_assign(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    app.gateway().assign_role(app.session(args), args.user_id, role_id)
    app.emit({"user": args.user_id, "role": role_id}, f"assigned {role_id} to {args.user_id}")


@command("rolemgr revoke-role", opt("--user", dest="user_id", required=True),
         opt("--role", required=True))
def rolemgr_revoke(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    app.gateway().revoke_role(app.session(args), args.user_id, role_id)
    app.emit({"user": args.user_id, "role": role_id}, f"revoked {role_id} from {args.user_id}")


# -- owner ----------------------------------------------------------------

@command("owner upload", opt("--resource", required=True),
         opt("--file", dest="path", required=True, type=_existing_file),
         opt("--classification", choices=[c.value for c in Classification], default="Public"),
         opt("--grant", dest="grants", action="append", required=True,
             help="Role to grant (repeatable)."))
def owner_upload(app: App, args: argparse.Namespace) -> None:
    with open(args.path, "rb") as fh:
        plaintext = fh.read()
    roles = [app.resolve_role(g) for g in args.grants]
    meta = app.gateway().upload(
        app.session(args),
        args.resource,
        plaintext,
        Classification(args.classification),
        roles,
    )
    app.emit(
        {
            "resource": meta.resource_id,
            "version": meta.version,
            "classification": meta.classification.value,
            "plane": meta.blob_ref.plane,
            "size_bytes": meta.size_bytes,
            "sha256": meta.plaintext_sha256,
            "granted_roles": sorted(meta.wrapped_keys),
        },
        f"uploaded {meta.resource_id} v{meta.version} "
        f"({meta.classification.value}, {meta.size_bytes} bytes) -> {meta.blob_ref.plane} store",
    )


@command("owner grant", opt("--resource", required=True), opt("--role", required=True))
def owner_grant(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    app.gateway().grant_resource_access(app.session(args), args.resource, role_id)
    app.emit({"resource": args.resource, "role": role_id}, f"granted {role_id} on {args.resource}")


@command("owner revoke", opt("--resource", required=True), opt("--role", required=True))
def owner_revoke(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    app.gateway().revoke_resource_access(app.session(args), args.resource, role_id)
    app.emit({"resource": args.resource, "role": role_id}, f"revoked {role_id} on {args.resource}")


@command("owner rotate", opt("--resource", required=True))
def owner_rotate(app: App, args: argparse.Namespace) -> None:
    meta = app.gateway().rotate_resource_key(app.session(args), args.resource)
    app.emit(
        {"resource": args.resource, "version": meta.version},
        f"rotated {args.resource}, now v{meta.version}",
    )


# -- user -------------------------------------------------------------------

@command("user download", opt("--resource", required=True),
         opt("--out", required=True, type=_file))
def user_download(app: App, args: argparse.Namespace) -> None:
    data = app.gateway().download(app.session(args), args.resource)
    with open(args.out, "wb") as fh:
        fh.write(data)
    digest = integrity_mod.digest(data, "SHA256")
    app.emit(
        {"resource": args.resource, "out": args.out, "size_bytes": len(data), "sha256": digest},
        f"downloaded {args.resource} ({len(data)} bytes) -> {args.out}",
    )


@command("user delegate", opt("--to", dest="to_user", required=True), opt("--role", required=True),
         opt("--ttl", type=int, required=True, help="Lifetime in seconds."))
def user_delegate(app: App, args: argparse.Namespace) -> None:
    role_id = app.resolve_role(args.role)
    delegation_id = app.gateway().delegate_role(
        app.session(args), args.to_user, role_id, args.ttl
    )
    app.emit(
        {"delegation_id": delegation_id, "to": args.to_user, "role": role_id, "ttl": args.ttl},
        delegation_id,
    )


@command("user revoke-delegation", opt("--id", dest="delegation_id", required=True))
def user_revoke_delegation(app: App, args: argparse.Namespace) -> None:
    app.gateway().revoke_delegation(app.session(args), args.delegation_id)
    app.emit({"delegation_id": args.delegation_id}, f"revoked {args.delegation_id}")


# -- override ----------------------------------------------------------------

@command("override download", opt("--resource", required=True),
         opt("--reason", required=True, help="Mandatory justification, recorded in the audit log."),
         opt("--out", required=True, type=_file))
def override_download(app: App, args: argparse.Namespace) -> None:
    data = app.gateway().override_download(app.session(args), args.resource, args.reason)
    with open(args.out, "wb") as fh:
        fh.write(data)
    app.emit(
        {"resource": args.resource, "out": args.out, "size_bytes": len(data)},
        f"override download {args.resource} ({len(data)} bytes) -> {args.out}",
    )


# -- audit -------------------------------------------------------------------

@command("audit verify", auth=False)
def audit_verify(app: App, args: argparse.Namespace) -> None:
    """Verify the chain, and that the log holds the entry the private
    document's ``audit_head`` names, so a log cut short fails."""
    config = app.load_config()
    path = app._resolve(config["audit_log"])
    private_path = app._resolve(config["private_store"])
    anchor = load_private(private_path).audit_head if os.path.exists(private_path) else None
    ok, bad_seq = audit_mod.verify_file(path, anchor)
    if ok:
        app.emit({"ok": True, "first_bad_seq": None}, "audit chain verifies")
    else:
        app.emit({"ok": False, "first_bad_seq": bad_seq}, f"chain broken at seq {bad_seq}")
        raise FormatError(f"audit chain broken at seq {bad_seq}")


@command("audit query", opt("--actor", default=None),
         opt("--action", choices=[a.value for a in AuditAction], default=None),
         opt("--decision", choices=["Allow", "Deny"], default=None),
         opt("--limit", type=_count, default=None), auth=False)
def audit_query(app: App, args: argparse.Namespace) -> None:
    config = app.load_config()
    log = AuditLog(app._resolve(config["audit_log"]))
    entries = log.query(
        actor=args.actor,
        action=AuditAction(args.action) if args.action else None,
        decision=args.decision,
        limit=args.limit,
    )
    app.emit(
        {"entries": [e.to_line() for e in entries], "count": len(entries)},
        "\n".join(e.to_line() for e in entries) or "(no matching entries)",
    )


# -- integrity ----------------------------------------------------------------

@command("integrity verify", opt("--original", required=True, type=_existing_file),
         opt("--decrypted", required=True, type=_existing_file), auth=False)
def integrity_verify(app: App, args: argparse.Namespace) -> None:
    with open(args.original, "rb") as fh:
        a = fh.read()
    with open(args.decrypted, "rb") as fh:
        b = fh.read()
    report = integrity_mod.verify_roundtrip(a, b)
    app.emit(report.as_dict(), report.as_table())
    if not report.verdict:
        raise IntegrityMismatch(f"{args.original} and {args.decrypted} differ")


@command("integrity digest", opt("--file", dest="path", required=True, type=_existing_file),
         opt("--alg", choices=list(integrity_mod.ALGORITHMS), default="SHA256"), auth=False)
def integrity_digest(app: App, args: argparse.Namespace) -> None:
    with open(args.path, "rb") as fh:
        value = integrity_mod.digest(fh.read(), args.alg)
    app.emit({"file": args.path, "alg": args.alg, "digest": value}, value)


# -- bench ---------------------------------------------------------------------

def _parse_size(token: str) -> int:
    token = token.strip().lower()
    for suffix, factor in (("kib", 1 << 10), ("mib", 1 << 20), ("gib", 1 << 30)):
        if token.endswith(suffix):
            return int(float(token[: -len(suffix)]) * factor)
    return int(token)


def _sizes(value: str) -> list[int]:
    """Comma-separated byte counts; KiB, MiB and GiB suffixes are allowed."""
    try:
        sizes = [_parse_size(t) for t in value.split(",") if t.strip()]
    except (ValueError, OverflowError):  # not a number, or an infinite one
        sizes = None
    if sizes is None or any(size < 0 for size in sizes):
        raise argparse.ArgumentTypeError(f"{value!r} is not a list of byte sizes")
    return sizes


@command("bench run",
         opt("--sizes", type=_sizes, default="1mib,2mib,4mib",
             help="Comma-separated byte sizes (KiB/MiB ok)."),
         opt("--reps", type=int, default=5),
         opt("--csv", dest="csv_path", type=_file, default=None),
         opt("--check-trend", action="store_true", help="Fail unless both slopes are positive."),
         auth=False)
def bench_run(app: App, args: argparse.Namespace) -> None:
    rows = bench_mod.run_matrix(args.sizes, args.reps)
    csv_text = bench_mod.to_csv(rows)
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    payload: dict = {"rows": [row.__dict__ | {"ratio": row.ratio} for row in rows]}
    text = csv_text.rstrip()
    trend = bench_mod.assert_trend(rows) if len(rows) >= 3 else None
    if trend is not None:
        payload["trend"] = {
            "encrypt_slope_ms_per_byte": trend.encrypt_slope_ms_per_byte,
            "decrypt_slope_ms_per_byte": trend.decrypt_slope_ms_per_byte,
            "mean_ratio": trend.mean_ratio,
            "increasing": trend.increasing,
        }
        text += (
            f"\nencrypt slope: {trend.encrypt_slope_ms_per_byte:.3e} ms/byte"
            f"\ndecrypt slope: {trend.decrypt_slope_ms_per_byte:.3e} ms/byte"
            f"\nmean encrypt/decrypt ratio: {trend.mean_ratio:.3f}"
        )
    app.emit(payload, text)
    if args.check_trend and trend is None:
        raise TooFewRows("trend check needs at least 3 sizes")
    if args.check_trend and not trend.increasing:
        raise IntegrityMismatch("timing trend is not increasing with size")


# -- misc ------------------------------------------------------------------------

@command("demo")
def demo(app: App, args: argparse.Namespace) -> None:
    """Provision the standard demo corpus (requires the admin token)."""
    from .demo import build_demo

    result = build_demo(app.gateway(), app.session(args))
    text_roles = ", ".join(f"{k}={v}" for k, v in result["roles"].items())
    text_tokens = "\n".join(f"  {k}: {v}" for k, v in result["tokens"].items())
    app.emit(
        result,
        f"roles: {text_roles}\nresources: {', '.join(result['resources'])}\ntokens:\n{text_tokens}",
    )


def _listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not (port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(f"{value!r} is not host:port")
    return host or "127.0.0.1", int(port)


@command("serve", opt("--listen", type=_listen, default="127.0.0.1:8080",
                      help="host:port to bind."), auth=False)
def serve(app: App, args: argparse.Namespace) -> None:
    """Run the HTTP service API."""
    from .httpapi import serve as serve_gateway  # only this command needs http.server

    host, port = args.listen
    print(f"serving on http://{host}:{port}", file=sys.stderr)
    serve_gateway(app.gateway(), host, port)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        with contextlib.closing(App(args.home, args.output_format, args.offline)) as app:
            args.handler(app, args)
        return 0
    except SystemExit as exc:  # from argparse: 0 after --help, 2 on a usage error
        return exc.code
    except KeyboardInterrupt:  # ^C, e.g. to stop `serve`
        return 2
    except (HrbacError, OSError) as exc:
        error = exc if isinstance(exc, HrbacError) else IoError(str(exc))
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
