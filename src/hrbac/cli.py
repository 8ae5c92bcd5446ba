"""Command-line entry point.

Subcommand namespaces follow the actor model: admin, rolemgr, owner,
user, override, plus audit, integrity, bench, demo, and serve.  State
lives under a home directory (flag --home, env HRBAC_HOME, default
~/.hrbac) holding a config file, the private store document, the audit
log, and the public blob directory unless a remote URL is configured.

Exit codes: 0 success, 1 denied or unauthorized, 2 usage error,
3 backend or integrity failure.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional

import click

from . import audit as audit_mod
from . import bench as bench_mod
from . import integrity as integrity_mod
from .audit import AuditAction, AuditLog
from .errors import (
    FormatError,
    HrbacError,
    IntegrityMismatch,
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
    PrivateState,
    RemoteBlobStore,
    load_private,
)

EXIT_USAGE = 2

DEFAULT_CONFIG = {
    "private_store": "private.json",
    "audit_log": "audit.log",
    "public_backend": "public",
    "default_modulus_bits": 2048,
    "override_enabled": True,
}


class App:
    """Lazily-built gateway plus config handling for one invocation."""

    def __init__(self, home: str, output_format: str, offline: bool = False) -> None:
        self.home = os.path.abspath(home)
        self.output_format = output_format
        self.offline = offline
        self._gateway: Optional[Gateway] = None

    @property
    def config_path(self) -> str:
        return os.path.join(self.home, "config")

    def load_config(self) -> dict:
        try:
            with open(self.config_path, "r", encoding="utf-8") as fh:
                return {**DEFAULT_CONFIG, **json.load(fh)}
        except FileNotFoundError:
            raise NotFound(
                f"no config at {self.config_path}; run `hrbac init` first"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"bad config file: {exc}") from None

    def save_config(self, config: dict) -> None:
        os.makedirs(self.home, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")

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

    def gateway(self) -> Gateway:
        if self._gateway is None:
            config = self.load_config()
            private_path = self._resolve(config["private_store"])
            state = load_private(private_path)
            self._gateway = Gateway(
                state,
                self._public_store(config),
                AuditLog(self._resolve(config["audit_log"])),
                SystemParams(
                    default_modulus_bits=config["default_modulus_bits"],
                    override_enabled=config["override_enabled"],
                ),
                private_path,
            )
        return self._gateway

    def session(self, actor: str, token: str) -> SessionContext:
        return SessionContext(actor=actor, token=token, now=time.time())

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
            click.echo(json.dumps(data, indent=2, sort_keys=True))
        else:
            click.echo(text)


def _auth_options(fn):
    fn = click.option(
        "--token", envvar="HRBAC_TOKEN", required=True, help="API token."
    )(fn)
    fn = click.option(
        "--as", "actor", envvar="HRBAC_ACTOR", required=True, help="Acting user id."
    )(fn)
    return fn


@click.group()
@click.option(
    "--home",
    envvar="HRBAC_HOME",
    default=lambda: os.path.join(os.path.expanduser("~"), ".hrbac"),
    help="State directory (env HRBAC_HOME).",
)
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["text", "json"]),
    default="text",
    help="Output format.",
)
@click.option(
    "--offline", is_flag=True, help="Skip the startup reachability probe of a remote backend."
)
@click.pass_context
def cli(ctx: click.Context, home: str, output_format: str, offline: bool) -> None:
    """Hierarchical RBAC storage gateway."""
    ctx.obj = App(home, output_format, offline)


@cli.command()
@click.option("--public-backend", default=None, help="Blob directory or http(s) URL.")
@click.option("--modulus-bits", type=click.Choice(["1024", "2048"]), default="2048")
@click.option("--admin-id", default="admin")
@click.pass_obj
def init(app: App, public_backend: Optional[str], modulus_bits: str, admin_id: str) -> None:
    """Create a fresh home directory and print the admin token."""
    if os.path.exists(app.config_path):
        raise ValidationError(f"{app.config_path} already exists")
    config = dict(DEFAULT_CONFIG)
    config["default_modulus_bits"] = int(modulus_bits)
    if public_backend:
        config["public_backend"] = public_backend
    app.save_config(config)
    private_path = app._resolve(config["private_store"])
    gateway, token = Gateway.bootstrap(
        app._public_store(config),
        AuditLog(app._resolve(config["audit_log"])),
        SystemParams(
            default_modulus_bits=config["default_modulus_bits"],
            override_enabled=config["override_enabled"],
        ),
        private_path,
        admin_id=admin_id,
        now=time.time(),
    )
    app._gateway = gateway
    app.emit(
        {"home": app.home, "admin": admin_id, "token": token},
        f"initialized {app.home}\nadmin user: {admin_id}\nadmin token: {token}",
    )


# -- admin ----------------------------------------------------------------

@cli.group()
def admin() -> None:
    """System administration: hierarchy, permissions, users, keys."""


@admin.command("add-role")
@_auth_options
@click.option("--name", required=True)
@click.option("--junior", "juniors", multiple=True, help="Existing junior role (repeatable).")
@click.pass_obj
def admin_add_role(app: App, actor: str, token: str, name: str, juniors: tuple[str, ...]) -> None:
    junior_ids = [app.resolve_role(j) for j in juniors]
    role_id = app.gateway().add_role(app.session(actor, token), name, junior_ids)
    app.emit({"role_id": role_id, "name": name}, role_id)


@admin.command("link-roles")
@_auth_options
@click.option("--senior", required=True)
@click.option("--junior", required=True)
@click.pass_obj
def admin_link_roles(app: App, actor: str, token: str, senior: str, junior: str) -> None:
    senior_id, junior_id = app.resolve_role(senior), app.resolve_role(junior)
    app.gateway().link_roles(app.session(actor, token), senior_id, junior_id)
    app.emit({"senior": senior_id, "junior": junior_id}, f"linked {senior_id} -> {junior_id}")


@admin.command("grant-perm")
@_auth_options
@click.option("--role", required=True)
@click.option("--resource", required=True, help="Resource id or prefix ending in *.")
@click.option("--action", type=click.Choice(["Read", "Write"]), default="Read")
@click.pass_obj
def admin_grant_perm(app: App, actor: str, token: str, role: str, resource: str, action: str) -> None:
    role_id = app.resolve_role(role)
    app.gateway().grant_permission(
        app.session(actor, token), role_id, Permission(resource, Action(action))
    )
    app.emit(
        {"role": role_id, "resource": resource, "action": action},
        f"granted {action} on {resource} to {role_id}",
    )


@admin.command("add-sod")
@_auth_options
@click.option("--role-a", required=True)
@click.option("--role-b", required=True)
@click.pass_obj
def admin_add_sod(app: App, actor: str, token: str, role_a: str, role_b: str) -> None:
    a, b = app.resolve_role(role_a), app.resolve_role(role_b)
    app.gateway().add_sod_constraint(app.session(actor, token), a, b)
    app.emit({"role_a": a, "role_b": b}, f"separation of duties: {a} <-> {b}")


@admin.command("create-user")
@_auth_options
@click.option("--id", "user_id", required=True)
@click.option(
    "--kind",
    type=click.Choice([k.value for k in UserKind]),
    required=True,
)
@click.pass_obj
def admin_create_user(app: App, actor: str, token: str, user_id: str, kind: str) -> None:
    new_token = app.gateway().create_user(
        app.session(actor, token), user_id, UserKind(kind)
    )
    app.emit(
        {"user": user_id, "kind": kind, "token": new_token},
        f"user {user_id} ({kind})\ntoken: {new_token}",
    )


@admin.command("gen-role-key")
@_auth_options
@click.option("--role", required=True)
@click.option("--bits", type=click.Choice(["1024", "2048"]), default=None)
@click.pass_obj
def admin_gen_role_key(app: App, actor: str, token: str, role: str, bits: Optional[str]) -> None:
    role_id = app.resolve_role(role)
    modulus = app.gateway().ensure_role_key(
        app.session(actor, token), role_id, int(bits) if bits else None
    )
    app.emit({"role": role_id, "modulus_bits": modulus}, f"{role_id}: RSA-{modulus}")


@admin.command("set-params")
@_auth_options
@click.option("--override-enabled", type=bool, required=True)
@click.pass_obj
def admin_set_params(app: App, actor: str, token: str, override_enabled: bool) -> None:
    app.gateway().set_override_enabled(app.session(actor, token), override_enabled)
    config = app.load_config()
    config["override_enabled"] = override_enabled
    app.save_config(config)
    app.emit({"override_enabled": override_enabled}, f"override_enabled = {override_enabled}")


@admin.command("role-level")
@_auth_options
@click.option("--role", required=True)
@click.pass_obj
def admin_role_level(app: App, actor: str, token: str, role: str) -> None:
    app.gateway().authenticate(app.session(actor, token))
    role_id = app.resolve_role(role)
    level = app.gateway().state.policy.role_level(role_id)
    app.emit({"role": role_id, "level": level}, str(level))


@admin.command("list-roles")
@_auth_options
@click.pass_obj
def admin_list_roles(app: App, actor: str, token: str) -> None:
    app.gateway().authenticate(app.session(actor, token))
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


def _status_command(app: App, actor: str, token: str) -> None:
    report = app.gateway().status(app.session(actor, token))
    text = (
        f"users: {report.users}\nroles: {report.roles}\n"
        f"resources: {report.resources}\naudit entries: {report.audit_entries}\n"
        f"deny rate: {report.deny_rate:.3f}\noverride events: {report.override_count}"
    )
    app.emit(report.as_dict(), text)


@admin.command("status")
@_auth_options
@click.pass_obj
def admin_status(app: App, actor: str, token: str) -> None:
    _status_command(app, actor, token)


# -- rolemgr ----------------------------------------------------------------

@cli.group()
def rolemgr() -> None:
    """Role manager: user-role assignment."""


@rolemgr.command("assign-role")
@_auth_options
@click.option("--user", "user_id", required=True)
@click.option("--role", required=True)
@click.pass_obj
def rolemgr_assign(app: App, actor: str, token: str, user_id: str, role: str) -> None:
    role_id = app.resolve_role(role)
    app.gateway().assign_role(app.session(actor, token), user_id, role_id)
    app.emit({"user": user_id, "role": role_id}, f"assigned {role_id} to {user_id}")


@rolemgr.command("revoke-role")
@_auth_options
@click.option("--user", "user_id", required=True)
@click.option("--role", required=True)
@click.pass_obj
def rolemgr_revoke(app: App, actor: str, token: str, user_id: str, role: str) -> None:
    role_id = app.resolve_role(role)
    app.gateway().revoke_role(app.session(actor, token), user_id, role_id)
    app.emit({"user": user_id, "role": role_id}, f"revoked {role_id} from {user_id}")


@rolemgr.command("status")
@_auth_options
@click.pass_obj
def rolemgr_status(app: App, actor: str, token: str) -> None:
    _status_command(app, actor, token)


# -- owner ----------------------------------------------------------------

@cli.group()
def owner() -> None:
    """Data owner: upload, grant, revoke, rotate."""


@owner.command("upload")
@_auth_options
@click.option("--resource", required=True)
@click.option("--file", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--classification",
    type=click.Choice([c.value for c in Classification]),
    default="Public",
)
@click.option("--grant", "grants", multiple=True, required=True, help="Role to grant (repeatable).")
@click.pass_obj
def owner_upload(
    app: App, actor: str, token: str, resource: str, path: str,
    classification: str, grants: tuple[str, ...],
) -> None:
    with open(path, "rb") as fh:
        plaintext = fh.read()
    roles = [app.resolve_role(g) for g in grants]
    meta = app.gateway().upload(
        app.session(actor, token),
        resource,
        plaintext,
        Classification(classification),
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


@owner.command("grant")
@_auth_options
@click.option("--resource", required=True)
@click.option("--role", required=True)
@click.pass_obj
def owner_grant(app: App, actor: str, token: str, resource: str, role: str) -> None:
    role_id = app.resolve_role(role)
    app.gateway().grant_resource_access(app.session(actor, token), resource, role_id)
    app.emit({"resource": resource, "role": role_id}, f"granted {role_id} on {resource}")


@owner.command("revoke")
@_auth_options
@click.option("--resource", required=True)
@click.option("--role", required=True)
@click.pass_obj
def owner_revoke(app: App, actor: str, token: str, resource: str, role: str) -> None:
    role_id = app.resolve_role(role)
    app.gateway().revoke_resource_access(app.session(actor, token), resource, role_id)
    app.emit({"resource": resource, "role": role_id}, f"revoked {role_id} on {resource}")


@owner.command("rotate")
@_auth_options
@click.option("--resource", required=True)
@click.pass_obj
def owner_rotate(app: App, actor: str, token: str, resource: str) -> None:
    meta = app.gateway().rotate_resource_key(app.session(actor, token), resource)
    app.emit(
        {"resource": resource, "version": meta.version},
        f"rotated {resource}, now v{meta.version}",
    )


# -- user -------------------------------------------------------------------

@cli.group()
def user() -> None:
    """End user: download and delegation."""


@user.command("download")
@_auth_options
@click.option("--resource", required=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def user_download(app: App, actor: str, token: str, resource: str, out: str) -> None:
    data = app.gateway().download(app.session(actor, token), resource)
    with open(out, "wb") as fh:
        fh.write(data)
    digest = integrity_mod.digest(data, "SHA256")
    app.emit(
        {"resource": resource, "out": out, "size_bytes": len(data), "sha256": digest},
        f"downloaded {resource} ({len(data)} bytes) -> {out}",
    )


@user.command("delegate")
@_auth_options
@click.option("--to", "to_user", required=True)
@click.option("--role", required=True)
@click.option("--ttl", type=int, required=True, help="Lifetime in seconds.")
@click.pass_obj
def user_delegate(app: App, actor: str, token: str, to_user: str, role: str, ttl: int) -> None:
    role_id = app.resolve_role(role)
    delegation_id = app.gateway().delegate_role(
        app.session(actor, token), to_user, role_id, ttl
    )
    app.emit(
        {"delegation_id": delegation_id, "to": to_user, "role": role_id, "ttl": ttl},
        delegation_id,
    )


@user.command("revoke-delegation")
@_auth_options
@click.option("--id", "delegation_id", required=True)
@click.pass_obj
def user_revoke_delegation(app: App, actor: str, token: str, delegation_id: str) -> None:
    app.gateway().revoke_delegation(app.session(actor, token), delegation_id)
    app.emit({"delegation_id": delegation_id}, f"revoked {delegation_id}")


# -- override ----------------------------------------------------------------

@cli.group()
def override() -> None:
    """Break-glass: audited policy bypass for designated actors."""


@override.command("download")
@_auth_options
@click.option("--resource", required=True)
@click.option("--reason", required=True, help="Mandatory justification, recorded in the audit log.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def override_download(
    app: App, actor: str, token: str, resource: str, reason: str, out: str
) -> None:
    data = app.gateway().override_download(app.session(actor, token), resource, reason)
    with open(out, "wb") as fh:
        fh.write(data)
    app.emit(
        {"resource": resource, "out": out, "size_bytes": len(data)},
        f"override download {resource} ({len(data)} bytes) -> {out}",
    )


# -- audit -------------------------------------------------------------------

@cli.group(name="audit")
def audit_group() -> None:
    """Audit log verification and queries."""


@audit_group.command("verify")
@click.pass_obj
def audit_verify(app: App) -> None:
    config = app.load_config()
    path = app._resolve(config["audit_log"])
    ok, bad_seq = audit_mod.verify_file(path)
    if ok:
        app.emit({"ok": True, "first_bad_seq": None}, "audit chain verifies")
    else:
        app.emit({"ok": False, "first_bad_seq": bad_seq}, f"chain broken at seq {bad_seq}")
        raise FormatError(f"audit chain broken at seq {bad_seq}")


@audit_group.command("query")
@click.option("--actor", default=None)
@click.option("--action", type=click.Choice([a.value for a in AuditAction]), default=None)
@click.option("--decision", type=click.Choice(["Allow", "Deny"]), default=None)
@click.option("--limit", type=int, default=None)
@click.pass_obj
def audit_query(
    app: App, actor: Optional[str], action: Optional[str],
    decision: Optional[str], limit: Optional[int],
) -> None:
    config = app.load_config()
    log = AuditLog(app._resolve(config["audit_log"]))
    entries = log.query(
        actor=actor,
        action=AuditAction(action) if action else None,
        decision=decision,
        limit=limit,
    )
    app.emit(
        {"entries": [e.to_line() for e in entries], "count": len(entries)},
        "\n".join(e.to_line() for e in entries) or "(no matching entries)",
    )


# -- integrity ----------------------------------------------------------------

@cli.group(name="integrity")
def integrity_group() -> None:
    """Digest computation and original-vs-decrypted comparison."""


@integrity_group.command("verify")
@click.option("--original", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--decrypted", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def integrity_verify(app: App, original: str, decrypted: str) -> None:
    with open(original, "rb") as fh:
        a = fh.read()
    with open(decrypted, "rb") as fh:
        b = fh.read()
    report = integrity_mod.verify_roundtrip(a, b)
    app.emit(report.as_dict(), report.as_table())
    if not report.verdict:
        raise IntegrityMismatch(f"{original} and {decrypted} differ")


@integrity_group.command("digest")
@click.option("--file", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--alg", type=click.Choice(list(integrity_mod.ALGORITHMS)), default="SHA256"
)
@click.pass_obj
def integrity_digest(app: App, path: str, alg: str) -> None:
    with open(path, "rb") as fh:
        value = integrity_mod.digest(fh.read(), alg)
    app.emit({"file": path, "alg": alg, "digest": value}, value)


# -- bench ---------------------------------------------------------------------

def _parse_size(token: str) -> int:
    token = token.strip().lower()
    for suffix, factor in (("kib", 1 << 10), ("mib", 1 << 20), ("gib", 1 << 30)):
        if token.endswith(suffix):
            return int(float(token[: -len(suffix)]) * factor)
    return int(token)


@cli.group(name="bench")
def bench_group() -> None:
    """Seal/open timing versus payload size."""


@bench_group.command("run")
@click.option("--sizes", default="1mib,2mib,4mib", help="Comma-separated byte sizes (KiB/MiB ok).")
@click.option("--reps", type=int, default=5)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--check-trend", is_flag=True, help="Fail unless both slopes are positive.")
@click.pass_obj
def bench_run(app: App, sizes: str, reps: int, csv_path: Optional[str], check_trend: bool) -> None:
    size_list = [_parse_size(s) for s in sizes.split(",") if s.strip()]
    rows = bench_mod.run_matrix(size_list, reps)
    csv_text = bench_mod.to_csv(rows)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    payload: dict = {"rows": [row.__dict__ | {"ratio": row.ratio} for row in rows]}
    text = csv_text.rstrip()
    if len(rows) >= 3:
        trend = bench_mod.assert_trend(rows)
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
        if check_trend and not trend.increasing:
            raise IntegrityMismatch("timing trend is not increasing with size")
    else:
        app.emit(payload, text)
        if check_trend:
            raise TooFewRows("trend check needs at least 3 sizes")


# -- misc ------------------------------------------------------------------------

@cli.command()
@_auth_options
@click.pass_obj
def demo(app: App, actor: str, token: str) -> None:
    """Provision the standard demo corpus (requires the admin token)."""
    from .demo import build_demo

    result = build_demo(app.gateway(), app.session(actor, token))
    text_roles = ", ".join(f"{k}={v}" for k, v in result["roles"].items())
    text_tokens = "\n".join(f"  {k}: {v}" for k, v in result["tokens"].items())
    app.emit(
        result,
        f"roles: {text_roles}\nresources: {', '.join(result['resources'])}\ntokens:\n{text_tokens}",
    )


@cli.command()
@click.option("--listen", default="127.0.0.1:8080", help="host:port to bind.")
@click.pass_obj
def serve(app: App, listen: str) -> None:
    """Run the HTTP service API."""
    from .httpapi import serve as serve_gateway  # only this command needs http.server

    host, _, port = listen.rpartition(":")
    click.echo(f"serving on http://{host}:{port}", err=True)
    serve_gateway(app.gateway(), host or "127.0.0.1", int(port))


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show()
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return EXIT_USAGE
    except HrbacError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
