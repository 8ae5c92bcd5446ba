"""HTTP surfaces: the gateway service API and a loopback blob server
implementing the minimal object protocol used by RemoteBlobStore.

Service API (bearer-token authenticated):

    POST   /resources/{id}               upload; headers X-Classification,
                                         X-Grant-Roles (comma separated)
    GET    /resources/{id}               download
    POST   /resources/{id}/grants/{role} grant role access
    DELETE /resources/{id}/grants/{role} revoke role access
    POST   /resources/{id}/rotate        rotate the data key
    GET    /status                       counts and recent audit entries
    POST   /override/{id}                break-glass read; header X-Reason

Status codes: 401 bad token, 403 denied, 404 missing, 409 SoD/conflict,
400 invalid request, 503 backend unavailable, 500 integrity/crypto fault;
each is the ``http_status`` of the error class raised.

Requests are handled under one process-wide lock: audit appends must be
totally ordered with store mutations, and every data-path request
appends an audit entry.

Both servers speak HTTP/1.1 with keep-alive, so a client sends request
after request on one connection, and set TCP_NODELAY: headers and body
leave in two sends, and Nagle's algorithm would hold the body until the
client's delayed ACK (about 40 ms).  A connection idle for 60 s is
closed, which frees its thread.

The service bounds its input before any gateway call: a malformed or
negative ``Content-Length``, or any ``Transfer-Encoding``, gets 400, and
a length above ``MAX_BODY_BYTES`` gets 413.  The body is then left
unread and the connection is closed, so no later request is parsed out
of body bytes.  These replies are not audited, because no gateway call
is made.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .errors import HrbacError
from .gateway import Gateway
from .stores import Classification

MAX_BODY_BYTES = 32 * 1024 * 1024


def _meta_json(meta) -> dict:
    return {
        "resource_id": meta.resource_id,
        "owner": meta.owner,
        "classification": meta.classification.value,
        "version": meta.version,
        "size_bytes": meta.size_bytes,
        "plaintext_sha256": meta.plaintext_sha256,
        "granted_roles": sorted(meta.wrapped_keys),
    }


class GatewayApp:
    """Routing and locking shared by all handler threads."""

    _ROUTES = (
        ("POST", re.compile(r"^/resources/([^/]+)$"), "upload"),
        ("GET", re.compile(r"^/resources/([^/]+)$"), "download"),
        ("POST", re.compile(r"^/resources/([^/]+)/grants/([^/]+)$"), "grant"),
        ("DELETE", re.compile(r"^/resources/([^/]+)/grants/([^/]+)$"), "revoke"),
        ("POST", re.compile(r"^/resources/([^/]+)/rotate$"), "rotate"),
        ("GET", re.compile(r"^/status$"), "status"),
        ("POST", re.compile(r"^/override/([^/]+)$"), "override"),
    )

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self.lock = threading.RLock()

    def dispatch(
        self, method: str, path: str, headers, body: bytes
    ) -> tuple[int, bytes, str]:
        token = ""
        auth = headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            token = auth[len("Bearer "):]
        for verb, pattern, name in self._ROUTES:
            if verb != method:
                continue
            match = pattern.match(path)
            if match is None:
                continue
            try:
                with self.lock:
                    ctx = self.gateway.authenticate_token(token, time.time())
                    handler = getattr(self, f"_handle_{name}")
                    return handler(ctx, match, headers, body)
            except HrbacError as exc:
                payload = json.dumps(
                    {"error": type(exc).__name__, "message": str(exc)}
                ).encode("utf-8")
                return exc.http_status, payload, "application/json"
            except ValueError as exc:
                payload = json.dumps(
                    {"error": "InvalidRequest", "message": str(exc)}
                ).encode("utf-8")
                return 400, payload, "application/json"
        return 404, b'{"error":"NoRoute"}', "application/json"

    def _handle_upload(self, ctx, match, headers, body):
        classification = Classification(headers.get("X-Classification", "Public"))
        roles = [r.strip() for r in headers.get("X-Grant-Roles", "").split(",") if r.strip()]
        meta = self.gateway.upload(ctx, match.group(1), body, classification, roles)
        return 200, json.dumps(_meta_json(meta)).encode(), "application/json"

    def _handle_download(self, ctx, match, headers, body):
        data = self.gateway.download(ctx, match.group(1))
        return 200, data, "application/octet-stream"

    def _handle_grant(self, ctx, match, headers, body):
        self.gateway.grant_resource_access(ctx, match.group(1), match.group(2))
        return 200, b'{"granted":true}', "application/json"

    def _handle_revoke(self, ctx, match, headers, body):
        self.gateway.revoke_resource_access(ctx, match.group(1), match.group(2))
        return 200, b'{"revoked":true}', "application/json"

    def _handle_rotate(self, ctx, match, headers, body):
        meta = self.gateway.rotate_resource_key(ctx, match.group(1))
        return 200, json.dumps(_meta_json(meta)).encode(), "application/json"

    def _handle_status(self, ctx, match, headers, body):
        report = self.gateway.status(ctx)
        return 200, json.dumps(report.as_dict()).encode(), "application/json"

    def _handle_override(self, ctx, match, headers, body):
        reason = headers.get("X-Reason", "")
        data = self.gateway.override_download(ctx, match.group(1), reason)
        return 200, data, "application/octet-stream"


class _Handler(BaseHTTPRequestHandler):
    """Transport shared by both servers: HTTP/1.1 keep-alive, TCP_NODELAY
    and an idle timeout (see the module docstring)."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 60  # seconds a connection may sit idle

    def _reply(
        self, status: int, payload: bytes = b"", ctype: Optional[str] = None,
        close: bool = False,
    ) -> None:
        self.send_response(status)
        if ctype is not None:
            self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass


class _GatewayHandler(_Handler):
    app: GatewayApp  # set by make_server

    def _reject(self, status: int, error: str, message: str) -> None:
        """Reply without reading the body, and close the connection."""
        payload = json.dumps({"error": error, "message": message}).encode("utf-8")
        self._reply(status, payload, "application/json", close=True)

    def _run(self, method: str) -> None:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if "Transfer-Encoding" in self.headers:
            return self._reject(400, "InvalidRequest", "Transfer-Encoding is not supported")
        if not (raw.isascii() and raw.isdigit()):
            return self._reject(400, "InvalidRequest", f"bad Content-Length: {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            return self._reject(
                413, "PayloadTooLarge", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = self.rfile.read(length)
        self._reply(*self.app.dispatch(method, self.path, self.headers, body))

    def do_GET(self) -> None:
        self._run("GET")

    def do_POST(self) -> None:
        self._run("POST")

    def do_DELETE(self) -> None:
        self._run("DELETE")


def make_server(gateway: Gateway, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    app = GatewayApp(gateway)
    handler = type("BoundGatewayHandler", (_GatewayHandler,), {"app": app})
    return ThreadingHTTPServer((host, port), handler)


def serve(gateway: Gateway, host: str, port: int) -> None:
    server = make_server(gateway, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()


# -- loopback blob service ----------------------------------------------

class _BlobHandler(_Handler):
    """PUT/GET/DELETE /blobs/{name} over an in-memory dict; 503 when the
    owning server's fail flag is set (for fault-injection tests)."""

    blobs: dict[str, bytes]
    fail: threading.Event

    def _name(self) -> Optional[str]:
        match = re.match(r"^/blobs/([^/]+)$", self.path)
        return match.group(1) if match else None

    def do_PUT(self) -> None:
        # read first: an unread body would be parsed as the next request
        data = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        if self.fail.is_set():
            return self._reply(503)
        name = self._name()
        if name is None:
            return self._reply(404)
        self.blobs[name] = data
        self._reply(200)

    def do_GET(self) -> None:
        if self.fail.is_set():
            return self._reply(503)
        if self.path == "/blobs":
            return self._reply(200, json.dumps(sorted(self.blobs)).encode())
        name = self._name()
        if name is None or name not in self.blobs:
            return self._reply(404)
        self._reply(200, self.blobs[name])

    def do_DELETE(self) -> None:
        if self.fail.is_set():
            return self._reply(503)
        name = self._name()
        if name is not None and name in self.blobs:
            del self.blobs[name]
            return self._reply(200)
        self._reply(404)


class BlobServer:
    """Loopback object store for tests and local runs."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.blobs: dict[str, bytes] = {}
        self.fail = threading.Event()
        handler = type(
            "BoundBlobHandler", (_BlobHandler,), {"blobs": self.blobs, "fail": self.fail}
        )
        self._server = ThreadingHTTPServer((host, port), handler)
        # a short poll, so that stop() returns quickly
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BlobServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
