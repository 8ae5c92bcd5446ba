"""Service API tests over a real socket: routes, auth, status codes,
keep-alive and bounded request input."""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest
import requests

from hrbac import httpapi
from hrbac.httpapi import make_server
from hrbac.policy import UserKind
from hrbac.stores import Classification

from conftest import make_env


@pytest.fixture
def service():
    env = make_env()
    role = env.gateway.add_role(env.admin, "Engineer")
    env.gateway.ensure_role_key(env.admin, role, 1024)
    env.add_actor("owner", UserKind.DATA_OWNER)
    env.add_actor("reader", UserKind.END_USER)
    env.add_actor("rescue", UserKind.OVERRIDE)
    env.gateway.assign_role(env.admin, "reader", role)

    server = make_server(env.gateway)
    # a short poll, so that shutdown() at teardown returns quickly
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    yield env, role, base
    server.shutdown()
    server.server_close()


def bearer(env, actor):
    return {"Authorization": f"Bearer {env.tokens[actor]}"}


def upload(env, base, role, rid="filea", body=b"service payload"):
    return requests.post(
        f"{base}/resources/{rid}",
        data=body,
        headers={
            **bearer(env, "owner"),
            "X-Classification": "Public",
            "X-Grant-Roles": role,
        },
        timeout=5,
    )


class TestFlows:
    def test_upload_then_download(self, service):
        env, role, base = service
        resp = upload(env, base, role)
        assert resp.status_code == 200
        assert resp.json()["version"] == 1

        got = requests.get(f"{base}/resources/filea", headers=bearer(env, "reader"), timeout=5)
        assert got.status_code == 200
        assert got.content == b"service payload"

    def test_grant_and_revoke_endpoints(self, service):
        env, role, base = service
        upload(env, base, role)
        other = env.gateway.add_role(env.admin, "Analyst")
        env.gateway.ensure_role_key(env.admin, other, 1024)
        env.add_actor("analyst", UserKind.END_USER)
        env.gateway.assign_role(env.admin, "analyst", other)

        denied = requests.get(
            f"{base}/resources/filea", headers=bearer(env, "analyst"), timeout=5
        )
        assert denied.status_code == 403

        granted = requests.post(
            f"{base}/resources/filea/grants/{other}", headers=bearer(env, "owner"), timeout=5
        )
        assert granted.status_code == 200
        assert requests.get(
            f"{base}/resources/filea", headers=bearer(env, "analyst"), timeout=5
        ).content == b"service payload"

        revoked = requests.delete(
            f"{base}/resources/filea/grants/{other}", headers=bearer(env, "owner"), timeout=5
        )
        assert revoked.status_code == 200
        assert requests.get(
            f"{base}/resources/filea", headers=bearer(env, "analyst"), timeout=5
        ).status_code == 403

    def test_rotate_endpoint(self, service):
        env, role, base = service
        upload(env, base, role)
        resp = requests.post(
            f"{base}/resources/filea/rotate", headers=bearer(env, "owner"), timeout=5
        )
        assert resp.status_code == 200
        assert resp.json()["version"] == 2

    def test_status_endpoint(self, service):
        env, role, base = service
        resp = requests.get(f"{base}/status", headers=bearer(env, "admin"), timeout=5)
        assert resp.status_code == 200
        body = resp.json()
        assert body["roles"] == 1 and body["users"] == 4

    def test_override_endpoint(self, service):
        env, role, base = service
        upload(env, base, role)
        resp = requests.post(
            f"{base}/override/filea",
            headers={**bearer(env, "rescue"), "X-Reason": "incident"},
            timeout=5,
        )
        assert resp.status_code == 200
        assert resp.content == b"service payload"


class TestStatusCodes:
    def test_bad_token_401(self, service):
        env, role, base = service
        resp = requests.get(
            f"{base}/resources/x", headers={"Authorization": "Bearer nope"}, timeout=5
        )
        assert resp.status_code == 401
        assert resp.json()["error"] == "TokenInvalid"

    def test_missing_auth_header_401(self, service):
        env, role, base = service
        assert requests.get(f"{base}/resources/x", timeout=5).status_code == 401

    def test_denied_403(self, service):
        env, role, base = service
        upload(env, base, role)
        resp = requests.post(
            f"{base}/resources/other",
            data=b"x",
            headers={**bearer(env, "reader"), "X-Grant-Roles": role},
            timeout=5,
        )
        assert resp.status_code == 403

    def test_missing_404(self, service):
        env, role, base = service
        resp = requests.get(f"{base}/resources/ghost", headers=bearer(env, "reader"), timeout=5)
        assert resp.status_code == 404

    def test_conflict_409(self, service):
        env, role, base = service
        upload(env, base, role)
        resp = requests.delete(
            f"{base}/resources/filea/grants/ghost-role",
            headers=bearer(env, "owner"),
            timeout=5,
        )
        # unknown role on revoke: not granted -> 409 family
        assert resp.status_code in (404, 409)
        resp = requests.delete(
            f"{base}/resources/filea/grants/{role}", headers=bearer(env, "owner"), timeout=5
        )
        assert resp.status_code == 200
        again = requests.delete(
            f"{base}/resources/filea/grants/{role}", headers=bearer(env, "owner"), timeout=5
        )
        assert again.status_code == 409

    def test_invalid_request_400(self, service):
        env, role, base = service
        resp = requests.post(
            f"{base}/resources/filea",
            data=b"x",
            headers=bearer(env, "owner"),  # no grant roles
            timeout=5,
        )
        assert resp.status_code == 400

    def test_unroutable_404(self, service):
        env, role, base = service
        assert requests.get(f"{base}/nowhere", timeout=5).status_code == 404

    def test_override_missing_reason_400(self, service):
        env, role, base = service
        upload(env, base, role)
        resp = requests.post(
            f"{base}/override/filea", headers=bearer(env, "rescue"), timeout=5
        )
        assert resp.status_code == 400

    def test_every_data_request_is_audited(self, service):
        env, role, base = service
        before = len(env.gateway.audit_log)
        upload(env, base, role)
        requests.get(f"{base}/resources/filea", headers=bearer(env, "reader"), timeout=5)
        requests.get(f"{base}/resources/ghost", headers=bearer(env, "reader"), timeout=5)
        assert len(env.gateway.audit_log) == before + 3


class TestMalformedHeaders:
    def test_bad_classification_is_400(self, service):
        env, role, base = service
        resp = requests.post(
            f"{base}/resources/x",
            data=b"x",
            headers={**bearer(env, "owner"), "X-Classification": "TopSecret", "X-Grant-Roles": role},
            timeout=5,
        )
        assert resp.status_code == 400


def connect(base) -> http.client.HTTPConnection:
    url = urlsplit(base)
    return http.client.HTTPConnection(url.hostname, url.port, timeout=5)


def raw_exchange(base, head: str) -> bytes:
    """Send a request head on a fresh socket and return every byte the
    server sends until it closes the connection (a timeout fails)."""
    url = urlsplit(base)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(head.encode("latin-1"))
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestKeepAlive:
    def test_downloads_reuse_one_connection_without_a_nagle_stall(self, service):
        env, role, base = service
        body = os.urandom(16 * 1024)
        assert upload(env, base, role, body=body).status_code == 200
        conn = connect(base)
        try:
            conn.request("GET", "/resources/filea", headers=bearer(env, "reader"))
            assert conn.getresponse().read() == body
            sock = conn.sock
            assert sock is not None  # left open after the response
            start = time.perf_counter()
            for _ in range(50):
                conn.request("GET", "/resources/filea", headers=bearer(env, "reader"))
                resp = conn.getresponse()
                assert (resp.status, resp.read()) == (200, body)
                assert conn.sock is sock
            # with Nagle on, each response waits for a delayed ACK: >= 2 s
            assert time.perf_counter() - start < 1.0
        finally:
            conn.close()

    def test_idle_connection_is_closed_by_the_server(self, service, monkeypatch):
        env, role, base = service
        monkeypatch.setattr(httpapi._GatewayHandler, "timeout", 0.2)
        conn = connect(base)
        try:
            conn.request("GET", "/status", headers=bearer(env, "admin"))
            assert conn.getresponse().read()
            conn.sock.settimeout(2)
            assert conn.sock.recv(1) == b""  # EOF: the server closed it
        finally:
            conn.close()


class TestBoundedInput:
    @pytest.mark.parametrize("header, status", [
        ("Content-Length: abc", 400),
        ("Content-Length: -1", 400),
        ("Transfer-Encoding: chunked", 400),
        (f"Content-Length: {httpapi.MAX_BODY_BYTES + 1}", 413),
    ])
    def test_bad_body_framing_is_refused_unread_and_unaudited(self, service, header, status):
        env, role, base = service
        before = len(env.gateway.audit_log)
        reply = raw_exchange(
            base,
            "POST /resources/big HTTP/1.1\r\n"
            f"Authorization: Bearer {env.tokens['owner']}\r\n"
            f"X-Grant-Roles: {role}\r\n"
            f"{header}\r\n\r\n",
        )
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
        assert b"connection: close" in head.lower()
        expected = "InvalidRequest" if status == 400 else "PayloadTooLarge"
        assert json.loads(payload)["error"] == expected
        assert len(env.gateway.audit_log) == before
