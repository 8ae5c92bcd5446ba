"""Wrapper spans around the public functions of each module on the
request path, installed from outside the program.

A span records its name, start, end, parent span and request id; the
request id is the id of the outermost span.  Spans stay in memory until
``summary()`` reduces them to per-name duration and self-time lists.
Self time is a span's duration minus the durations of its direct
children (children run sequentially within one thread).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  Names imported into other modules
# with ``from x import f`` are patched there too (see Tracer._patch).
TARGETS = (
    ("hrbac.gateway", "Gateway.download", "gateway.download"),
    ("hrbac.gateway", "Gateway.upload", "gateway.upload"),
    ("hrbac.gateway", "Gateway.grant_resource_access", "gateway.mutation"),
    ("hrbac.gateway", "Gateway.revoke_resource_access", "gateway.mutation"),
    ("hrbac.gateway", "Gateway.rotate_resource_key", "gateway.mutation"),
    ("hrbac.gateway", "Gateway.assign_role", "gateway.mutation"),
    ("hrbac.gateway", "Gateway.revoke_role", "gateway.mutation"),
    ("hrbac.gateway", "Gateway.delegate_role", "gateway.mutation"),
    ("hrbac.gateway", "Gateway.status", "gateway.status"),
    ("hrbac.gateway", "Gateway.authenticate_token", "gateway.authenticate_token"),
    ("hrbac.policy", "PolicyEngine.check_access", "policy.check_access"),
    ("hrbac.policy", "PolicyEngine.effective_roles", "policy.effective_roles"),
    ("hrbac.policy", "PolicyEngine.revoke_permission", "policy.revoke_permission"),
    ("hrbac.policy", "PolicyEngine.dump_state", "policy.dump_state"),
    ("hrbac.envelope", "unwrap_key", "envelope.unwrap_key"),
    ("hrbac.envelope", "wrap_key", "envelope.wrap_key"),
    ("hrbac.envelope", "seal", "envelope.seal"),
    ("hrbac.envelope", "open_blob", "envelope.open_blob"),
    ("hrbac.envelope", "RoleKeyPair.from_private_pem", "envelope.from_private_pem"),
    ("hrbac.stores", "save_private", "stores.save_private"),
    ("hrbac.stores", "load_private", "stores.load_private"),
    ("hrbac.stores", "validate_state", "stores.validate_state"),
    ("hrbac.stores", "PrivateState.to_doc", "stores.to_doc"),
    ("hrbac.stores", "PrivateState.put_blob", "stores.put_blob"),
    ("hrbac.stores", "PrivateState.get_blob", "stores.get_blob"),
    ("hrbac.stores", "FilesystemBlobStore.put_blob", "stores.put_blob"),
    ("hrbac.stores", "FilesystemBlobStore.get_blob", "stores.get_blob"),
    ("hrbac.audit", "AuditLog.append", "audit.append"),
    ("hrbac.audit", "AuditLog.__init__", "audit.replay"),
    ("hrbac.httpapi", "GatewayApp.dispatch", "httpapi.dispatch"),
    ("hrbac.cli", "main", "cli.command"),
    ("os", "fsync", "os.fsync"),
)


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # (name, start, end, span id, parent id, request id)
        self.records: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    def _record(self, name: str, start: float, end: float, sid: int, parent) -> None:
        parent_id, req = (parent if parent is not None else (0, sid))
        self.records.append((name, start, end, sid, parent_id, req))

    def wrap(self, name: str, fn, after=None):
        ids, current, record = self._ids, self._current, self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set((sid, parent[1] if parent is not None else sid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                record(name, start, end, sid, parent)
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _after_hooks(self) -> dict:
        counts = self.counts

        def saved(args, kwargs):
            counts["stores.save_private_bytes"] += os.path.getsize(args[0])

        def appended(args, kwargs):
            if kwargs.get("decision") == "Deny":
                counts["gateway.deny"] += 1

        return {"stores.save_private": saved, "audit.append": appended}

    def install(self, targets=TARGETS) -> "Tracer":
        hooks = self._after_hooks()
        # import everything first so every ``from x import f`` binding exists
        for module_name, _, _ in targets:
            importlib.import_module(module_name)
        for module_name, path, span in targets:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__, hooks.get(span)))
            else:
                wrapped = self.wrap(span, raw, hooks.get(span))
            self._patch(owner, attr, raw, wrapped, rebind=not isinstance(owner, type))
        self._patch_lock()
        return self

    def _patch(self, owner, attr, raw, wrapped, rebind: bool) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if not rebind or owner is os:
            return
        for name, module in list(sys.modules.items()):
            if not name.startswith("hrbac") or module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._undo.append((module, key, raw))
                    setattr(module, key, wrapped)

    def _patch_lock(self) -> None:
        from hrbac import httpapi

        original = httpapi.GatewayApp.__init__
        tracer = self

        def init(app, *args, **kwargs):
            original(app, *args, **kwargs)
            app.lock = _TimedLock(app.lock, tracer)

        self._undo.append((httpapi.GatewayApp, "__init__", original))
        httpapi.GatewayApp.__init__ = init

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """{"spans": {name: {"dur_ms": [...], "self_ms": [...]}}, "counts": {...}}"""
        records = list(self.records)
        names = {r[3]: r[0] for r in records}
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, _, parent, _ in records:
            if parent:
                child_time[parent] += end - start
        spans: dict[str, dict[str, list]] = defaultdict(lambda: {"dur_ms": [], "self_ms": []})
        for name, start, end, sid, parent, _ in records:
            dur = (end - start) * 1e3
            entry = spans[name]
            entry["dur_ms"].append(dur)
            entry["self_ms"].append(dur - child_time[sid] * 1e3)
            if name == "os.fsync" and names.get(parent) == "audit.append":
                spans["audit.fsync"]["dur_ms"].append(dur)
        return {"spans": dict(spans), "counts": dict(self.counts)}


class _TimedLock:
    """Context-manager proxy that records the wait to acquire a lock."""

    def __init__(self, lock, tracer: Tracer) -> None:
        self._lock = lock
        self._tracer = tracer

    def __enter__(self):
        parent = self._tracer._current.get()
        sid = next(self._tracer._ids)
        start = time.perf_counter()
        self._lock.acquire()
        self._tracer._record("httpapi.lock_wait", start, time.perf_counter(), sid, parent)
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


def merge(into: dict, other: dict) -> dict:
    """Fold one summary into another (CLI commands each write one)."""
    for name, entry in other["spans"].items():
        target = into["spans"].setdefault(name, {"dur_ms": [], "self_ms": []})
        target["dur_ms"].extend(entry["dur_ms"])
        target["self_ms"].extend(entry.get("self_ms", []))
    for key, value in other["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    return into
