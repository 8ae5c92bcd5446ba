"""The benchmark builds its homes through the program's own API
(``Gateway.bootstrap``, ``SystemParams``, ``cli.App``, ``cli.DEFAULT_CONFIG``)
and checks them through its correctness gate (``state.blobs``, a
CLI-style reload).  Provisioning each workload's smallest corpus, a few
hundred commits through ``Gateway._commit``, and gating it here makes a
change to any of those uses fail in the suite, not only in a benchmark
run.  It also counts RSA decryptions: reading back what the provisioning
gateway sealed makes none, and the gate's reload makes one per resource."""

from __future__ import annotations

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "write-heavy": ("perfbench.workloads", "WriteHeavy"),
    "http-mixed": ("perfbench.httpmixed", "HttpMixed"),
    "cli-cold": ("perfbench.clicold", "CliCold"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_toy_corpus_passes_the_gate(tmp_path, monkeypatch, rsa_unwraps, workload):
    monkeypatch.syspath_prepend(ROOT)
    corpus = importlib.import_module("perfbench.corpus")
    workloads = importlib.import_module("perfbench.workloads")
    module, name = WORKLOADS[workload]
    spec = getattr(importlib.import_module(module), name)(toy=True).spec()

    home = corpus.provision(str(tmp_path / "home"), spec, 3)
    # the newest uploads read back through the gateway that sealed them
    # make no RSA decryption ...
    for resource_id in home.ranked[-3:]:
        home.gateway.download(home.ctx(home.model.resources[resource_id].owner), resource_id)
    assert rsa_unwraps == []
    home.close()
    assert workloads.gate(home, workloads.count_lines(home.audit_path), 0) == []
    # ... while the gate's CLI-style reload unwraps each resource through RSA
    assert len(rsa_unwraps) == len(home.model.resources)


def test_gate_reports_a_planted_private_orphan(tmp_path, monkeypatch):
    """``load_private`` adopts every validly named file of the blob
    directory, which is how the gate's ``state.blobs`` listing sees an
    orphan that no document references."""
    monkeypatch.syspath_prepend(ROOT)
    corpus = importlib.import_module("perfbench.corpus")
    workloads = importlib.import_module("perfbench.workloads")
    spec = workloads.WriteHeavy(toy=True).spec()

    home = corpus.provision(str(tmp_path / "home"), spec, 3)
    home.close()
    orphan = "orphan.1.0123456789abcdef.blob"
    with open(os.path.join(os.path.dirname(home.private_path), "private-blobs", orphan),
              "wb") as fh:
        fh.write(b"HRB1")
    violations = workloads.gate(home, workloads.count_lines(home.audit_path), 0)
    assert violations == [f"orphan private blobs: {[orphan]}"]
