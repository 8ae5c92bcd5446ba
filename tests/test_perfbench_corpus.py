"""The benchmark builds its homes through the program's own API
(``Gateway.bootstrap``, ``SystemParams``, ``cli.App``, ``cli.DEFAULT_CONFIG``)
and checks them through its correctness gate (``state.blobs``, a
CLI-style reload).  Provisioning the smallest corpus and gating it here
makes a change to any of those uses fail in the suite, not only in a
benchmark run."""

from __future__ import annotations

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_toy_write_heavy_corpus_passes_the_gate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    corpus = importlib.import_module("perfbench.corpus")
    workloads = importlib.import_module("perfbench.workloads")

    home = corpus.provision(str(tmp_path / "home"), workloads.WriteHeavy(toy=True).spec(), 3)
    home.close()
    assert workloads.gate(home, workloads.count_lines(home.audit_path), 0) == []
