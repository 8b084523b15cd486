"""Seeded input cache.

Each workload's inputs are synthesized once per (workload, size, seed)
into ``.bench_data/cache/<key>/`` under the repository root, which git
ignores. The key also carries a digest of the scenario, and the entry
is rebuilt when the fluxgraph sources changed since it was filled, so
a changed generator or file format never reuses stale inputs. The
entry's path does not depend on the sources, so the input paths the
run manifest records stay the same across code changes.
``manifest.json`` records the sha256 of every cached file; a cache hit
re-checks them, and an entry that fails the check is rebuilt. Only the
few most recently used entries are kept.

An entry holds ``ledger.jsonl`` (run-verify, staged-noisy) or the
ingested ``graph/`` (detect-sweep), plus ``truth/ground_truth.json``
and ``truth/labels.csv``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from time import perf_counter

import scenarios

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, ".bench_data")
CACHE_DIR = os.path.join(DATA_DIR, "cache")
SRC_DIR = os.path.join(ROOT, "src", "fluxgraph")

MANIFEST = "manifest.json"
LEDGER = "ledger.jsonl"
GRAPH_DIR = "graph"
TRUTH_DIR = "truth"
TRUTH = os.path.join(TRUTH_DIR, "ground_truth.json")
LABELS = os.path.join(TRUTH_DIR, "labels.csv")

KEEP_ENTRIES = 4


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    """sha256 over the fluxgraph sources, so results tie to the code."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SRC_DIR, name), "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _files(entry: str) -> list[str]:
    found = []
    for root, _dirs, files in os.walk(entry):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), entry)
            if rel != MANIFEST:
                found.append(rel)
    return sorted(found)


def verify(entry: str) -> dict:
    """Check every cached file against the manifest; returns the manifest.

    Raises ValueError when a file is missing, extra or differs.
    """
    with open(os.path.join(entry, MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected = manifest["files"]
    if _files(entry) != sorted(expected):
        raise ValueError(f"cached inputs in {entry} do not match their manifest")
    for rel, digest in expected.items():
        if sha256_file(os.path.join(entry, rel)) != digest:
            raise ValueError(f"cached input {rel} in {entry} fails its sha256 check")
    return manifest


def _fill(workload: str, scenario: dict, source: str, dest: str) -> None:
    from fluxgraph import graph, records, synth

    os.makedirs(dest)
    ledger = os.path.join(dest, LEDGER)
    start = perf_counter()
    truth = synth.generate_to_file(synth.config_from_dict(scenario), ledger)
    generate_s = perf_counter() - start
    synth.save_ground_truth(truth, os.path.join(dest, TRUTH_DIR))
    if workload == "detect-sweep":
        g = graph.AggregatedGraph()
        with open(ledger, encoding="utf-8") as fh:
            for t in records.ingest(fh):
                g.add_transfer(t.sender, t.recipient, t.amount_planck)
        graph.save_graph(g, os.path.join(dest, GRAPH_DIR))
        os.remove(ledger)
    manifest = {
        "scenario": scenario,
        "source_sha256": source,
        "generate_s": generate_s,
        "files": {rel: sha256_file(os.path.join(dest, rel)) for rel in _files(dest)},
    }
    with open(os.path.join(dest, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _evict(keep: str) -> None:
    entries = [
        os.path.join(CACHE_DIR, name)
        for name in os.listdir(CACHE_DIR)
        if os.path.join(CACHE_DIR, name) != keep
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP_ENTRIES - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure(workload: str, size: str, seed: int) -> tuple[str, dict]:
    """Return (entry directory, manifest) of verified cached inputs,
    synthesizing them first on a miss."""
    scenario = scenarios.scenario_for(workload, seed, size)
    key_digest = hashlib.sha256(json.dumps(scenario, sort_keys=True).encode()).hexdigest()
    entry = os.path.join(CACHE_DIR, f"{workload}-{size}-{seed}-{key_digest[:12]}")
    source = source_digest()
    os.makedirs(CACHE_DIR, exist_ok=True)
    manifest = None
    if os.path.isdir(entry):
        try:
            manifest = verify(entry)
            if manifest["source_sha256"] != source:
                manifest = None
        except (OSError, ValueError, KeyError):
            pass
        if manifest is None:
            shutil.rmtree(entry)
    if manifest is None:
        partial = f"{entry}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        _fill(workload, scenario, source, partial)
        os.replace(partial, entry)
        manifest = verify(entry)
    os.utime(entry)
    _evict(entry)
    return entry, manifest
