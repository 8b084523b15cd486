"""Ground-truth correctness checks and artifact digests.

The checks read the output files with ``csv`` and ``json`` directly, not
with fluxgraph's loaders, so a loader bug cannot hide a wrong result.
Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import inputs
import scenarios

MANIFEST_FILE = "manifest.json"
# the only manifest fields allowed to differ between reruns
VOLATILE_MANIFEST_KEYS = ("timings_s", "total_s")


def artifact_digests(out: str) -> dict[str, str]:
    """sha256 of every file under ``out``, by relative path. The run
    manifest is hashed without its timing fields."""
    digests = {}
    for root, _dirs, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            if rel == MANIFEST_FILE:
                with open(path, encoding="utf-8") as fh:
                    manifest = json.load(fh)
                for key in VOLATILE_MANIFEST_KEYS:
                    manifest.pop(key, None)
                data = json.dumps(manifest, sort_keys=True).encode()
                digests[rel] = hashlib.sha256(data).hexdigest()
            else:
                digests[rel] = inputs.sha256_file(path)
    return dict(sorted(digests.items()))


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_clusters(path: str) -> dict[str, tuple[set, set]]:
    """label -> (main addresses, deposit addresses) from a clusters CSV."""
    found: dict[str, tuple[set, set]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for _cid, label, address, role in rows:
            mains, deposits = found.setdefault(label, (set(), set()))
            (mains if role == "main" else deposits).add(address)
    return found


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _check_report(errors: list, report: dict, truth: dict) -> None:
    for cat in truth["category_totals"]:
        want = truth["category_totals"][cat]
        got = report["flux_partition"][cat]
        _expect(errors, f"{cat} transfers", got["tx_count"], want["tx_count"])
        _expect(errors, f"{cat} flux", got["flux_planck"], want["flux"])
    sizes = truth["user_component_sizes"]
    _expect(errors, "user cluster count", report["user_clusters"]["count"], len(sizes))
    _expect(errors, "largest user cluster", report["user_clusters"]["largest"], sizes[0])


def check_run_verify(out: str, truth: dict, payloads: list) -> list[str]:
    errors: list[str] = []
    report = read_json(os.path.join(out, "report", "report.json"))
    _check_report(errors, report, truth)
    planted = {e["label"]: (set(e["mains"]), set(e["deposits"])) for e in truth["exchanges"]}
    recovered = _read_clusters(os.path.join(out, "clusters.csv"))
    _expect(errors, "exchange labels", sorted(recovered), sorted(planted))
    for label, (mains, deposits) in planted.items():
        got_mains, got_deposits = recovered.get(label, (set(), set()))
        _expect(errors, f"{label} mains", sorted(got_mains), sorted(mains))
        if got_deposits != deposits:
            errors.append(f"{label} deposits: {len(got_deposits ^ deposits)} differ")
    manifest = read_json(os.path.join(out, MANIFEST_FILE))
    _expect(errors, "verified", manifest["options"]["verify"], True)
    for flag, ok in manifest["conservation"].items():
        _expect(errors, f"{flag} conserved", ok, True)
    return errors


def check_staged_noisy(out: str, truth: dict, payloads: list) -> list[str]:
    errors: list[str] = []
    summary = payloads[0]
    _expect(errors, "parsed records", summary["parsed"], truth["record_count"])
    _expect(errors, "kept transfers", summary["kept"], truth["transfer_count"])
    _expect(errors, "dropped records", summary["dropped"],
            truth["noise_records"] + truth["failed_records"] + truth["zero_amount_records"])
    _expect(errors, "zero-amount records", summary["zero_amount"],
            truth["zero_amount_records"])
    _expect(errors, "error lines", summary["error_lines"], 0)
    report = read_json(os.path.join(out, "report", "report.json"))
    _check_report(errors, report, truth)
    _expect(errors, "exchange clusters", report["exchange_summary"]["cluster_count"], 0)
    _expect(errors, "cluster rows", _read_clusters(os.path.join(out, "clusters.csv")), {})
    return errors


def check_detect_sweep(out: str, truth: dict, payloads: list) -> list[str]:
    errors: list[str] = []
    true_mains = {m for e in truth["exchanges"] for m in e["mains"]}
    for i, params in enumerate(scenarios.sweep_params()):
        clusters = _read_clusters(os.path.join(out, scenarios.sweep_file(i)))
        members = [a for mains, deposits in clusters.values() for a in mains | deposits]
        if len(members) != len(set(members)):
            errors.append(f"{params}: clusters overlap")
        got = {m for mains, _deposits in clusters.values() for m in mains}
        hit = len(got & true_mains)
        if not got or hit != len(got):
            errors.append(f"{params}: main precision {hit}/{len(got)}")
        if hit < scenarios.SWEEP_MIN_MAIN_RECALL * len(true_mains):
            errors.append(f"{params}: main recall {hit}/{len(true_mains)}")
    return errors


CHECKS = {
    "run-verify": check_run_verify,
    "staged-noisy": check_staged_noisy,
    "detect-sweep": check_detect_sweep,
}


def check(workload: str, out: str, truth: dict, payloads: list) -> list[str]:
    """Failure messages for one run's outputs; a malformed output fails."""
    try:
        return CHECKS[workload](out, truth, payloads)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
