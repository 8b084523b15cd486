"""fluxgraph benchmark: three batch workloads, end-to-end and per-layer metrics.

Usage, from anywhere inside a checkout:

    python3 bench/run.py --workload run-verify --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seconds 60       # every workload
    python3 bench/run.py --workload all --size smoke       # tiny, seconds
    python3 bench/run.py --workload run-verify --size full --trace 1

One client runs the workload's runs back to back (a closed loop), each
in a fresh worker process (``worker.py``), until the timed sections add
up to ``--seconds``; at least one run is made. Every run's outputs are
checked against the synthetic ground truth and their sha256 digests
against the other runs of the same inputs and code.

``--trace 0`` reports the end-to-end metrics; tracing stays off.
``--trace 1`` alternates untraced and traced runs (at least one of
each) and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the traced minus the untraced wall time.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it print each metric with
unit, sample count, median and quartiles, the error rate and the
artifact digests. Inputs are cached in ``.bench_data/`` (see
``inputs.py``), which also keeps each run's results and last trace.
"""

from __future__ import annotations

import argparse
import collections
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import checks
import inputs
import scenarios
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORK_DIR = os.path.join(inputs.DATA_DIR, "work")
RESULTS_DIR = os.path.join(inputs.DATA_DIR, "results")
DIGESTS_DIR = os.path.join(inputs.DATA_DIR, "digests")

END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("setup_s", "s"),
)
REP_TIMEOUT_S = 170

# Stage shares of `fluxgraph run --verify` on MILLION_SCENARIO, from the
# ROADMAP baseline table (2 cores, CPython 3.11).
ROADMAP_STAGE_SHARES = {
    "ingest_and_build": 0.34,
    "contract": 0.26,
    "save_contracted": 0.18,
    "detect": 0.12,
    "save_graph": 0.09,
}


@dataclass
class Rep:
    """One worker run and its verdict."""

    traced: bool
    errors: list[str] = field(default_factory=list)
    wall_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    output_mb: float | None = None
    digests: dict[str, str] = field(default_factory=dict)
    timings: dict | None = None
    layers: dict[str, float] | None = None

    @property
    def completed(self) -> bool:
        return self.wall_s is not None

    @property
    def digest(self) -> str:
        return checks.combined_digest(self.digests)


@dataclass
class Result:
    workload: str
    size: str
    seed: int
    trace: bool
    reps: list[Rep]
    generate_s: float
    reference_digests: dict[str, str]

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.reps if rep.errors)

    def untraced(self) -> list[Rep]:
        return [r for r in self.reps if r.completed and not r.traced]

    def samples(self) -> dict[str, list[float]]:
        """Per metric, the values the reported median is taken over."""
        plain = self.untraced()
        if not self.trace:
            return {
                "wall_s": [r.wall_s for r in plain],
                "peak_rss_mb": [r.peak_rss_mb for r in plain],
                "output_mb": [r.output_mb for r in plain],
                "setup_s": [r.setup_s for r in plain],
            }
        traced = [r for r in self.reps if r.completed and r.traced]
        values = {
            name: [r.layers[name] for r in traced] for name, _unit in spans.LAYER_METRICS
        }
        values["synth.generate_s"] = [self.generate_s]
        values["trace.overhead_s"] = []
        if traced and plain:
            values["trace.overhead_s"].append(
                statistics.median(r.wall_s for r in traced)
                - statistics.median(r.wall_s for r in plain)
            )
        return values

    def units(self) -> tuple[tuple[str, str], ...]:
        return spans.LAYER_METRICS if self.trace else END_TO_END


def run_rep(workload: str, entry: str, truth: dict, traced: bool,
            tamper: Callable[[str, dict], None] | None = None) -> Rep:
    """Run one worker process, then check and digest its outputs."""
    rep = Rep(traced=traced)
    out = os.path.join(WORK_DIR, "out")
    trace_file = os.path.join(WORK_DIR, "trace.json")
    shutil.rmtree(out, ignore_errors=True)
    spec = {
        "workload": workload,
        "inputs": os.path.relpath(entry, ROOT),
        "output": os.path.relpath(out, ROOT),
        "trace": os.path.relpath(trace_file, ROOT) if traced else None,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), BENCH_DIR, env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        rep.errors.append(f"worker exceeded {REP_TIMEOUT_S} s")
        return rep
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        rep.errors.append(f"worker exited with {proc.returncode}: {tail[0]}")
        return rep
    try:
        measured = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rep.errors.append("worker printed no result")
        return rep
    rep.wall_s = measured["wall_s"]
    rep.setup_s = measured["setup_s"]
    rep.peak_rss_mb = measured["peak_rss_mb"]
    rep.output_mb = spans.dir_mb(out)
    if traced:
        with open(trace_file, encoding="utf-8") as fh:
            trace = json.load(fh)
        rep.layers = spans.layer_metrics(trace)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        os.replace(trace_file, os.path.join(RESULTS_DIR, f"{workload}-trace.json"))
    if workload == "run-verify":
        with open(os.path.join(out, checks.MANIFEST_FILE), encoding="utf-8") as fh:
            manifest = json.load(fh)
        rep.timings = {"timings_s": manifest["timings_s"], "total_s": manifest["total_s"]}
    if tamper is not None:
        truth = copy.deepcopy(truth)
        tamper(out, truth)
    rep.digests = checks.artifact_digests(out)
    rep.errors.extend(checks.check(workload, out, truth, measured["payloads"]))
    shutil.rmtree(out)
    return rep


def _check_determinism(reps: list[Rep], stored: dict | None) -> dict[str, str]:
    """Fail every completed run whose digests differ from the reference:
    the digests stored by an earlier run of the same inputs and code, else
    the ones most runs agree on. Returns the reference digests."""
    done = [r for r in reps if r.completed]
    if not done:
        return {}
    if stored is None:
        votes = collections.Counter(r.digest for r in done)
        top = votes.most_common(1)[0][0]
        stored = next(r.digests for r in done if r.digest == top)
    reference = checks.combined_digest(stored)
    for rep in done:
        if rep.digest != reference:
            changed = sorted(
                name for name in set(rep.digests) | set(stored)
                if rep.digests.get(name) != stored.get(name)
            )
            kind = "traced" if rep.traced else "untraced"
            rep.errors.append(f"{kind} run's artifacts differ: {', '.join(changed)}")
    return stored


def measure(workload: str, size: str, seed: int, seconds: float, trace: bool,
            tamper: Callable[[str, dict], None] | None = None) -> Result:
    """Run one workload for ``seconds`` of timed sections. ``tamper``, for
    the self-tests, may alter the last run's outputs or truth before the
    checks."""
    entry, manifest = inputs.ensure(workload, size, seed)
    truth = checks.read_json(os.path.join(entry, inputs.TRUTH))
    os.makedirs(WORK_DIR, exist_ok=True)
    kinds = (False, True) if trace else (False,)
    reps: list[Rep] = []
    spent = 0.0
    while True:
        round_reps = [run_rep(workload, entry, truth, traced) for traced in kinds]
        reps.extend(round_reps)
        round_s = sum(r.wall_s or 0.0 for r in round_reps)
        spent += round_s
        if spent + round_s > seconds or not all(r.completed for r in round_reps):
            break
    if tamper is not None:
        reps.append(run_rep(workload, entry, truth, trace, tamper))

    digest_file = os.path.join(
        DIGESTS_DIR, f"{os.path.basename(entry)}-{manifest['source_sha256'][:12]}.json"
    )
    stored = None
    if os.path.exists(digest_file):
        with open(digest_file, encoding="utf-8") as fh:
            stored = json.load(fh)
    reference = _check_determinism(reps, stored)
    if stored is None and reps and not any(r.errors for r in reps):
        os.makedirs(DIGESTS_DIR, exist_ok=True)
        with open(digest_file, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=2)
    return Result(workload, size, seed, trace, reps, manifest["generate_s"], reference)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def stage_shares(result: Result) -> dict[str, float] | None:
    """run-verify's manifest stage timings as shares of its total, from
    the untraced run with the median wall time."""
    plain = sorted((r for r in result.untraced() if r.timings), key=lambda r: r.wall_s)
    if not plain:
        return None
    timings = plain[len(plain) // 2].timings
    return {k: v / timings["total_s"] for k, v in timings["timings_s"].items()}


def summarize(result: Result) -> dict:
    """Everything a run reports, as one JSON-able dict."""
    samples = result.samples()
    metrics = {}
    for name, unit in result.units():
        values = samples[name]
        if not values:
            continue
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit,
                         "n": len(values), "q1": q1, "q3": q3}
    attempted = len(result.reps)
    return {
        "workload": result.workload,
        "size": result.size,
        "seed": result.seed,
        "trace": result.trace,
        "attempted": attempted,
        "failed": result.failed,
        "error_rate": result.failed / attempted,
        "errors": [e for r in result.reps for e in r.errors],
        "metrics": metrics,
        "digest": checks.combined_digest(result.reference_digests),
        "digests": result.reference_digests,
        "stage_shares": stage_shares(result) if result.workload == "run-verify" else None,
        "roadmap_stage_shares": ROADMAP_STAGE_SHARES if result.workload == "run-verify" else None,
        "runs": [
            {"traced": r.traced, "wall_s": r.wall_s, "setup_s": r.setup_s,
             "peak_rss_mb": r.peak_rss_mb, "output_mb": r.output_mb, "errors": r.errors}
            for r in result.reps
        ],
        "environment": environment(),
    }


def environment() -> dict:
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "git_revision": revision,
        "source_sha256": inputs.source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def print_summary(summary: dict) -> None:
    print(f"{summary['workload']} (size {summary['size']}, seed {summary['seed']}, "
          f"trace {int(summary['trace'])}): {summary['attempted']} runs, "
          f"{summary['failed']} failed")
    print(f"  {'metric':<30} {'unit':<6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, m in summary["metrics"].items():
        print(f"  {name:<30} {m['unit']:<6} {m['n']:>3} {m['value']:>14.6g} "
              f"{m['q1']:>14.6g} {m['q3']:>14.6g}")
    n = summary["attempted"]
    print(f"  {'error_rate':<30} {'ratio':<6} {n:>3} {summary['error_rate']:>14.6g}")
    for error in summary["errors"]:
        print(f"  FAILED: {error}")
    if summary["stage_shares"]:
        shares = ", ".join(
            f"{k} {v:.1%} ({ROADMAP_STAGE_SHARES[k]:.0%})" if k in ROADMAP_STAGE_SHARES
            else f"{k} {v:.1%}"
            for k, v in summary["stage_shares"].items()
        )
        print(f"  stage shares (ROADMAP baseline): {shares}")
    print(f"  artifacts sha256 {summary['digest']} ({len(summary['digests'])} files)")
    for name, digest in summary["digests"].items():
        print(f"    {digest}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(scenarios.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=scenarios.MILLION_SCENARIO["seed"])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=scenarios.SIZES, default="bench")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fluxgraph", "__init__.py")):
        print(f"error: no fluxgraph sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workloads = scenarios.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        result = measure(workload, args.size, args.seed, args.seconds, bool(args.trace))
        summary = summarize(result)
        summaries.append(summary)
        print_summary(summary)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = f"{workload}-{args.size}-{args.seed}-trace{args.trace}.json"
        with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)

    if not all(s["metrics"] for s in summaries):
        print("error: no run completed", file=sys.stderr)
        return 1
    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
        for s in summaries
        for name, m in s["metrics"].items()
    }
    print(json.dumps({
        "correct": not any(s["failed"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
