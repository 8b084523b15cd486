"""One benchmark run of one workload, in a fresh process.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/worker.py '{"workload": ..., "inputs": DIR, "output": DIR,
                              "trace": FILE-or-null}'

Set-up verifies the cached inputs against their sha256 manifest and,
for detect-sweep, loads the graph and the labels. The timed section
then runs the workload into ``output``. Only cached inputs are read
here; nothing is synthesized. The last stdout line is a JSON object
with the set-up time, the timed wall time, the process's peak RSS and
the stdout payloads of the CLI commands. With ``trace`` set, the layer
functions are wrapped first and the spans are written to that file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import inputs
import scenarios
import spans


def _cli(argv: list[str]) -> dict:
    """Run one fluxgraph command as its console script would; returns its
    JSON payload."""
    from fluxgraph import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--quiet"])
    if code != 0:
        raise RuntimeError(f"fluxgraph {argv[0]} exited with {code}")
    return json.loads(out.getvalue())


def setup(workload: str, entry: str):
    inputs.verify(entry)
    if workload != "detect-sweep":
        return None
    from fluxgraph import exchanges, graph

    return (
        graph.load_graph(os.path.join(entry, inputs.GRAPH_DIR)),
        exchanges.load_labels(os.path.join(entry, inputs.LABELS)),
    )


def run_workload(workload: str, entry: str, out: str, state) -> list[dict]:
    os.makedirs(out)
    ledger = os.path.join(entry, inputs.LEDGER)
    if workload == "run-verify":
        return [_cli(["run", "--input", ledger, "--output", out,
                      "--labels", os.path.join(entry, inputs.LABELS), "--verify"])]
    if workload == "staged-noisy":
        transfers = os.path.join(out, "transfers.jsonl")
        graph_dir = os.path.join(out, "graph")
        clusters = os.path.join(out, "clusters.csv")
        coloring = os.path.join(out, "coloring.csv")
        contracted = os.path.join(out, "contracted")
        return [
            _cli(["ingest", "--input", ledger, "--output", transfers]),
            _cli(["build", "--input", transfers, "--output", graph_dir]),
            _cli(["detect", "--graph", graph_dir, "--output", clusters,
                  "--coloring", coloring]),
            _cli(["contract", "--graph", graph_dir, "--coloring", coloring,
                  "--clusters", clusters, "--output", contracted]),
            _cli(["analyze", "--contracted", contracted, "--clusters", clusters,
                  "--output", os.path.join(out, "report")]),
        ]
    if workload == "detect-sweep":
        from fluxgraph import exchanges

        graph, labels = state
        for i, kwargs in enumerate(scenarios.sweep_params()):
            params = exchanges.DetectionParams(**kwargs)
            clusters = exchanges.detect_exchanges(graph, params, labels)
            exchanges.build_coloring(graph, clusters)
            exchanges.save_clusters(os.path.join(out, scenarios.sweep_file(i)), clusters)
        return []
    raise ValueError(f"unknown workload {workload!r}")


def main(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    phase = tracer.span if tracer else (lambda _name: contextlib.nullcontext())

    start = perf_counter()
    with phase(spans.SETUP_SPAN):
        state = setup(spec["workload"], spec["inputs"])
    setup_s = perf_counter() - start

    start = perf_counter()
    with phase(spans.WORKLOAD_SPAN):
        payloads = run_workload(spec["workload"], spec["inputs"], spec["output"], state)
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        with open(spec["trace"], "w", encoding="utf-8") as fh:
            json.dump(tracer.as_dict(), fh)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "payloads": payloads,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
