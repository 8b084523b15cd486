"""Whole-system acceptance checks.

Each test covers one release criterion and prints a single
``ACCEPTANCE <name>: PASS|FAIL`` line on the real stdout so the
results are visible even under pytest's capture.
"""

import json
import random
import time

import pytest

from conftest import (
    as_aggregated, identity_assignment, random_graph_and_coloring, random_transfers,
)
from fluxgraph import cli
from fluxgraph.analytics import check_conservation, fmt_pct
from fluxgraph.contraction import (
    canonical_form,
    contract,
    oracle_contract,
    verify_contraction,
)
from fluxgraph.exchanges import Coloring, DetectionParams, classify_exchange
from fluxgraph.graph import AggregatedGraph, graph_stats
from fluxgraph.records import IngestSummary, ingest
from fluxgraph.synth import (
    ExchangeSpec,
    ScenarioConfig,
    config_from_dict,
    generate,
    generate_to_file,
    save_ground_truth,
)


@pytest.fixture
def check(request):
    """Reporter that prints one verdict line outside pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def report(name: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {name}: {verdict}"
        if detail:
            line += f" ({detail})"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return report


SWEEP_GRAPHS = 500


@pytest.fixture(scope="module")
def sweep():
    """One pass over the seeded random-graph corpus, shared by the
    contraction criteria. The timed portion covers both contraction
    implementations plus the canonical comparison."""
    results = {
        "graphs": 0,
        "oracle_mismatches": 0,
        "conservation_failures": 0,
        "coloring_failures": 0,
        "idempotence_failures": 0,
        "timed_s": 0.0,
    }
    for seed in range(SWEEP_GRAPHS):
        graph, coloring = random_graph_and_coloring(seed)
        t0 = time.perf_counter()
        contracted, assignment = contract(graph, coloring)
        other, other_assignment = oracle_contract(graph, coloring)
        form = canonical_form(contracted, assignment)
        other_form = canonical_form(other, other_assignment)
        results["timed_s"] += time.perf_counter() - t0
        results["graphs"] += 1
        if form != other_form:
            results["oracle_mismatches"] += 1
        if not all(check_conservation(graph_stats(graph), contracted).values()):
            results["conservation_failures"] += 1
        if not verify_contraction(contracted):
            results["coloring_failures"] += 1
        again_graph, again_coloring = as_aggregated(contracted)
        again, again_assignment = contract(again_graph, again_coloring)
        if canonical_form(again, again_assignment) != canonical_form(
            contracted, identity_assignment(contracted)
        ):
            results["idempotence_failures"] += 1
    return results


def test_contraction_matches_independent_oracle(check, sweep):
    ok = (
        sweep["graphs"] >= SWEEP_GRAPHS
        and sweep["oracle_mismatches"] == 0
        and sweep["timed_s"] < 60.0
    )
    check(
        "oracle-equivalence",
        ok,
        f"{sweep['graphs']} graphs, {sweep['oracle_mismatches']} mismatches, "
        f"{sweep['timed_s']:.1f}s",
    )


def test_contraction_ignores_processing_order(check):
    mismatched = 0
    for seed in range(100):
        triples = random_transfers(seed, max_accounts=40, max_transfers=300)
        accounts = sorted({a for s, r, _ in triples for a in (s, r)})
        color_rng = random.Random(seed + 10_000)
        k = color_rng.randint(0, 6)
        base_colors = [(a, color_rng.randint(0, k)) for a in accounts]
        forms = set()
        for order in range(10):
            order_rng = random.Random(seed * 1000 + order)
            shuffled = list(triples)
            order_rng.shuffle(shuffled)
            colored = list(base_colors)
            order_rng.shuffle(colored)
            graph = AggregatedGraph()
            for sender, recipient, amount in shuffled:
                graph.add_transfer(sender, recipient, amount)
            contracted, assignment = contract(graph, Coloring.from_mapping(graph, dict(colored)))
            forms.add(canonical_form(contracted, assignment))
        if len(forms) != 1:
            mismatched += 1
    check(
        "order-independence",
        mismatched == 0,
        f"100 graphs x 10 orders, {mismatched} with diverging forms",
    )


def test_contraction_conserves_totals(check, sweep):
    check(
        "conservation",
        sweep["conservation_failures"] == 0,
        f"{sweep['graphs']} graphs, exact account/transaction/flux totals",
    )


def test_contraction_output_properly_colored_and_idempotent(check, sweep):
    ok = sweep["coloring_failures"] == 0 and sweep["idempotence_failures"] == 0
    check(
        "proper-coloring-idempotence",
        ok,
        f"{sweep['coloring_failures']} coloring / "
        f"{sweep['idempotence_failures']} idempotence failures",
    )


def _detection_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        seed=502,
        user_count=10_000,
        trader_fraction=0.5,
        mesh_edges_per_user=2,
        giant_fraction=0.5,
        exchanges=[
            ExchangeSpec(label="cex-a", main_wallets=1, deposit_addresses=800,
                         deposit_rounds=2, withdrawals=10, inter_exchange_tx=20),
            ExchangeSpec(label="cex-b", main_wallets=2, deposit_addresses=800,
                         deposit_rounds=2, withdrawals=10, inter_exchange_tx=20),
            ExchangeSpec(label="cex-c", main_wallets=1, deposit_addresses=800,
                         deposit_rounds=2, withdrawals=10, inter_exchange_tx=20),
            ExchangeSpec(label="cex-d", main_wallets=1, deposit_addresses=800,
                         deposit_rounds=2, withdrawals=10, inter_exchange_tx=20),
            ExchangeSpec(label="cex-e", main_wallets=1, deposit_addresses=800,
                         deposit_rounds=2, withdrawals=10, inter_exchange_tx=20),
        ],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _detect_roles(config):
    from fluxgraph.exchanges import detect_exchanges

    lines, truth = generate(config)
    graph = AggregatedGraph()
    for t in ingest(lines):
        graph.add_transfer(t.sender, t.recipient, t.amount_planck)
    clusters = detect_exchanges(graph, labels=truth.labels)
    true_mains = {m for e in truth.exchanges for m in e.mains}
    true_deposits = {d for e in truth.exchanges for d in e.deposits}
    got_mains = {m for c in clusters for m in c.main_addresses}
    got_deposits = {d for c in clusters for d in c.deposit_addresses}
    return true_mains, true_deposits, got_mains, got_deposits


def _precision_recall(got: set, true: set) -> tuple[float, float]:
    if not got:
        return 0.0, 0.0
    hit = len(got & true)
    return hit / len(got), hit / len(true)


def test_planted_exchanges_recovered(check):
    tm, td, gm, gd = _detect_roles(_detection_scenario())
    main_p, main_r = _precision_recall(gm, tm)
    dep_p, dep_r = _precision_recall(gd, td)
    clean_ok = main_p == main_r == 1.0 and dep_p >= 0.99 and dep_r >= 0.99

    tm, _td, gm, _gd = _detect_roles(_detection_scenario(pattern_noise_rate=0.05))
    _noisy_p, noisy_main_r = _precision_recall(gm, tm)
    noisy_ok = noisy_main_r >= 0.9

    check(
        "detection-ground-truth",
        clean_ok and noisy_ok,
        f"clean mains P={main_p:.2f} R={main_r:.2f} deposits P={dep_p:.4f} "
        f"R={dep_r:.4f}; noisy main recall={noisy_main_r:.2f}",
    )


# frozen display-rounding cases: numerator, denominator, expected rendering
RATIO_CASES = [
    (877_956, 2_261_478, "38.82%"),
    (654_446, 2_261_478, "28.94%"),
    (195_678, 877_956, "22.29%"),
    (533_308, 1_383_522, "38.55%"),
]


def test_percentage_formatting_of_flux_ratios(check):
    worst = 0.0
    rendered = []
    for num, den, expected in RATIO_CASES:
        got = fmt_pct(num, den)
        rendered.append(got)
        worst = max(worst, abs(float(got.rstrip("%")) - float(expected.rstrip("%"))))
    check(
        "ratio-formatting",
        worst <= 0.01,
        f"{rendered} vs expected, worst deviation {worst:.4f}pp",
    )


MILLION_SCENARIO = {
    "seed": 20260819,
    "user_count": 270_000,
    "trader_fraction": 0.445,
    "mesh_edges_per_user": 2,
    "giant_fraction": 0.5,
    "exchanges": [
        {"label": "exch-a", "main_wallets": 1, "deposit_addresses": 26_000,
         "deposit_rounds": 3, "withdrawals": 200, "inter_exchange_tx": 400},
        {"label": "exch-b", "main_wallets": 2, "deposit_addresses": 26_000,
         "deposit_rounds": 3, "withdrawals": 200, "inter_exchange_tx": 400},
        {"label": "exch-c", "main_wallets": 1, "deposit_addresses": 26_000,
         "deposit_rounds": 3, "withdrawals": 200, "inter_exchange_tx": 400},
        {"label": "exch-d", "main_wallets": 3, "deposit_addresses": 26_000,
         "deposit_rounds": 3, "withdrawals": 200, "inter_exchange_tx": 400},
        {"label": "exch-e", "main_wallets": 1, "deposit_addresses": 26_000,
         "deposit_rounds": 3, "withdrawals": 200, "inter_exchange_tx": 400},
    ],
    "nontransfer_noise_rate": 0.02,
    "failed_noise_rate": 0.01,
    "zero_amount_noise_rate": 0.005,
    "records_per_block": 6,
}

PIPELINE_BUDGET_S = 300.0
CONTRACTION_BUDGET_S = 60.0


def test_million_transfer_pipeline(check, tmp_path):
    from fluxgraph.exchanges import load_clusters

    config = config_from_dict(MILLION_SCENARIO)
    ledger = tmp_path / "ledger.jsonl"
    truth = generate_to_file(config, str(ledger))
    save_ground_truth(truth, str(tmp_path))
    assert truth.transfer_count >= 1_000_000

    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = cli.main([
        "run", "--input", str(ledger), "--output", str(out),
        "--labels", str(tmp_path / "labels.csv"), "--verify", "--quiet",
    ])
    pipeline_s = time.perf_counter() - t0
    assert code == cli.EXIT_OK

    report = json.loads((out / "report" / "report.json").read_text())
    partition_exact = all(
        report["flux_partition"][cat]["tx_count"] == totals["tx_count"]
        and report["flux_partition"][cat]["flux_planck"] == totals["flux"]
        for cat, totals in truth.category_totals.items()
    )
    clusters_exact = (
        report["user_clusters"]["count"] == len(truth.user_component_sizes)
        and report["user_clusters"]["largest"] == truth.user_component_sizes[0]
    )
    recovered = load_clusters(str(out / "clusters.csv"))
    planted = {e.label: (set(e.mains), set(e.deposits)) for e in truth.exchanges}
    roles_exact = {c.label for c in recovered} == set(planted) and all(
        (set(c.main_addresses), set(c.deposit_addresses)) == planted[c.label]
        for c in recovered
    )
    manifest = json.loads((out / "manifest.json").read_text())
    conserved = all(manifest["conservation"].values())

    # contraction alone at the million-edge scale (graph construction
    # is setup, only the contraction call is timed)
    rng = random.Random(77)
    big = AggregatedGraph()
    node_count, edge_count = 200_000, 1_000_000
    names = [f"a{i:06d}" for i in range(node_count)]
    for _ in range(edge_count):
        big.add_transfer(rng.choice(names), rng.choice(names), rng.randint(1, 10**9))
    coloring = Coloring.from_mapping(big, {name: i % 8 for i, name in enumerate(names)})
    t0 = time.perf_counter()
    contracted, assignment = contract(big, coloring)
    contraction_s = time.perf_counter() - t0
    contraction_ok = (
        contraction_s < CONTRACTION_BUDGET_S
        and verify_contraction(contracted)
        and all(check_conservation(graph_stats(big), contracted).values())
    )

    ok = (
        pipeline_s < PIPELINE_BUDGET_S
        and partition_exact
        and clusters_exact
        and roles_exact
        and conserved
        and contraction_ok
    )
    check(
        "end-to-end-scale",
        ok,
        f"{truth.transfer_count} transfers in {pipeline_s:.1f}s "
        f"(budget {PIPELINE_BUDGET_S:.0f}s), exact totals={partition_exact}, "
        f"roles={roles_exact}; {edge_count}-edge contraction "
        f"{contraction_s:.1f}s (budget {CONTRACTION_BUDGET_S:.0f}s)",
    )


def _hub_graph(deposit_count: int, plain_count: int) -> AggregatedGraph:
    graph = AggregatedGraph()
    for i in range(deposit_count):
        graph.add_transfer(f"owner{i:03d}", f"dep{i:03d}", 1000)
        graph.add_transfer(f"dep{i:03d}", "HUB", 1000)
    for i in range(plain_count):
        graph.add_transfer("HUB", f"user{i:03d}", 500)
    return graph


def test_boundary_semantics(check):
    params = DetectionParams()
    at_threshold = classify_exchange(_hub_graph(90, 10), "HUB", params)
    above_threshold = classify_exchange(_hub_graph(91, 9), "HUB", params)
    threshold_ok = at_threshold is None and above_threshold is not None

    graph = AggregatedGraph()
    graph.add_transfer("p", "a", 5)
    graph.add_transfer("q", "b", 5)
    coloring = Coloring.from_mapping(graph, {"p": 1, "q": 1, "a": 0, "b": 0})
    _contracted, assignment = contract(graph, coloring)
    split_ok = assignment["p"] != assignment["q"]

    check(
        "boundary-semantics",
        threshold_ok and split_ok,
        f"90% hub rejected={at_threshold is None}, "
        f"unconnected same-color stay apart={split_ok}",
    )


def _record(**overrides) -> str:
    base = {
        "block_number": 50,
        "timestamp": 1_600_000_000_000,
        "module_id": "Balances",
        "call_id": "transfer",
        "signed": True,
        "success": True,
        "sender": "alice",
        "recipient": "bob",
        "amount_planck": 1_000,
    }
    base.update(overrides)
    return json.dumps({k: v for k, v in base.items() if v is not None})


def test_ingest_keeps_only_successful_signed_transfers(check):
    kept_lines = [
        _record(call_id="transfer", amount_planck=10),
        _record(call_id="transfer_keep_alive", amount_planck=20),
        _record(call_id="transfer_all", amount_planck=30),
        _record(call_id="Transfer_Keep_Alive", amount_planck=40),
    ]
    dropped_lines = [
        _record(module_id="balances", amount_planck=70),
        _record(module_id="Staking", call_id="bond",
                sender=None, recipient=None, amount_planck=None),
        _record(module_id="Democracy", call_id="vote",
                sender=None, recipient=None, amount_planck=None),
        _record(module_id="Utility", call_id="batch_all",
                sender=None, recipient=None, amount_planck=None),
        _record(success=False, amount_planck=50),
        _record(signed=False, amount_planck=60),
        _record(amount_planck=0),
    ]
    summary = IngestSummary()
    kept = list(ingest(kept_lines + dropped_lines, summary=summary))
    amounts = sorted(t.amount_planck for t in kept)
    ok = (
        summary.parsed == len(kept_lines) + len(dropped_lines)
        and summary.kept == len(kept_lines)
        and summary.dropped == len(dropped_lines)
        and summary.zero_amount == 1
        and amounts == [10, 20, 30, 40]
    )
    check(
        "ingest-filter",
        ok,
        f"kept {summary.kept}/{summary.parsed}, amounts {amounts}",
    )
