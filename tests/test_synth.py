"""Scenario generator: determinism, validation, ground-truth accounting."""

import json

import pytest

from fluxgraph.errors import ConfigError
from fluxgraph.contraction import contract
from fluxgraph.exchanges import Coloring, detect_exchanges, load_labels
from fluxgraph.graph import AggregatedGraph
from fluxgraph.records import IngestSummary, ingest
from fluxgraph.synth import (
    ExchangeSpec,
    _degree_rank,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    generate,
    generate_to_file,
    save_ground_truth,
)


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        seed=11,
        user_count=400,
        trader_fraction=0.4,
        mesh_edges_per_user=2,
        giant_fraction=0.5,
        exchanges=[
            ExchangeSpec(label="acme", main_wallets=1, deposit_addresses=100,
                         deposit_rounds=2, withdrawals=3, inter_exchange_tx=5),
            ExchangeSpec(label="zeta", main_wallets=2, deposit_addresses=140,
                         deposit_rounds=2, withdrawals=3, inter_exchange_tx=5),
        ],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = small_scenario()
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"user_count": 5, "bogus": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"exchanges": [{"bogus": 1}]})

    def test_validation_failures(self):
        cases = [
            dict(user_count=-1),
            dict(trader_fraction=1.5),
            dict(giant_fraction=-0.1),
            dict(min_amount_planck=0),
            dict(min_amount_planck=100, max_amount_planck=10),
            dict(records_per_block=0),
            dict(exchanges=[ExchangeSpec(main_wallets=0)]),
            dict(exchanges=[ExchangeSpec(deposit_rounds=0)]),
            dict(user_count=0,
                 exchanges=[ExchangeSpec(deposit_addresses=5)]),
            dict(exchanges=[ExchangeSpec(label="x"), ExchangeSpec(label="x")]),
            dict(exchanges=[ExchangeSpec(inter_exchange_tx=2)]),
            # a library caller gets the type rule of scenario files too
            dict(seed=1.5),
            dict(min_amount_planck=float(10**8)),
            dict(exchanges=[ExchangeSpec(label=5)]),
        ]
        for overrides in cases:
            with pytest.raises(ConfigError):
                cfg = small_scenario(**overrides)
                cfg.validate()
                generate(cfg)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        lines_a, truth_a = generate(small_scenario())
        lines_b, truth_b = generate(small_scenario())
        assert lines_a == lines_b
        assert truth_a.as_dict() == truth_b.as_dict()

    def test_different_seed_differs(self):
        lines_a, _ = generate(small_scenario())
        lines_b, _ = generate(small_scenario(seed=12))
        assert lines_a != lines_b

    def test_file_output_matches_memory(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        truth_file = generate_to_file(small_scenario(), str(path))
        lines, truth_mem = generate(small_scenario())
        assert path.read_text() == "".join(line + "\n" for line in lines)
        assert truth_file.as_dict() == truth_mem.as_dict()


class TestStreamShape:
    def test_blocks_never_decrease(self):
        lines, _ = generate(small_scenario(records_per_block=3))
        last = -1
        for line in lines:
            block = json.loads(line)["block_number"]
            assert block >= last
            last = block
        assert last > 0

    def test_noise_records_are_dropped_by_ingest(self):
        cfg = small_scenario(
            nontransfer_noise_rate=0.2,
            failed_noise_rate=0.1,
            zero_amount_noise_rate=0.1,
        )
        lines, truth = generate(cfg)
        assert truth.noise_records > 0
        assert truth.failed_records > 0
        assert truth.zero_amount_records > 0
        summary = IngestSummary()
        kept = list(ingest(lines, summary=summary))
        assert summary.parsed == truth.record_count == len(lines)
        assert summary.kept == truth.transfer_count == len(kept)
        assert summary.dropped == (
            truth.noise_records + truth.failed_records + truth.zero_amount_records
        )
        assert summary.zero_amount == truth.zero_amount_records

    def test_amounts_within_bounds(self):
        cfg = small_scenario(min_amount_planck=10**6, max_amount_planck=10**9)
        lines, _ = generate(cfg)
        for line in lines:
            amount = json.loads(line).get("amount_planck")
            if amount:
                assert 10**6 <= amount <= 10**9


def graph_of(lines) -> AggregatedGraph:
    g = AggregatedGraph()
    for t in ingest(lines):
        g.add_transfer(t.sender, t.recipient, t.amount_planck)
    return g


class TestGroundTruthAccounting:
    def test_graph_totals_match_truth(self):
        lines, truth = generate(small_scenario())
        g = graph_of(lines)
        assert g.order == truth.transacting_accounts
        assert g.aggregated_size == truth.aggregated_edge_count
        assert g.transaction_count == truth.transfer_count
        assert g.total_flux == truth.total_flux

    def test_category_totals_cover_everything(self):
        _, truth = generate(small_scenario())
        cats = truth.category_totals
        assert sum(c["tx_count"] for c in cats.values()) == truth.transfer_count
        assert sum(c["flux"] for c in cats.values()) == truth.total_flux

    def test_giant_component_size(self):
        cfg = small_scenario()
        _, truth = generate(cfg)
        organic = len(truth.organic_users)
        assert truth.user_component_sizes[0] == int(organic * cfg.giant_fraction)
        # heavy tail: the giant dwarfs the runner-up
        assert truth.user_component_sizes[0] >= 2 * truth.user_component_sizes[1]

    def test_traders_become_singletons(self):
        _, truth = generate(small_scenario())
        # every deposit owner that is a trader transacts yet joins no mesh
        singles = sum(1 for s in truth.user_component_sizes if s == 1)
        assert singles > 0

    def test_detection_recovers_planted_exchanges(self):
        lines, truth = generate(small_scenario())
        clusters = detect_exchanges(graph_of(lines), labels=truth.labels)
        planted = {e.label: (set(e.mains), set(e.deposits)) for e in truth.exchanges}
        assert {c.label for c in clusters} == set(planted)
        for c in clusters:
            mains, deposits = planted[c.label]
            assert set(c.main_addresses) == mains
            assert set(c.deposit_addresses) == deposits

    def test_truth_round_trip(self, tmp_path):
        _, truth = generate(small_scenario())
        save_ground_truth(truth, str(tmp_path))
        back = json.loads((tmp_path / "ground_truth.json").read_text(encoding="utf-8"))
        assert back == truth.as_dict()
        labels = (tmp_path / "labels.csv").read_text().splitlines()
        assert labels[0] == "address,label"
        assert len(labels) == 1 + len(truth.labels)

    def test_label_with_comma_round_trips(self, tmp_path):
        _, truth = generate(small_scenario(exchanges=[
            ExchangeSpec(label="ze,ta", main_wallets=1, deposit_addresses=100,
                         deposit_rounds=2, withdrawals=3),
        ]))
        save_ground_truth(truth, str(tmp_path))
        assert load_labels(str(tmp_path / "labels.csv")) == truth.labels
        assert set(truth.labels.values()) == {"ze,ta"}


class TestUserComponentSizes:
    @pytest.mark.parametrize("organic", [0, 1, 2, 3, None])
    @pytest.mark.parametrize("pattern_noise", [0.0, 0.3])
    @pytest.mark.parametrize("mesh", [0, 1, 2])
    def test_sizes_match_the_planted_contraction(self, mesh, pattern_noise, organic):
        """user_component_sizes are the user clusters contract() finds when
        every exchange account has its exchange's color and the rest 0;
        organic=None keeps small_scenario's 240 organic users."""
        overrides = dict(mesh_edges_per_user=mesh, pattern_noise_rate=pattern_noise,
                         validate_detectability=False)
        if organic is not None:
            traders = 20
            overrides.update(
                user_count=traders + organic,
                trader_fraction=traders / (traders + organic),
                exchanges=[
                    ExchangeSpec(label="acme", main_wallets=2, deposit_addresses=12,
                                 withdrawals=2, inter_exchange_tx=2),
                    ExchangeSpec(label="zeta", deposit_addresses=9, inter_exchange_tx=1),
                ],
            )
        lines, truth = generate(small_scenario(**overrides))
        if organic is not None:
            assert len(truth.organic_users) == organic
        g = graph_of(lines)
        planted = {account: color
                   for color, e in enumerate(truth.exchanges, 1)
                   for account in e.mains + e.deposits}
        coloring = Coloring.from_mapping(g, {a: planted.get(a, 0) for a in g.names})
        contracted, _assignment = contract(g, coloring)
        users = sorted((n.member_count for n in contracted.nodes.values() if n.color == 0),
                       reverse=True)
        assert truth.user_component_sizes == users


class TestDetectabilityGuard:
    def test_undetectable_exchange_rejected(self):
        # 5 deposit neighbors is below the default minimum of 10
        cfg = small_scenario(exchanges=[
            ExchangeSpec(label="tiny", deposit_addresses=5, deposit_rounds=1),
        ])
        with pytest.raises(ConfigError):
            generate(cfg)

    def test_degree_rank_matches_the_sorted_ranking(self):
        degree = {"b": 3, "a": 3, "c": 5, "d": 1, "e": 3}
        ranked = sorted(degree, key=lambda account: (-degree[account], account))
        for place, account in enumerate(ranked, 1):
            assert _degree_rank(degree, account) == place
        assert _degree_rank(degree, "z") is None

    def test_guard_can_be_disabled(self):
        cfg = small_scenario(
            exchanges=[ExchangeSpec(label="tiny", deposit_addresses=5)],
            validate_detectability=False,
        )
        _, truth = generate(cfg)
        assert truth.exchanges[0].label == "tiny"

    def test_pattern_noise_skips_guard_and_degrades_gracefully(self):
        cfg = small_scenario(pattern_noise_rate=0.3)
        lines, truth = generate(cfg)
        # truth still describes planted roles
        assert sum(len(e.deposits) for e in truth.exchanges) == 240
        # detection may lose deposits but the stream stays consistent
        summary = IngestSummary()
        kept = list(ingest(lines, summary=summary))
        assert len(kept) == truth.transfer_count


class TestTemplateScenario:
    def test_cli_template_generates_and_detects(self):
        from fluxgraph.cli import _TEMPLATE_SCENARIO

        lines, truth = generate(_TEMPLATE_SCENARIO)
        clusters = detect_exchanges(graph_of(lines), labels=truth.labels)
        assert {c.label for c in clusters} == {"alpha", "beta"}
