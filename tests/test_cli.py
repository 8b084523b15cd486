"""Command line interface: exit codes, stage chaining, config precedence."""

import dataclasses
import errno
import gc
import json
import os
import random
import re
import subprocess
import sys
import threading
import time

import pytest

from fluxgraph import cli
from fluxgraph.errors import PartialColoringError
from fluxgraph.graph import EdgeAggregate
from fluxgraph.synth import (
    ExchangeSpec,
    ScenarioConfig,
    config_from_dict,
    generate_to_file,
    save_ground_truth,
)

SCENARIO = ScenarioConfig(
    seed=23,
    user_count=300,
    trader_fraction=0.4,
    exchanges=[
        ExchangeSpec(label="acme", main_wallets=1, deposit_addresses=80,
                     deposit_rounds=2, withdrawals=3, inter_exchange_tx=4),
        ExchangeSpec(label="zeta", main_wallets=1, deposit_addresses=60,
                     deposit_rounds=2, withdrawals=3, inter_exchange_tx=4),
    ],
    nontransfer_noise_rate=0.03,
    failed_noise_rate=0.02,
    zero_amount_noise_rate=0.01,
)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    root = tmp_path_factory.mktemp("ledger")
    path = root / "ledger.jsonl"
    truth = generate_to_file(SCENARIO, str(path))
    save_ground_truth(truth, str(root))
    return root, str(path), truth


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--graph", "x", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_input_file(self, tmp_path):
        code = cli.main(["run", "--input", str(tmp_path / "absent.jsonl"),
                         "--output", str(tmp_path / "out"), "--quiet"])
        assert code == cli.EXIT_IO

    def test_unreadable_pipeline_config(self, tmp_path, ledger):
        _, path, _ = ledger
        bad = tmp_path / "pipeline.json"
        bad.write_text("{not json")
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--config", str(bad), "--quiet"])
        assert code == cli.EXIT_CONFIG

    def test_unknown_config_key_rejected(self, tmp_path, ledger):
        _, path, _ = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"ingest": {"bogus_option": 1}}))
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key,value", [
        ("detect.top_k", "60"),
        ("detect.min_neighbors", True),
        ("detect.deposit_forward_fraction", "0.5"),
        ("detect.labels", 0),
        ("ingest.start_block", 1.5),
        ("ingest.on_error", None),
        ("run.verify", "yes"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, ledger, capsys, key, value):
        _, path, _ = ledger
        stage, name = key.split(".")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({stage: {name: value}}))
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert f"config key {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_record_fail_vs_skip(self, tmp_path, ledger):
        _, path, _ = ledger
        mixed = tmp_path / "mixed.jsonl"
        with open(path, "r", encoding="utf-8") as src:
            good = src.readline()
        mixed.write_text(good + "this is not json\n" + good)
        out_fail = tmp_path / "fail.jsonl"
        code = cli.main(["ingest", "--input", str(mixed), "--output",
                         str(out_fail), "--on-error", "fail", "--quiet"])
        assert code == cli.EXIT_MALFORMED
        out_skip = tmp_path / "skip.jsonl"
        code = cli.main(["ingest", "--input", str(mixed), "--output",
                         str(out_skip), "--on-error", "skip", "--quiet"])
        assert code == cli.EXIT_OK

    def test_missing_labels_file_is_io_error(self, tmp_path, ledger):
        _, path, _ = ledger
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--labels", str(tmp_path / "absent.csv"), "--quiet"])
        assert code == cli.EXIT_IO

    def test_missing_labels_file_fails_before_ingest(self, tmp_path, ledger):
        _, path, _ = ledger
        out = tmp_path / "out"
        code = cli.main(["run", "--input", path, "--output", str(out),
                         "--labels", str(tmp_path / "absent.csv"), "--quiet"])
        assert code == cli.EXIT_IO
        assert not (out / "transfers.jsonl").exists()
        assert not (out / "graph").exists()

    @pytest.mark.parametrize("flags,config,message", [
        pytest.param(["--bucket-cuts", "5,3"], None,
                     "bucket cuts must be strictly increasing positives", id="flags0-None"),
        pytest.param(["--bucket-cuts", "0,2"], None,
                     "bucket cuts must be strictly increasing positives", id="flags1-None"),
        pytest.param([], {"analyze": {"bucket_cuts": [1, 1, 2]}},
                     "bucket cuts must be strictly increasing positives", id="flags2-config2"),
        pytest.param(["--bucket-cuts", "1,x"], None,
                     "bucket cuts must be integers, got '1,x'", id="flags3-None"),
        pytest.param([], {"analyze": {"bucket_cuts": [1, "2"]}},
                     "bucket cuts in config must be a list of integers, got [1, '2']",
                     id="flags4-config4"),
    ])
    def test_bad_bucket_cuts_fail_before_any_write(self, tmp_path, ledger, capsys, flags,
                                                   config, message):
        _, path, _ = ledger
        out = tmp_path / "out"
        argv = ["run", "--input", path, "--output", str(out), "--quiet", *flags]
        if config is not None:
            cfg = tmp_path / "pipeline.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        pytest.param("[1, 2]", "must hold a JSON object", id="array"),
        pytest.param('{"detect": []}', "config block 'detect' must be an object",
                     id="array_block"),
    ])
    def test_config_of_wrong_shape(self, tmp_path, ledger, capsys, config, message):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        code = cli.main(["run", "--input", ledger[1], "--output", str(out),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, kind", [
        ("graph", "a directory"),
        ("contracted", "a directory"),
        ("report", "a directory"),
        ("clusters.csv", "a regular file"),
        ("coloring.csv", "a regular file"),
    ])
    def test_output_path_of_wrong_kind_fails_before_any_write(self, tmp_path, ledger, capsys,
                                                              name, kind):
        out = tmp_path / "out"
        out.mkdir()
        if kind == "a directory":
            (out / name).write_text("")
        else:
            (out / name).mkdir()
        code = run_pipeline(ledger[1], out, extra=["--verify"])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err == f"error: {out / name} exists but is not {kind}\n"
        assert os.listdir(out) == [name]
        assert files_under(out) == ([] if (out / name).is_dir() else [name])
        assert_no_child()

    @pytest.mark.parametrize("command, name, kind", [
        ("ingest", "transfers.jsonl", "a regular file"),
        ("build", "graph", "a directory"),
        ("detect", "clusters.csv", "a regular file"),
        ("detect", "coloring.csv", "a regular file"),
        ("contract", "contracted", "a directory"),
        ("analyze", "report", "a directory"),
        ("synth", "ledger.jsonl", "a regular file"),
        ("synth", "truth", "a directory"),
    ])
    def test_stage_output_of_wrong_kind_fails_before_any_write(self, tmp_path, ledger, capsys,
                                                               command, name, kind):
        """As run does, each command refuses an output path of the wrong
        kind before its first write: detect, given a --coloring that is a
        directory, must not write its clusters.csv first."""
        root, path, _ = ledger
        labels = str(root / "labels.csv")
        done = tmp_path / "done"
        assert run_pipeline(path, done, labels=labels) == cli.EXIT_OK
        scenario = tmp_path / "scenario.json"
        assert cli.main(["synth", "--template", str(scenario), "--quiet"]) == cli.EXIT_OK
        out = tmp_path / "out"
        out.mkdir()
        if kind == "a directory":
            (out / name).write_text("")
        else:
            (out / name).mkdir()
        argv = {
            "ingest": ["--input", path, "--output", out / "transfers.jsonl"],
            "build": ["--input", path, "--output", out / "graph"],
            "detect": ["--graph", done / "graph", "--labels", labels,
                       "--output", out / "clusters.csv", "--coloring", out / "coloring.csv"],
            "contract": ["--graph", done / "graph", "--coloring", done / "coloring.csv",
                         "--clusters", done / "clusters.csv", "--output", out / "contracted"],
            "analyze": ["--contracted", done / "contracted", "--clusters", done / "clusters.csv",
                        "--output", out / "report"],
            "synth": ["--scenario", scenario, "--output", out / "ledger.jsonl",
                      "--truth", out / "truth"],
        }[command]
        code = cli.main([command, *map(str, argv), "--quiet"])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err == f"error: {out / name} exists but is not {kind}\n"
        assert os.listdir(out) == [name]
        assert files_under(out) == ([] if (out / name).is_dir() else [name])
        assert_no_child()

    def test_failed_rerun_leaves_no_earlier_manifest(self, tmp_path, ledger):
        _, path, _ = ledger
        with open(path, "rb") as fh:
            lines = fh.readlines()
        other = tmp_path / "other.jsonl"
        other.write_bytes(b"".join(lines[: len(lines) // 2]))
        out = tmp_path / "out"
        assert run_pipeline(path, out) == cli.EXIT_OK
        first_edges = (out / "graph" / "edges.csv").read_bytes()
        for name in os.listdir(out / "contracted"):
            os.remove(out / "contracted" / name)
        os.rmdir(out / "contracted")
        (out / "contracted").write_text("not a directory\n")
        assert run_pipeline(str(other), out) == cli.EXIT_IO
        assert (out / "graph" / "edges.csv").read_bytes() == first_edges
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["run", "contract"])
    def test_disagreeing_oracle_fails_verification(self, tmp_path, ledger, monkeypatch,
                                                   capsys, command):
        root, path, _ = ledger
        staged = tmp_path / "staged"
        labels = os.path.join(str(root), "labels.csv")
        if command == "contract":
            assert run_pipeline(path, staged, labels=labels) == cli.EXIT_OK
        oracle = cli.oracle_contract

        def off_by_one(contracted, assignment):
            next(iter(contracted.edges.values())).multiplicity += 1

        def swapped(contracted, assignment):
            # two accounts trade clusters; nodes and edges stay as they are
            first = next(iter(assignment))
            other = next(a for a in assignment if assignment[a] != assignment[first])
            assignment[first], assignment[other] = assignment[other], assignment[first]

        for disagree in (off_by_one, swapped):
            def disagreeing(graph, coloring, disagree=disagree):
                contracted, assignment = oracle(graph, coloring)
                disagree(contracted, assignment)
                return contracted, assignment

            monkeypatch.setattr(cli, "oracle_contract", disagreeing)
            out = tmp_path / disagree.__name__
            if command == "run":
                code = run_pipeline(path, out, labels=labels, extra=["--verify"])
            else:
                code = cli.main(["contract", "--graph", str(staged / "graph"),
                                 "--coloring", str(staged / "coloring.csv"),
                                 "--output", str(out), "--verify", "--quiet"])
            assert code == cli.EXIT_VERIFY, disagree.__name__
            assert "different quotient" in capsys.readouterr().err
            # a failed check leaves nothing that looks like a finished quotient
            if command == "run":
                assert not (out / "contracted").exists()
                assert not (out / "manifest.json").exists()
            else:
                assert files_under(out) == []

    def test_improper_quotient_fails_verification(self, tmp_path, ledger, monkeypatch,
                                                  capsys):
        staged = tmp_path / "staged"
        assert run_pipeline(ledger[1], staged) == cli.EXIT_OK
        fast = cli.contract

        def with_self_edge(graph, coloring):
            contracted, assignment = fast(graph, coloring)
            cid = next(iter(contracted.nodes))
            contracted.edges[(cid, cid)] = EdgeAggregate(1, 1)
            return contracted, assignment

        monkeypatch.setattr(cli, "contract", with_self_edge)
        out = tmp_path / "out"
        code = cli.main(["contract", "--graph", str(staged / "graph"),
                         "--coloring", str(staged / "coloring.csv"),
                         "--output", str(out), "--verify", "--quiet"])
        assert code == cli.EXIT_VERIFY
        assert "not properly colored" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_on_broken_conservation(self, tmp_path, ledger, capsys):
        out = tmp_path / "out"
        assert run_pipeline(ledger[1], out) == cli.EXIT_OK
        nodes = out / "contracted" / "nodes.csv"
        header, first, *rest = nodes.read_text().splitlines(keepends=True)
        assert header.rstrip().endswith(",intra_tx_count")
        cells = first.rstrip().rsplit(",", 1)
        nodes.write_text(header + f"{cells[0]},{int(cells[1]) + 1}\n" + "".join(rest))
        report = tmp_path / "report"
        code = cli.main(["analyze", "--contracted", str(out / "contracted"),
                         "--output", str(report), "--quiet"])
        assert code == cli.EXIT_CONSERVATION
        assert "conservation violated for: transactions " in capsys.readouterr().err
        assert not report.exists()

    def test_non_utf8_pipeline_config(self, tmp_path, ledger, capsys):
        _, path, _ = ledger
        bad = tmp_path / "pipeline.json"
        bad.write_bytes(b'{"ingest": {"on_error": "\xff"}}')
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--config", str(bad), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert "pipeline.json" in capsys.readouterr().err

    def test_non_utf8_scenario_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_bytes(b'{"user_count": 5, "exchanges": [{"label": "\xff"}]}')
        code = cli.main(["synth", "--scenario", str(bad),
                         "--output", str(tmp_path / "x.jsonl"), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert "scenario.json" in capsys.readouterr().err

    def test_missing_scenario_is_config_error(self, tmp_path):
        code = cli.main(["synth", "--scenario", str(tmp_path / "absent.json"),
                         "--output", str(tmp_path / "x.jsonl"), "--quiet"])
        assert code == cli.EXIT_CONFIG

    def test_synth_without_output_is_config_error(self, tmp_path):
        code = cli.main(["synth", "--quiet"])
        assert code == cli.EXIT_CONFIG

    def test_analyze_rejects_contracted_dir_without_stats(self, tmp_path, ledger):
        root, path, _ = ledger
        out = tmp_path / "out"
        assert cli.main(["run", "--input", path, "--output", str(out),
                         "--quiet"]) == cli.EXIT_OK
        meta_path = out / "contracted" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["before"]
        meta_path.write_text(json.dumps(meta))
        code = cli.main(["analyze", "--contracted", str(out / "contracted"),
                         "--output", str(tmp_path / "report"), "--quiet"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("meta, code", [
        (b"{bad", cli.EXIT_MALFORMED),
        (b'{"before": "\xff"}', cli.EXIT_MALFORMED),
        (b"[1]", cli.EXIT_MALFORMED),
        (b'{"before": {"order": 1}}', cli.EXIT_CONFIG),
    ])
    def test_analyze_on_bad_meta(self, tmp_path, ledger, capsys, meta, code):
        _, path, _ = ledger
        out = tmp_path / "out"
        assert run_pipeline(path, out, extra=["--no-detect"]) == cli.EXIT_OK
        (out / "contracted" / "meta.json").write_bytes(meta)
        assert cli.main(["analyze", "--contracted", str(out / "contracted"),
                         "--output", str(tmp_path / "report"), "--quiet"]) == code
        err = capsys.readouterr().err
        assert "meta.json" in err and "Traceback" not in err


def write_graph(directory, edge_rows):
    """A three-account graph directory whose edges.csv holds edge_rows
    after one good row, so the first of them sits on line 3."""
    directory.mkdir()
    (directory / "nodes.csv").write_text("account\na\nb\nc\n")
    (directory / "edges.csv").write_text(
        "sender,recipient,flux_planck,multiplicity\na,b,5,1\n"
        + "".join(row + "\n" for row in edge_rows))
    return str(directory)


def files_under(root) -> list[str]:
    """Every file below root, as sorted relative paths."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _dirs, files in os.walk(root) for f in files)


class TestMalformedFiles:
    """Bad rows in the CSV files the stages hand over end in exit 4 with
    file and line named; they never escape as a traceback."""

    @pytest.mark.parametrize("row", [
        "b,c,12x,1", "b,c,-5,1", "b,c,5", "b,c,0,1",
        pytest.param("b,c," + "1" * 1001 + ",1", id="flux_past_digit_bound"),
        pytest.param("b,c,1," + "1" * 4301, id="multiplicity_past_int_limit"),
    ])
    def test_stats_on_bad_edge_row(self, tmp_path, capsys, row):
        graph = write_graph(tmp_path / "graph", [row])
        code = cli.main(["stats", "--graph", graph, "--quiet"])
        assert code == cli.EXIT_MALFORMED
        assert "edges.csv:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes, edge_rows, where", [
        pytest.param("a\nb\nc\n", ["b,c,1,1", "a,b,5,1"], "edges.csv:4:",
                     id="repeated_edge"),
        pytest.param("a\nb\nb\nc\n", [], "nodes.csv:4:", id="repeated_account"),
        pytest.param("a\nb\nc\n", ["c,ghost,1,1"], "edges.csv:3:",
                     id="edge_to_unknown_account"),
        pytest.param("a\nb\nb\n", ["b,c,1,1"], "nodes.csv:4:",
                     id="repeat_hides_missing_account"),
        pytest.param("a\nb\nc\n", ["a,b,1,1", "b,c,1,1", "c,a,0,1"], "edges.csv:3:",
                     id="repeated_edge_before_zero_flux"),
        pytest.param("a\nb\nc\n", ["c,ghost,1,1", "b,c,0,1"], "edges.csv:3:",
                     id="unknown_account_before_zero_flux"),
    ])
    def test_stats_on_inconsistent_graph(self, tmp_path, capsys, nodes, edge_rows, where):
        graph = write_graph(tmp_path / "graph", edge_rows)
        (tmp_path / "graph" / "nodes.csv").write_text("account\n" + nodes)
        code = cli.main(["stats", "--graph", graph, "--quiet"])
        assert code == cli.EXIT_MALFORMED
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err

    def test_contract_on_non_integer_color(self, tmp_path, capsys):
        graph = write_graph(tmp_path / "graph", [])
        coloring = tmp_path / "coloring.csv"
        coloring.write_text("address,color\na,0\nb,x\nc,0\n")
        code = cli.main(["contract", "--graph", graph, "--coloring", str(coloring),
                         "--output", str(tmp_path / "out"), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        assert "coloring.csv:3:" in capsys.readouterr().err

    def test_contract_on_coloring_with_unknown_account(self, tmp_path, capsys):
        graph = write_graph(tmp_path / "graph", [])
        coloring = tmp_path / "coloring.csv"
        coloring.write_text("address,color\na,0\nb,0\nc,0\nghost,1\n")
        code = cli.main(["contract", "--graph", graph, "--coloring", str(coloring),
                         "--output", str(tmp_path / "out"), "--quiet"])
        assert code == cli.EXIT_DATA
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, code, where", [
        pytest.param("a,0\nb,2\nc,0\nb,1\n", cli.EXIT_MALFORMED, "coloring.csv:5:",
                     id="repeated_address"),
        pytest.param("a,0\nb," + "1" * 30 + "\nc,0\n", cli.EXIT_MALFORMED, "coloring.csv:3:",
                     id="color_above_bound"),
        pytest.param("a,0\nghost,1\nb,0\nc,0\n", cli.EXIT_DATA, "coloring.csv:3:",
                     id="address_outside_graph"),
        pytest.param("a,0\nc,0\n", cli.EXIT_DATA, "coloring.csv:", id="uncolored_node"),
    ])
    def test_contract_on_bad_coloring(self, tmp_path, capsys, rows, code, where):
        graph = write_graph(tmp_path / "graph", [])
        coloring = tmp_path / "coloring.csv"
        coloring.write_text("address,color\n" + rows)
        assert cli.main(["contract", "--graph", graph, "--coloring", str(coloring),
                         "--output", str(tmp_path / "out"), "--quiet"]) == code
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_contract_rejects_a_color_no_cluster_has(self, tmp_path, ledger, capsys):
        root, path, _ = ledger
        run = tmp_path / "run"
        labels = os.path.join(str(root), "labels.csv")
        assert run_pipeline(path, run, labels=labels) == cli.EXIT_OK
        coloring = run / "coloring.csv"
        header, first, *rest = coloring.read_text().splitlines()
        account, color = first.split(",")
        assert color == "0"
        coloring.write_text("\n".join([header, f"{account},7", *rest]) + "\n")
        argv = ["contract", "--graph", str(run / "graph"), "--coloring", str(coloring),
                "--quiet"]
        out = tmp_path / "out"
        code = cli.main(argv + ["--clusters", str(run / "clusters.csv"), "--output", str(out)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(coloring) in err and "color 7" in err and repr(account) in err
        assert "Traceback" not in err and not out.exists()
        # without --clusters there is nothing to check the colors against
        assert cli.main(argv + ["--output", str(tmp_path / "unlabeled")]) == cli.EXIT_OK

    @pytest.mark.parametrize("with_coloring", [
        pytest.param(True, id="coloring"), pytest.param(False, id="all_users"),
    ])
    def test_contract_rejects_a_cluster_that_colors_no_account(self, tmp_path, ledger, capsys,
                                                               with_coloring):
        root, path, _ = ledger
        run = tmp_path / "run"
        labels = os.path.join(str(root), "labels.csv")
        assert run_pipeline(path, run, labels=labels) == cli.EXIT_OK
        coloring, clusters = run / "coloring.csv", run / "clusters.csv"
        argv = ["contract", "--graph", str(run / "graph"), "--clusters", str(clusters)]
        if with_coloring:
            # a cluster whose id no account has, listing a user account
            rows = coloring.read_text().splitlines()[1:]
            user = next(row.split(",")[0] for row in rows if row.endswith(",0"))
            clusters.write_text(clusters.read_text() + f"9,gamma,{user},main\n")
            argv += ["--coloring", str(coloring)]
            where, cid = str(coloring), 9
        else:
            # every account is a user, so no cluster id is a color
            where, cid = str(run / "graph"), 1
        out = tmp_path / "out"
        assert cli.main(argv + ["--output", str(out), "--quiet"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{clusters}: cluster {cid} colors no account in {where}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("damage, where", [
        pytest.param(lambda nodes, edges: edges.write_text(
            edges.read_text() + "999999,1,5,1\n"), "edges.csv", id="edge_to_unknown_cluster"),
        pytest.param(lambda nodes, edges: nodes.write_text(
            nodes.read_text() + nodes.read_text().splitlines()[1] + "\n"), "nodes.csv",
            id="repeated_cluster"),
        pytest.param(lambda nodes, edges: edges.write_text(
            edges.read_text() + edges.read_text().splitlines()[1] + "\n"), "edges.csv",
            id="repeated_edge"),
    ])
    def test_analyze_on_damaged_contracted_dir(self, tmp_path, ledger, capsys, damage, where):
        _, path, _ = ledger
        out = tmp_path / "out"
        assert run_pipeline(path, out) == cli.EXIT_OK
        contracted = out / "contracted"
        lines = {name: len((contracted / name).read_text().splitlines())
                 for name in ("nodes.csv", "edges.csv")}
        damage(contracted / "nodes.csv", contracted / "edges.csv")
        code = cli.main(["analyze", "--contracted", str(contracted),
                         "--output", str(tmp_path / "report"), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        err = capsys.readouterr().err
        # the appended row is the file's last line
        assert f"{where}:{lines[where] + 1}:" in err and "Traceback" not in err

    def test_detect_on_empty_label(self, tmp_path, capsys):
        graph = write_graph(tmp_path / "graph", [])
        labels = tmp_path / "labels.csv"
        labels.write_text("address,label\na,acme\nb,\n")
        code = cli.main(["detect", "--graph", graph, "--labels", str(labels),
                         "--output", str(tmp_path / "clusters.csv"), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        assert "labels.csv:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "run"])
    def test_repeated_address_in_labels(self, tmp_path, ledger, capsys, command):
        root, path, _ = ledger
        rows = (root / "labels.csv").read_text().splitlines()
        address, _label = rows[1].split(",")
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(rows + [f"{address},other"]) + "\n")
        out = tmp_path / "out"
        if command == "detect":
            argv = ["detect", "--graph", write_graph(tmp_path / "graph", []),
                    "--output", str(out)]
        else:
            argv = ["run", "--input", path, "--output", str(out)]
        code = cli.main(argv + ["--labels", str(labels), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        err = capsys.readouterr().err
        assert f"labels.csv:{len(rows) + 1}:" in err and "twice" in err
        assert not out.exists()

    def test_detect_reads_labels_before_the_graph(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("address,label\na,acme\na,zeta\n")
        code = cli.main(["detect", "--graph", str(tmp_path / "absent"),
                         "--labels", str(labels),
                         "--output", str(tmp_path / "clusters.csv"), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        assert f"{labels}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, reason", [
        pytest.param("1,acme,a,main\n1,gamma,b,deposit\n", "labeled 'acme'",
                     id="label_disagrees"),
        pytest.param("1,acme,a,main\n1,acme,a,deposit\n", "listed twice",
                     id="address_main_and_deposit"),
        pytest.param("1,acme,a,main\n2,zeta,a,main\n", "listed twice",
                     id="address_in_two_clusters"),
        pytest.param("1,acme,a,main\n1,acme,b,owner\n", "role must be 'main' or 'deposit'",
                     id="unknown_role"),
    ])
    @pytest.mark.parametrize("command", ["contract", "analyze"])
    def test_inconsistent_clusters_file(self, tmp_path, ledger, capsys, command, rows,
                                        reason):
        clusters = tmp_path / "clusters.csv"
        clusters.write_text("cluster_id,label,address,role\n" + rows)
        out = tmp_path / "out"
        if command == "contract":
            argv = ["contract", "--graph", write_graph(tmp_path / "graph", [])]
        else:
            assert run_pipeline(ledger[1], tmp_path / "run") == cli.EXIT_OK
            argv = ["analyze", "--contracted", str(tmp_path / "run" / "contracted")]
        code = cli.main(argv + ["--clusters", str(clusters), "--output", str(out),
                                "--quiet"])
        assert code == cli.EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "clusters.csv:3:" in err and reason in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cluster, reason", [
        pytest.param("1", "labeled 'acme', but", id="label_differs"),
        pytest.param("999999", "not an exchange cluster", id="no_such_cluster"),
        pytest.param("user", "not an exchange cluster", id="user_cluster"),
    ])
    def test_analyze_rejects_clusters_of_another_quotient(self, tmp_path, ledger, capsys,
                                                          cluster, reason):
        assert run_pipeline(ledger[1], tmp_path / "run") == cli.EXIT_OK
        contracted = tmp_path / "run" / "contracted"
        if cluster == "user":
            rows = (contracted / "nodes.csv").read_text().splitlines()[1:]
            cluster = next(row.split(",")[0] for row in rows if row.split(",")[1] == "0")
        clusters = tmp_path / "clusters.csv"
        clusters.write_text(f"cluster_id,label,address,role\n{cluster},acme,a,main\n")
        out = tmp_path / "out"
        code = cli.main(["analyze", "--contracted", str(contracted), "--clusters",
                         str(clusters), "--output", str(out), "--quiet"])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert str(clusters) in err and str(contracted / "nodes.csv") in err
        assert not out.exists()

    def test_analyze_accepts_clusters_over_an_unlabeled_quotient(self, tmp_path, ledger):
        run = tmp_path / "run"
        assert run_pipeline(ledger[1], run) == cli.EXIT_OK
        # contract without --clusters leaves every label in nodes.csv empty
        unlabeled = tmp_path / "unlabeled"
        assert cli.main(["contract", "--graph", str(run / "graph"), "--coloring",
                         str(run / "coloring.csv"), "--output", str(unlabeled),
                         "--quiet"]) == cli.EXIT_OK
        clusters = tmp_path / "clusters.csv"
        clusters.write_text("cluster_id,label,address,role\n1,acme,a,main\n")
        assert cli.main(["analyze", "--contracted", str(unlabeled), "--clusters",
                         str(clusters), "--output", str(tmp_path / "out"),
                         "--quiet"]) == cli.EXIT_OK


    @pytest.mark.parametrize("argv", [
        ["ingest", "--output", "out.jsonl", "--on-error", "fail"],
        ["ingest", "--output", "out.jsonl", "--on-error", "skip"],
        ["run", "--output", "out", "--on-error", "fail"],
        ["run", "--output", "out", "--on-error", "skip"],
        ["build", "--output", "graph"],
    ])
    def test_non_utf8_record_file(self, tmp_path, ledger, capsys, monkeypatch, argv):
        _, path, _ = ledger
        with open(path, "rb") as src:
            good = src.readline()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(good + b"\xff\n" + good)
        monkeypatch.chdir(tmp_path)
        code = cli.main(argv + ["--input", str(bad), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        err = capsys.readouterr().err
        assert f"{bad}:1: not UTF-8 at or after this line" in err
        assert "Traceback" not in err
        # no partial out.jsonl or out/transfers.jsonl, and no temp file
        assert files_under(tmp_path) == ["bad.jsonl"]

    @pytest.mark.parametrize("field,value", [
        pytest.param("block_number", "1" * 4301, id="block_past_int_limit"),
        pytest.param("amount_dot", '"NaN"', id="dot_nan"),
        pytest.param("amount_dot", '"1e5000"', id="dot_unprintable"),
    ])
    def test_unconvertible_number_in_ledger(self, tmp_path, ledger, capsys, field, value):
        _, path, _ = ledger
        with open(path, "r", encoding="utf-8") as src:
            good = src.readline()
        record = json.loads(good)
        record.pop("amount_planck", None)
        record[field] = 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good + json.dumps(record).replace(f'"{field}": 0', f'"{field}": {value}')
                       + "\n" + good)
        code = cli.main(["ingest", "--input", str(bad), "--output",
                         str(tmp_path / "fail.jsonl"), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        assert f"error: {bad}:2: " in capsys.readouterr().err
        code = cli.main(["ingest", "--input", str(bad), "--output",
                         str(tmp_path / "skip.jsonl"), "--on-error", "skip", "--quiet"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["error_lines"] == 1

    @pytest.mark.parametrize("command", ["ingest", "build"])
    def test_record_error_names_file(self, tmp_path, ledger, capsys, command):
        _, path, _ = ledger
        with open(path, "r", encoding="utf-8") as src:
            good = json.loads(src.readline())
        del good["timestamp"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n")
        code = cli.main([command, "--input", str(bad),
                         "--output", str(tmp_path / "out"), "--quiet"])
        assert code == cli.EXIT_MALFORMED
        assert (f"error: {bad}:1: missing mandatory field 'timestamp'"
                in capsys.readouterr().err)
        assert files_under(tmp_path) == ["bad.jsonl"]


def checkout_env() -> dict:
    """The environment of a fresh python process that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


def run_module(argv):
    """Run python with argv in a fresh process that imports this checkout."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=checkout_env())


def run_pipeline(path, outdir, labels=None, extra=()):
    argv = ["run", "--input", path, "--output", str(outdir), "--quiet"]
    if labels:
        argv += ["--labels", str(labels)]
    argv += list(extra)
    return cli.main(argv)


class TestStageChaining:
    def test_stages_reproduce_run_artifacts(self, tmp_path, ledger):
        root, path, _ = ledger
        labels = os.path.join(str(root), "labels.csv")

        whole = tmp_path / "whole"
        assert run_pipeline(path, whole, labels=labels) == cli.EXIT_OK

        staged = tmp_path / "staged"
        staged.mkdir()
        transfers = staged / "transfers.jsonl"
        graph_dir = staged / "graph"
        clusters = staged / "clusters.csv"
        coloring = staged / "coloring.csv"
        contracted = staged / "contracted"
        report = staged / "report"

        steps = [
            ["ingest", "--input", path, "--output", str(transfers)],
            ["build", "--input", str(transfers), "--output", str(graph_dir)],
            ["detect", "--graph", str(graph_dir), "--output", str(clusters),
             "--coloring", str(coloring), "--labels", labels],
            ["contract", "--graph", str(graph_dir), "--coloring", str(coloring),
             "--clusters", str(clusters), "--output", str(contracted)],
            ["analyze", "--contracted", str(contracted), "--clusters",
             str(clusters), "--output", str(report)],
        ]
        for argv in steps:
            assert cli.main(argv + ["--quiet"]) == cli.EXIT_OK, argv[0]

        assert not (whole / "transfers.jsonl").exists()
        same = [
            ("graph/nodes.csv", graph_dir / "nodes.csv"),
            ("graph/edges.csv", graph_dir / "edges.csv"),
            ("clusters.csv", clusters),
            ("coloring.csv", coloring),
            ("contracted/nodes.csv", contracted / "nodes.csv"),
            ("contracted/edges.csv", contracted / "edges.csv"),
            ("contracted/assignment.csv", contracted / "assignment.csv"),
            ("contracted/contracted.graphml", contracted / "contracted.graphml"),
            ("contracted/contracted.dot", contracted / "contracted.dot"),
            ("report/report.json", report / "report.json"),
            ("report/report.txt", report / "report.txt"),
            ("report/partition.csv", report / "partition.csv"),
            ("report/cluster_sizes.csv", report / "cluster_sizes.csv"),
            ("report/exchange_edges.csv", report / "exchange_edges.csv"),
        ]
        for rel, staged_path in same:
            assert (whole / rel).read_bytes() == staged_path.read_bytes(), rel

    def test_run_counts_and_graph_match_ingest_then_build(self, tmp_path, ledger, capsys):
        _, path, _ = ledger
        with open(path, "r", encoding="utf-8") as src:
            lines = src.readlines()
        blocks = sorted({json.loads(line)["block_number"] for line in lines})
        start = blocks[len(blocks) // 2]
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(lines[:5]) + "this is not json\n" + "".join(lines[5:]))
        flags = ["--start-block", str(start), "--on-error", "skip", "--quiet"]

        whole = tmp_path / "whole"
        assert cli.main(["run", "--input", str(mixed), "--output", str(whole),
                         "--no-detect"] + flags) == cli.EXIT_OK
        counts = json.loads((whole / "manifest.json").read_text())["ingest"]

        transfers = tmp_path / "transfers.jsonl"
        graph_dir = tmp_path / "graph"
        capsys.readouterr()
        assert cli.main(["ingest", "--input", str(mixed), "--output", str(transfers)]
                        + flags) == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert counts == {key: emitted[key] for key in counts}
        assert counts["error_lines"] == 1 and counts["below_start_block"] > 0
        assert cli.main(["build", "--input", str(transfers), "--output", str(graph_dir),
                         "--quiet"]) == cli.EXIT_OK
        for name in ("nodes.csv", "edges.csv"):
            assert (whole / "graph" / name).read_bytes() == (graph_dir / name).read_bytes()

    def test_rerun_is_deterministic_apart_from_timings(self, tmp_path, ledger):
        root, path, _ = ledger
        labels = os.path.join(str(root), "labels.csv")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_pipeline(path, a, labels=labels) == cli.EXIT_OK
        assert run_pipeline(path, b, labels=labels) == cli.EXIT_OK
        for sub, _, files in os.walk(a):
            for name in files:
                full = os.path.join(sub, name)
                rel = os.path.relpath(full, a)
                other = os.path.join(b, rel)
                if name == "manifest.json":
                    with open(full) as fa, open(other) as fb:
                        ma, mb = json.load(fa), json.load(fb)
                    ma.pop("timings_s"), mb.pop("timings_s")
                    ma.pop("total_s"), mb.pop("total_s")
                    assert ma == mb
                    continue
                with open(full, "rb") as fa, open(other, "rb") as fb:
                    assert fa.read() == fb.read(), rel

    def test_run_with_verify_and_manifest(self, tmp_path, ledger, capsys):
        root, path, _ = ledger
        out = tmp_path / "out"
        code = run_pipeline(path, out, labels=os.path.join(str(root), "labels.csv"),
                            extra=["--verify"])
        assert code == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["verified"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["verify"] is True
        assert all(manifest["conservation"].values())
        assert manifest["detection"]["clusters"] == 2

    def test_verbose_run_logs_every_stage(self, tmp_path, ledger):
        """--verbose logs each timings_s stage with its seconds and the
        peak RSS after it, on stderr only."""
        _, path, _ = ledger
        out = tmp_path / "out"
        proc = run_module(["-m", "fluxgraph.cli", "run", "--input", path,
                           "--output", str(out), "--verbose"])
        assert proc.returncode == 0, proc.stderr
        stages = json.loads((out / "manifest.json").read_text())["timings_s"]
        logged = re.findall(r"stage (\w+): \d+\.\d{3} s, peak RSS \d+\.\d MB\n", proc.stderr)
        assert sorted(logged) == sorted(stages)
        assert "peak RSS" not in proc.stdout

    def test_verbose_run_with_verify_logs_the_oracle(self, tmp_path, ledger):
        """Under --verify, timings_s and the log gain the oracle's own
        seconds, with the peak RSS of the process it ran in."""
        _, path, _ = ledger
        out = tmp_path / "out"
        proc = run_module(["-m", "fluxgraph.cli", "run", "--input", path,
                           "--output", str(out), "--verify", "--verbose"])
        assert proc.returncode == 0, proc.stderr
        stages = json.loads((out / "manifest.json").read_text())["timings_s"]
        logged = re.findall(r"stage (\w+): \d+\.\d{3} s, peak RSS \d+\.\d MB\n", proc.stderr)
        assert sorted(logged) == sorted(stages)
        assert "verify" in stages

    def test_cli_imports_without_resource_module(self):
        proc = run_module(["-c", "import sys; sys.modules['resource'] = None; "
                                 "from fluxgraph import cli; print(cli._peak_rss())"])
        assert (proc.returncode, proc.stdout) == (0, "unknown\n"), proc.stderr

    def test_no_detect_collapses_nothing(self, tmp_path, ledger, capsys):
        _, path, _ = ledger
        out = tmp_path / "out"
        assert run_pipeline(path, out, extra=["--no-detect"]) == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["exchange_clusters"] == 0
        clusters = (out / "clusters.csv").read_text().splitlines()
        assert len(clusters) == 1  # header only

    def test_stats_output_is_json(self, tmp_path, ledger, capsys):
        _, path, _ = ledger
        out = tmp_path / "out"
        assert run_pipeline(path, out) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["stats", "--graph", str(out / "graph"), "--top", "5",
                         "--quiet"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] > 0
        assert len(payload["top_by_degree"]) == 5


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestVerifyChild:
    """run --verify works out the oracle in a forked child while the
    parent writes and contracts; the result, the exit codes and what a
    failure leaves are those of the oracle run inline, and no child
    outlives the command."""

    @pytest.fixture
    def oracle_pids(self, monkeypatch):
        """The ids of the processes that called the oracle, as this
        process saw them: a child's call is not among them."""
        pids = []
        oracle = cli.oracle_contract

        def recorded(graph, coloring):
            pids.append(os.getpid())
            return oracle(graph, coloring)

        monkeypatch.setattr(cli, "oracle_contract", recorded)
        return pids

    def test_inline_oracle_gives_the_same_artifacts(self, tmp_path, ledger, monkeypatch,
                                                    oracle_pids):
        root, path, _ = ledger
        labels = os.path.join(str(root), "labels.csv")
        forked, inline = tmp_path / "forked", tmp_path / "inline"
        assert run_pipeline(path, forked, labels=labels, extra=["--verify"]) == cli.EXIT_OK
        assert oracle_pids == []
        assert_no_child()
        monkeypatch.delattr(os, "fork")
        assert run_pipeline(path, inline, labels=labels, extra=["--verify"]) == cli.EXIT_OK
        assert oracle_pids == [os.getpid()]
        assert files_under(forked) == files_under(inline)
        for rel in files_under(forked):
            if rel != "manifest.json":
                assert (forked / rel).read_bytes() == (inline / rel).read_bytes(), rel

    @pytest.mark.parametrize("command", ["run", "contract"])
    def test_forks_from_a_single_threaded_process(self, tmp_path, ledger, monkeypatch,
                                                  command):
        """A fork from a multi-threaded process may deadlock the child
        (Python 3.12+ warns of it), so the pipeline starts no thread."""
        _, path, _ = ledger
        staged = tmp_path / "staged"
        assert run_pipeline(path, staged) == cli.EXIT_OK
        threads = []
        fork = os.fork

        def counted():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        out = tmp_path / "out"
        if command == "run":
            code = run_pipeline(path, out, extra=["--verify"])
        else:
            code = cli.main(["contract", "--graph", str(staged / "graph"), "--coloring",
                             str(staged / "coloring.csv"), "--output", str(out),
                             "--verify", "--quiet"])
        assert code == cli.EXIT_OK
        # run forks the graph writer and the oracle, contract the oracle
        assert threads == ([1, 1] if command == "run" else [1])
        assert_no_child()

    @pytest.mark.parametrize("command", ["run", "contract"])
    def test_oracle_failing_in_the_child(self, tmp_path, ledger, monkeypatch, capsys,
                                         command):
        _, path, _ = ledger
        staged = tmp_path / "staged"
        assert run_pipeline(path, staged) == cli.EXIT_OK

        def failing(graph, coloring):
            raise PartialColoringError(f"oracle failed in process {os.getpid()}")

        monkeypatch.setattr(cli, "oracle_contract", failing)
        capsys.readouterr()
        out = tmp_path / "out"
        if command == "run":
            code = run_pipeline(path, out, extra=["--verify"])
        else:
            code = cli.main(["contract", "--graph", str(staged / "graph"), "--coloring",
                             str(staged / "coloring.csv"), "--output", str(out),
                             "--verify", "--quiet"])
        assert code == cli.EXIT_DATA
        # the genuine exception, raised again by the inline rerun
        assert capsys.readouterr().err == f"error: oracle failed in process {os.getpid()}\n"
        assert not (out / "contracted").exists() and not (out / "manifest.json").exists()
        assert command == "run" or not out.exists()
        assert_no_child()

    def test_no_child_outlives_a_failure(self, tmp_path, ledger, monkeypatch, capsys):
        _, path, _ = ledger
        oracle = cli.oracle_contract

        def disagreeing(graph, coloring):
            contracted, assignment = oracle(graph, coloring)
            next(iter(contracted.nodes.values())).intra_flux += 1
            return contracted, assignment

        monkeypatch.setattr(cli, "oracle_contract", disagreeing)
        assert run_pipeline(path, tmp_path / "a", extra=["--verify"]) == cli.EXIT_VERIFY
        assert_no_child()
        # a parent-side failure while the child works: report/ cannot be written
        monkeypatch.setattr(cli, "oracle_contract", oracle)

        def failing(directory, *args):
            raise OSError(errno.ENOSPC, "No space left on device", directory)

        monkeypatch.setattr(cli, "save_report", failing)
        assert run_pipeline(path, tmp_path / "b", extra=["--verify"]) == cli.EXIT_IO
        assert "report" in capsys.readouterr().err
        assert_no_child()


# How long a child of run --verify outlives a parent killed with SIGKILL:
# the ingest child finishes the block it parses, the writer its
# save_graph and the oracle its contraction (README). Over this module's
# ledger each takes well under a second.
CHILD_BOUND_S = 10.0


def session_processes(session: int) -> list[int]:
    """The live (not zombie) processes of a session, from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:  # gone meanwhile
                continue
            if int(fields[3]) == session and fields[0] not in "ZX":
                pids.append(int(entry))
    return pids


def is_write_leftover(rel: str) -> bool:
    """rel is a hidden file a killed write may leave: the temporary file
    of an atomic write (.NAME.PID.tmp) or anything under a staging
    directory (.stage.XXXX.tmp/)."""
    *dirs, name = rel.split(os.sep)
    hidden = [d for d in dirs if d.startswith(".")]
    if hidden:
        return re.fullmatch(r"\.stage\..+\.tmp", hidden[0]) is not None
    return re.fullmatch(r"\..+\.\d+\.tmp", name) is not None


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc")),
                    reason="needs os.fork and /proc")
def test_killed_parent_leaves_no_process_and_no_false_manifest(tmp_path, ledger):
    """SIGKILL run --verify, over a ledger of many blocks, at random
    moments while it writes: within CHILD_BOUND_S no process of its
    session is left, and its output either has no manifest.json or is
    complete. Every visible file is the complete run's, and every hidden
    one a write's leftover."""
    root, path, _ = ledger

    def start(out):
        code = ("import sys; from fluxgraph import cli, records; "
                "records.BLOCK_BYTES = 1 << 14; "
                f"sys.exit(cli.main(['run', '--input', {path!r}, '--output', {str(out)!r}, "
                f"'--labels', {os.path.join(str(root), 'labels.csv')!r}, '--verify', "
                "'--quiet']))")
        return subprocess.Popen([sys.executable, "-c", code], env=checkout_env(),
                                start_new_session=True, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def appeared(proc, path) -> float:
        """When path appears (or proc ends)."""
        while not path.exists() and proc.poll() is None:
            time.sleep(0.001)
        return time.perf_counter()

    assert os.path.getsize(path) > 4 << 14
    whole = start(tmp_path / "whole")
    # the run writes from graph/, its first output, to manifest.json
    t0 = appeared(whole, tmp_path / "whole" / "graph")
    took = appeared(whole, tmp_path / "whole" / "manifest.json") - t0
    assert whole.wait() == 0
    complete = files_under(tmp_path / "whole")
    rng = random.Random(os.getpid())
    rounds = 8
    cut = 0  # rounds killed before their manifest
    for i in range(rounds):
        out = tmp_path / f"killed-{i}"
        proc = start(out)
        # spread over the writes, not over the interpreter's start-up
        appeared(proc, out / "graph")
        time.sleep(took * (i + rng.random()) / rounds)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + CHILD_BOUND_S
        while session_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_processes(proc.pid) == [], f"round {i}"
        assert (out / "graph").is_dir(), f"round {i}"
        if (out / "manifest.json").exists():
            assert [f for f in files_under(out)
                    if not any(part.startswith(".") for part in f.split(os.sep))] == complete
        else:
            cut += 1
        for rel in files_under(out):
            if any(part.startswith(".") for part in rel.split(os.sep)):
                assert is_write_leftover(rel), f"round {i}: {rel}"
            elif rel != "manifest.json":
                assert rel in complete, f"round {i}: {rel}"
                assert (out / rel).read_bytes() == (tmp_path / "whole" / rel).read_bytes(), \
                    f"round {i}: {rel}"
    assert cut, "every round was killed after its manifest"


# How long the loader child of a command that reads graph/ outlives a
# parent killed with SIGKILL: it finishes the block it parses and leaves
# (README). Here a block is 16 KiB, parsed in a few milliseconds.
LOADER_BOUND_S = 2.0


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc")),
                    reason="needs os.fork and /proc")
def test_killed_loader_leaves_no_process(tmp_path):
    """SIGKILL fluxgraph stats while its loader child parses blocks of
    edges.csv: within LOADER_BOUND_S no process of its session is left."""
    from fluxgraph.graph import AggregatedGraph, save_graph

    rng = random.Random(11)
    g = AggregatedGraph()
    for _ in range(30_000):
        g.add_transfer(f"u{rng.randrange(8000):05d}", f"u{rng.randrange(8000):05d}",
                       rng.randrange(1, 10**12))
    directory = str(tmp_path / "graph")
    save_graph(g, directory)
    assert os.path.getsize(os.path.join(directory, "edges.csv")) > 16 << 14
    code = "\n".join([
        "import os, sys",
        "from fluxgraph import cli, records",
        "records.BLOCK_BYTES = 1 << 14",
        "fork = os.fork",
        "def announced():  # the parent says when it has forked the loader child",
        "    pid = fork()",
        "    if pid:",
        "        print('forked', flush=True)",
        "    return pid",
        "os.fork = announced",
        f"sys.exit(cli.main(['stats', '--graph', {directory!r}, '--quiet']))",
    ])
    for i in range(5):
        proc = subprocess.Popen([sys.executable, "-c", code], env=checkout_env(),
                                start_new_session=True, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            assert proc.stdout.readline() == b"forked\n", f"round {i}"
            time.sleep(rng.random() * 0.02)
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + LOADER_BOUND_S
        while session_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session_processes(proc.pid) == [], f"round {i}"


class TestConfigPrecedence:
    def test_config_block_applies(self, tmp_path, ledger, capsys):
        root, path, _ = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"detect": {"min_neighbors": 100000}}))
        out = tmp_path / "out"
        code = cli.main(["run", "--input", path, "--output", str(out),
                         "--labels", os.path.join(str(root), "labels.csv"),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["exchange_clusters"] == 0

    def test_cli_flag_overrides_config_block(self, tmp_path, ledger, capsys):
        root, path, _ = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"detect": {"min_neighbors": 100000}}))
        out = tmp_path / "out"
        code = cli.main(["run", "--input", path, "--output", str(out),
                         "--labels", os.path.join(str(root), "labels.csv"),
                         "--config", str(cfg), "--min-neighbors", "10",
                         "--quiet"])
        assert code == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["exchange_clusters"] == 2

    def test_int_config_value_for_float_option(self, tmp_path, ledger, capsys):
        _, path, _ = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"detect": {"deposit_forward_fraction": 1}}))
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["exchange_clusters"] == 2

    @pytest.mark.parametrize("block, flags, clusters", [
        pytest.param({}, [], 2, id="default"),
        pytest.param({"detect": False}, [], 0, id="config_off"),
        pytest.param({"detect": True}, ["--no-detect"], 0, id="flag_over_config"),
    ])
    def test_run_detect_precedence(self, tmp_path, ledger, capsys, block, flags, clusters):
        _, path, _ = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"run": block}))
        code = cli.main(["run", "--input", path, "--output", str(tmp_path / "out"),
                         "--config", str(cfg), "--quiet"] + flags)
        assert code == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["exchange_clusters"] == clusters
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["options"]["detect"] is (clusters > 0)

    def test_run_block_enables_verify(self, tmp_path, ledger, capsys):
        _, path, _ = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"run": {"verify": True}}))
        out = tmp_path / "out"
        code = cli.main(["run", "--input", path, "--output", str(out),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_ingest_start_block_from_config(self, tmp_path, ledger, capsys):
        _, path, truth = ledger
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"ingest": {"start_block": 10**9}}))
        out = tmp_path / "kept.jsonl"
        code = cli.main(["ingest", "--input", path, "--output", str(out),
                         "--config", str(cfg), "--quiet"])
        assert code == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["kept"] == 0
        assert emitted["parsed"] == truth.record_count
        assert emitted["dropped"] == truth.record_count


class TestCollector:
    """main pauses the cyclic garbage collector for one command and then
    restores it as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, tmp_path, ledger, monkeypatch, enabled):
        _, path, _ = ledger
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        seen = []
        ingest_stage = cli._ingest
        monkeypatch.setattr(cli, "_ingest", lambda *a: seen.append(gc.isenabled())
                            or ingest_stage(*a))
        caller = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert cli.main(["ingest", "--input", path, "--output",
                             str(tmp_path / "a.jsonl"), "--quiet"]) == cli.EXIT_OK
            assert gc.isenabled() is enabled
            assert cli.main(["ingest", "--input", str(bad), "--output",
                             str(tmp_path / "b.jsonl"), "--quiet"]) == cli.EXIT_MALFORMED
            assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):
                cli.main(["ingest", "--no-such-flag"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if caller else gc.disable)()
        assert seen == [False, False]

    def test_cycles_left_do_not_grow_with_input(self, tmp_path):
        def scaled(n: int) -> ScenarioConfig:
            return dataclasses.replace(
                SCENARIO, user_count=SCENARIO.user_count * n,
                exchanges=[dataclasses.replace(e, deposit_addresses=e.deposit_addresses * n,
                                               withdrawals=e.withdrawals * n,
                                               inter_exchange_tx=e.inter_exchange_tx * n)
                           for e in SCENARIO.exchanges])

        def cycles_left(n: int) -> int:
            path = tmp_path / f"ledger{n}.jsonl"
            generate_to_file(scaled(n), str(path))
            gc.collect()
            code = cli.main(["run", "--input", str(path), "--output", str(tmp_path / f"out{n}"),
                             "--verify", "--quiet"])
            assert code == cli.EXIT_OK
            return gc.collect()

        caller = gc.isenabled()
        gc.disable()  # count every cycle left, none freed by an automatic pass
        try:
            cycles_left(1)  # first-use set-up, such as imports
            small, large = cycles_left(1), cycles_left(4)
        finally:
            if caller:
                gc.enable()
        assert large <= small


class TestSynthCommand:
    def test_template_round_trip(self, tmp_path, capsys):
        template = tmp_path / "scenario.json"
        assert cli.main(["synth", "--template", str(template),
                         "--quiet"]) == cli.EXIT_OK
        capsys.readouterr()
        cfg = config_from_dict(json.loads(template.read_text()))
        assert cfg.user_count == cli._TEMPLATE_SCENARIO.user_count
        out = tmp_path / "ledger.jsonl"
        truth_dir = tmp_path / "truth"
        code = cli.main(["synth", "--scenario", str(template), "--output",
                         str(out), "--truth", str(truth_dir), "--quiet"])
        assert code == cli.EXIT_OK
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["records"] > 0
        assert (truth_dir / "ground_truth.json").exists()
        assert (truth_dir / "labels.csv").exists()

    def test_seed_override_changes_stream(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        assert cli.main(["synth", "--template", str(scenario),
                         "--quiet"]) == cli.EXIT_OK
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert cli.main(["synth", "--scenario", str(scenario), "--output",
                         str(a), "--quiet"]) == cli.EXIT_OK
        assert cli.main(["synth", "--scenario", str(scenario), "--output",
                         str(b), "--seed", "99", "--quiet"]) == cli.EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_refused_scenario_leaves_no_output(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "seed": 1, "user_count": 50,
            "exchanges": [{"label": "a", "main_wallets": 1, "deposit_addresses": 3,
                           "withdrawals": 40}],
        }))
        code = cli.main(["synth", "--scenario", str(scenario), "--output",
                         str(tmp_path / "ledger.jsonl"), "--quiet"])
        assert code == cli.EXIT_CONFIG
        assert "below the detection minimum" in capsys.readouterr().err
        assert files_under(tmp_path) == ["scenario.json"]

    @pytest.mark.parametrize("scenario, message", [
        pytest.param({"user_count": "5"}, "user_count must be int, got '5'", id="str_for_int"),
        pytest.param({"exchanges": 5}, "exchanges must be list, got 5", id="int_for_list"),
        pytest.param({"seed": 1.5}, "seed must be int, got 1.5", id="float_for_int"),
        pytest.param({"exchanges": [{"label": 5}]}, "label must be str, got 5",
                     id="exchange_int_for_str"),
    ])
    def test_scenario_value_of_wrong_type(self, tmp_path, capsys, scenario, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = cli.main(["synth", "--scenario", str(path), "--output",
                         str(tmp_path / "ledger.jsonl"), "--quiet"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert files_under(tmp_path) == ["scenario.json"]

    def test_unwritable_output_names_the_target(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["synth", "--template", "nodir/x.json", "--quiet"])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "nodir/x.json" in err
        assert ".tmp" not in err


def test_bench_tracer_installs():
    """bench/spans.py wraps layer functions by their names on the cli
    module; one that cli stops importing would break every traced run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "import spans; spans.install(spans.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(root, "bench"), os.path.join(root, "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
