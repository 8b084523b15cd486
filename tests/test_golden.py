"""Golden artifact bytes: two small fixed-seed pipelines, every file pinned.

One `run --verify` and one pass through the five stage commands write
every artifact the CLI produces (`run` folds the ledger straight into
the graph, so only the stage pass writes transfers.jsonl). Their sha256
digests are pinned here, so any change to a writer that moves a single
byte fails this module.
manifest.json is left out because its timing fields vary between runs.
The generator's ledger, ground truth, labels and template are pinned too.
"""

import hashlib
import os

import pytest

from fluxgraph import cli
from fluxgraph.synth import ExchangeSpec, ScenarioConfig, generate_to_file, save_ground_truth

SCENARIO = ScenarioConfig(
    seed=4242,
    user_count=250,
    trader_fraction=0.4,
    exchanges=[
        ExchangeSpec(label="acme", main_wallets=2, deposit_addresses=120,
                     deposit_rounds=2, withdrawals=2, inter_exchange_tx=5),
        ExchangeSpec(label="zeta", main_wallets=1, deposit_addresses=70,
                     deposit_rounds=2, withdrawals=3, inter_exchange_tx=5),
    ],
    nontransfer_noise_rate=0.05,
    failed_noise_rate=0.02,
    zero_amount_noise_rate=0.02,
)

ARTIFACT_DIGESTS = {
    "clusters.csv":
        "01c924d488ace80adfd280a40fda32a7ecc281f8adb88be1052550d5786b7f8f",
    "coloring.csv":
        "98d2bb6d15c8658d45152bd6f97f03e4156989bb175e41d22e822079a4ba8d33",
    "contracted/assignment.csv":
        "bc010b36fe66f462a4609e1298fffab921e8fec171f175b6a91570ab6537cf22",
    "contracted/contracted.dot":
        "66e3ee6740c809dbc9af02236884c07accac8e73282d71375cffea785745a5eb",
    "contracted/contracted.graphml":
        "c7a82030b8aa5d09271b7b35a3bd18598edcb3973c5134c75ffbd78db590c07a",
    "contracted/edges.csv":
        "d425269727ec4efdb09193d5a7acb8ce57f287af47b0d25ee037d8a69c6f4cc6",
    "contracted/nodes.csv":
        "10152623e0cfd9526ee4c30afda47926036122d9693320f8678f8c857a94ab45",
    "graph/edges.csv":
        "a98ab0c4c6e80c44297223c68ca8c5e51830d324cdb4a7b1b199ab7554ef237b",
    "graph/nodes.csv":
        "1f0d67a6c9a8dcae10005c1994434d9921ef540d647ac11d376ea7e528b598b7",
    "report/cluster_sizes.csv":
        "54af349c86bd7fae7fd09c6fa1209cef50542c1095b6eba806f42f7f309c0175",
    "report/exchange_edges.csv":
        "31c2b12fcee5bf40de62834858a9b3977eb7c5c57d3f7a822f994e708d81b97c",
    "report/partition.csv":
        "56b70517a96896a7ef59546a3cd01f79ff54641f1e54bd11f99bdb5a051dcf4e",
    "report/report.json":
        "62447bd6044a44eb56f24c018c1a78e6a3144ecc003d3216fa8f4bd97eb97933",
    "report/report.txt":
        "f7c8c9c8a4788833b367189dde0943d8dd24eeb02c22051ca07b99f83b5d0120",
    "transfers.jsonl":
        "05f29c77ef1f6a0f66f5a5a439b6b50603d5b95d96958265ae42b43483d07b01",
}
# the generator's own outputs for SCENARIO, and the synth --template file
SYNTH_DIGESTS = {
    "ledger.jsonl":
        "016940b9492d57d8327944a267dab810214a7e60c5e35c76c5f09060dfcfc616",
    "ground_truth.json":
        "9e45b5c089f3ba94a5fcd3bdc36f768b4eacc2befcbd3f897a8a330efa1bc284",
    "labels.csv":
        "051beae51497df4e3885d96976c613faae709c3a7388e6410294bd4bcb5dbb10",
    "template.json":
        "476d146bb4cca5ae648bdefc0af95b94fa8b0c6771704e8d0840fed35a35d57b",
}
# meta.json records how the quotient was made, so the two routes differ there
RUN_META_DIGEST = "0b70c6e289ba5cc6309b1b3a92d7de1b221e9cc16481676b8c678e859ddd7c3b"
STAGED_META_DIGEST = "395319164a346f32bc9ba814f83ac1ffc52e5baad02bd977b1a163818d32904d"


def digests(root) -> dict[str, str]:
    out = {}
    for sub, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(sub, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            if rel == "manifest.json":
                continue
            with open(full, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    path = str(root / "ledger.jsonl")
    save_ground_truth(generate_to_file(SCENARIO, path), str(root))
    return path, str(root / "labels.csv")


def run_verify(ledger, out) -> dict[str, str]:
    path, labels = ledger
    assert cli.main(["run", "--input", path, "--output", str(out), "--labels", labels,
                     "--verify", "--quiet"]) == cli.EXIT_OK
    return digests(out)


def staged(ledger, out) -> dict[str, str]:
    path, labels = ledger
    out.mkdir()
    steps = [
        ["ingest", "--input", path, "--output", str(out / "transfers.jsonl")],
        ["build", "--input", str(out / "transfers.jsonl"), "--output", str(out / "graph")],
        ["detect", "--graph", str(out / "graph"), "--output", str(out / "clusters.csv"),
         "--coloring", str(out / "coloring.csv"), "--labels", labels],
        ["contract", "--graph", str(out / "graph"), "--coloring", str(out / "coloring.csv"),
         "--clusters", str(out / "clusters.csv"), "--output", str(out / "contracted")],
        ["analyze", "--contracted", str(out / "contracted"), "--clusters",
         str(out / "clusters.csv"), "--output", str(out / "report")],
    ]
    for argv in steps:
        assert cli.main(argv + ["--quiet"]) == cli.EXIT_OK, argv[0]
    return digests(out)


def test_run_verify_artifacts_are_pinned(ledger, tmp_path):
    expected = {name: digest for name, digest in ARTIFACT_DIGESTS.items()
                if name != "transfers.jsonl"}
    assert run_verify(ledger, tmp_path / "run") == dict(
        expected, **{"contracted/meta.json": RUN_META_DIGEST})


def test_stage_artifacts_are_pinned(ledger, tmp_path):
    assert staged(ledger, tmp_path / "staged") == dict(
        ARTIFACT_DIGESTS, **{"contracted/meta.json": STAGED_META_DIGEST})


def test_synth_outputs_are_pinned(ledger, tmp_path):
    path, labels = ledger
    template = tmp_path / "template.json"
    assert cli.main(["synth", "--template", str(template), "--quiet"]) == cli.EXIT_OK
    root = os.path.dirname(path)
    files = {name: os.path.join(root, name)
             for name in ("ledger.jsonl", "ground_truth.json", "labels.csv")}
    files["template.json"] = str(template)
    got = {}
    for name, full in files.items():
        with open(full, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == SYNTH_DIGESTS
