"""Workload definitions: which scenario each workload synthesizes, at
which size, and how the pipeline is driven over it.

Every workload derives its ledger from ``MILLION_SCENARIO``, the
ROADMAP yardstick shape, with the seed replaced by the benchmark seed.
Three sizes exist:

- ``bench``: the size the timed runs use.
- ``smoke``: a tiny size that runs every check in seconds.
- ``full``: ``MILLION_SCENARIO`` at scale 1.0, for the reference trace.
"""

from __future__ import annotations

import copy
import itertools

# Mirrors MILLION_SCENARIO in tests/test_acceptance.py; the self-tests
# fail if the two drift apart.
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

WORKLOADS = ("run-verify", "staged-noisy", "detect-sweep")
SIZES = ("bench", "smoke", "full")

# Scales applied to MILLION_SCENARIO: (users and deposit addresses,
# withdrawals and inter-exchange transfers). Smoke keeps more of the
# latter so that no main wallet sends almost all its outflow to one peer,
# which the generator refuses as undetectable.
_SCALE = {"bench": (0.25, 0.25), "smoke": (0.05, 0.06), "full": (1.0, 1.0)}
# staged-noisy's user count; 75k users give about 314k records.
_NOISY_USERS = {"bench": 75_000, "smoke": 5_000, "full": 300_000}

# detect-sweep: top_k x deposit_forward_fraction x deposit_neighbor_threshold
SWEEP_GRID = list(itertools.product((60, 600), (0.99, 0.95), (0.9, 0.8)))
# main recall bar for noisy deposits, as in test_planted_exchanges_recovered
SWEEP_MIN_MAIN_RECALL = 0.9


def scaled_million(seed: int, size: str) -> dict:
    """MILLION_SCENARIO with the seed replaced and its user, deposit,
    withdrawal and inter-exchange counts scaled for ``size``."""
    population, traffic = _SCALE[size]
    scenario = copy.deepcopy(MILLION_SCENARIO)
    scenario["seed"] = seed
    scenario["user_count"] = round(scenario["user_count"] * population)
    for spec in scenario["exchanges"]:
        spec["deposit_addresses"] = round(spec["deposit_addresses"] * population)
        for key in ("withdrawals", "inter_exchange_tx"):
            spec[key] = round(spec[key] * traffic)
    return scenario


def scenario_for(workload: str, seed: int, size: str) -> dict:
    """The synth scenario (as a config dict) a workload's inputs come from."""
    if workload == "run-verify":
        return scaled_million(seed, size)
    if workload == "detect-sweep":
        return dict(scaled_million(seed, size), pattern_noise_rate=0.05)
    if workload == "staged-noisy":
        return dict(
            scaled_million(seed, size),
            user_count=_NOISY_USERS[size],
            trader_fraction=0.0,
            exchanges=[],
            nontransfer_noise_rate=1.0,
            failed_noise_rate=0.5,
            zero_amount_noise_rate=0.1,
        )
    raise ValueError(f"unknown workload {workload!r}")


def sweep_params() -> list[dict]:
    """The DetectionParams keyword sets detect-sweep runs, in order."""
    return [
        {"top_k": k, "deposit_forward_fraction": f, "deposit_neighbor_threshold": t}
        for k, f, t in SWEEP_GRID
    ]


def sweep_file(index: int) -> str:
    """The clusters file detect-sweep writes for parameter set ``index``."""
    return f"clusters-{index}.csv"
