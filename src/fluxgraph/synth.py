"""Deterministic synthetic ledger scenarios with known ground truth.

A scenario plants the exact structures the rest of the pipeline is
supposed to recover: exchanges as main wallets fed by single-purpose
deposit addresses (customer -> deposit -> main, full pass-through),
withdrawals paid straight from main wallets, traffic between exchanges,
and an organic user mesh grown by preferential attachment inside
components whose sizes follow a heavy-tailed draw around one dominant
component. Traders are users who only ever touch exchanges, so they
surface later as singleton user clusters.

Everything is driven by one seeded RNG and ordered data structures;
identical config and seed give byte-identical output. Block numbers
never decrease. Noise knobs add non-transfer extrinsics, failed and
zero-amount transfers (all of which ingest must drop), and optional
pattern noise that makes a fraction of deposit addresses misbehave.
Ground-truth tallies always describe the planted roles; with pattern
noise greater than zero, detection is expected to degrade, not the
truth.

The generator refuses configs whose planted exchanges would not be
detectable with default detection parameters (main wallet outranked,
too few deposit neighbors, or a main wallet indistinguishable from a
deposit address of a peer); this check is skipped when pattern noise
is requested or validate_detectability is off.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field, fields as dataclass_fields
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ConfigError
from .exchanges import DetectionParams, LABELS_HEADER
from .tables import write_table

CAT_INTRA_EXCHANGE = "intra_exchange"
CAT_INTER_EXCHANGE = "inter_exchange"
CAT_USER_EXCHANGE = "user_exchange"
CAT_INTRA_USER = "intra_user"
CATEGORIES = (CAT_INTRA_EXCHANGE, CAT_INTER_EXCHANGE, CAT_USER_EXCHANGE, CAT_INTRA_USER)

_MAX_SMALL_COMPONENT = 40


@dataclass
class ExchangeSpec:
    """One planted exchange. deposit_rounds is how many deposit/forward
    pairs each deposit address performs; withdrawals and
    inter_exchange_tx are absolute transfer counts."""

    label: str = ""
    main_wallets: int = 1
    deposit_addresses: int = 0
    deposit_rounds: int = 1
    withdrawals: int = 0
    inter_exchange_tx: int = 0


@dataclass
class ScenarioConfig:
    seed: int = 0
    user_count: int = 0
    trader_fraction: float = 0.0
    mesh_edges_per_user: int = 2
    giant_fraction: float = 0.5
    exchanges: list[ExchangeSpec] = field(default_factory=list)
    nontransfer_noise_rate: float = 0.0
    failed_noise_rate: float = 0.0
    zero_amount_noise_rate: float = 0.0
    pattern_noise_rate: float = 0.0
    min_amount_planck: int = 10**8
    max_amount_planck: int = 10**13
    records_per_block: int = 4
    start_block: int = 0
    genesis_timestamp_ms: int = 1_600_000_000_000
    block_time_ms: int = 6_000
    validate_detectability: bool = True

    def validate(self) -> None:
        if self.user_count < 0:
            raise ConfigError("user_count must be non-negative")
        for name in ("trader_fraction", "giant_fraction", "nontransfer_noise_rate",
                     "failed_noise_rate", "zero_amount_noise_rate", "pattern_noise_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1], got {value}")
        if self.mesh_edges_per_user < 0:
            raise ConfigError("mesh_edges_per_user must be non-negative")
        if not 1 <= self.min_amount_planck <= self.max_amount_planck:
            raise ConfigError("need 1 <= min_amount_planck <= max_amount_planck")
        if self.records_per_block < 1:
            raise ConfigError("records_per_block must be at least 1")
        if self.start_block < 0 or self.block_time_ms < 0:
            raise ConfigError("start_block and block_time_ms must be non-negative")
        seen_labels = set()
        total_deposits = 0
        for i, spec in enumerate(self.exchanges, 1):
            if spec.main_wallets < 1:
                raise ConfigError(f"exchange {i}: main_wallets must be at least 1")
            if spec.deposit_addresses < 0 or spec.withdrawals < 0 or spec.inter_exchange_tx < 0:
                raise ConfigError(f"exchange {i}: counts must be non-negative")
            if spec.deposit_rounds < 1:
                raise ConfigError(f"exchange {i}: deposit_rounds must be at least 1")
            if spec.inter_exchange_tx > 0 and len(self.exchanges) < 2:
                raise ConfigError("inter_exchange_tx needs at least two exchanges")
            label = spec.label or f"ex{i:02d}"
            if label in seen_labels:
                raise ConfigError(f"duplicate exchange label {label!r}")
            seen_labels.add(label)
            total_deposits += spec.deposit_addresses
        if total_deposits > 0 and self.user_count == 0:
            raise ConfigError("deposit addresses need users to act as customers")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    known = {f.name for f in dataclass_fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown scenario config keys: {sorted(unknown)}")
    kwargs = dict(data)
    specs = []
    for raw in kwargs.pop("exchanges", []):
        if not isinstance(raw, dict):
            raise ConfigError("each exchange entry must be an object")
        spec_known = {f.name for f in dataclass_fields(ExchangeSpec)}
        spec_unknown = set(raw) - spec_known
        if spec_unknown:
            raise ConfigError(f"unknown exchange keys: {sorted(spec_unknown)}")
        specs.append(ExchangeSpec(**raw))
    try:
        config = ScenarioConfig(exchanges=specs, **kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    config.validate()
    return config


def config_to_dict(config: ScenarioConfig) -> dict:
    out = {f.name: getattr(config, f.name) for f in dataclass_fields(ScenarioConfig)}
    out["exchanges"] = [
        {f.name: getattr(spec, f.name) for f in dataclass_fields(ExchangeSpec)}
        for spec in config.exchanges
    ]
    return out


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


@dataclass
class PlantedExchange:
    label: str
    mains: list[str]
    deposits: list[str]


@dataclass
class GroundTruth:
    """What the pipeline should recover from the generated stream."""

    labels: dict[str, str]
    exchanges: list[PlantedExchange]
    traders: list[str]
    organic_users: list[str]
    category_totals: dict[str, dict[str, int]]
    transfer_count: int
    total_flux: int
    record_count: int
    noise_records: int
    failed_records: int
    zero_amount_records: int
    transacting_accounts: int
    aggregated_edge_count: int
    user_component_sizes: list[int]
    per_exchange_intra: dict[str, dict[str, int]]
    inter_exchange_matrix: dict[str, dict[str, int]]

    def as_dict(self) -> dict:
        return {
            "labels": dict(sorted(self.labels.items())),
            "exchanges": [
                {"label": e.label, "mains": e.mains, "deposits": e.deposits}
                for e in self.exchanges
            ],
            "traders": self.traders,
            "organic_users": self.organic_users,
            "category_totals": {k: dict(v) for k, v in sorted(self.category_totals.items())},
            "transfer_count": self.transfer_count,
            "total_flux": self.total_flux,
            "record_count": self.record_count,
            "noise_records": self.noise_records,
            "failed_records": self.failed_records,
            "zero_amount_records": self.zero_amount_records,
            "transacting_accounts": self.transacting_accounts,
            "aggregated_edge_count": self.aggregated_edge_count,
            "user_component_sizes": self.user_component_sizes,
            "per_exchange_intra": {
                k: dict(v) for k, v in sorted(self.per_exchange_intra.items())
            },
            "inter_exchange_matrix": {
                k: dict(v) for k, v in sorted(self.inter_exchange_matrix.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroundTruth":
        return cls(
            labels=data["labels"],
            exchanges=[
                PlantedExchange(e["label"], e["mains"], e["deposits"])
                for e in data["exchanges"]
            ],
            traders=data["traders"],
            organic_users=data["organic_users"],
            category_totals=data["category_totals"],
            transfer_count=data["transfer_count"],
            total_flux=data["total_flux"],
            record_count=data["record_count"],
            noise_records=data["noise_records"],
            failed_records=data["failed_records"],
            zero_amount_records=data["zero_amount_records"],
            transacting_accounts=data["transacting_accounts"],
            aggregated_edge_count=data["aggregated_edge_count"],
            user_component_sizes=data["user_component_sizes"],
            per_exchange_intra=data["per_exchange_intra"],
            inter_exchange_matrix=data["inter_exchange_matrix"],
        )


GROUND_TRUTH_FILE = "ground_truth.json"
LABELS_FILE = "labels.csv"


def save_ground_truth(truth: GroundTruth, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, GROUND_TRUTH_FILE), "w", encoding="utf-8") as fh:
        json.dump(truth.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_table(os.path.join(directory, LABELS_FILE), LABELS_HEADER,
                sorted(truth.labels.items()))


def load_ground_truth(directory: str) -> GroundTruth:
    with open(os.path.join(directory, GROUND_TRUTH_FILE), "r", encoding="utf-8") as fh:
        return GroundTruth.from_dict(json.load(fh))


# -- planning ----------------------------------------------------------


def _draw_amount(rng: random.Random, lo_log: float, span: float, lo: int, hi: int) -> int:
    amount = int(10 ** (lo_log + rng.random() * span))
    if amount < lo:
        return lo
    if amount > hi:
        return hi
    return amount


def _component_sizes(rng: random.Random, organic: int, giant_fraction: float) -> list[int]:
    if organic < 2:
        return []
    giant = max(2, int(organic * giant_fraction))
    if giant > organic:
        giant = organic
    if organic - giant == 1:
        giant = organic
    sizes = [giant]
    left = organic - giant
    while left >= 2:
        size = 1 + int(rng.paretovariate(1.3))
        if size > _MAX_SMALL_COMPONENT:
            size = _MAX_SMALL_COMPONENT
        if size > left:
            size = left
        if left - size == 1:
            size += 1
        sizes.append(size)
        left -= size
    return sizes


class _Tally:
    """Running ground-truth bookkeeping over planned transfers."""

    def __init__(self):
        self.categories = {cat: {"tx_count": 0, "flux": 0} for cat in CATEGORIES}
        self.pairs: set[tuple[str, str]] = set()
        self.accounts: set[str] = set()
        self.per_exchange: dict[str, dict[str, int]] = {}
        self.inter_matrix: dict[str, dict[str, int]] = {}
        self.transfer_count = 0
        self.total_flux = 0

    def add(self, sender: str, recipient: str, amount: int, category: str) -> None:
        bucket = self.categories[category]
        bucket["tx_count"] += 1
        bucket["flux"] += amount
        self.pairs.add((sender, recipient))
        self.accounts.add(sender)
        self.accounts.add(recipient)
        self.transfer_count += 1
        self.total_flux += amount

    def add_exchange_intra(self, label: str, amount: int) -> None:
        entry = self.per_exchange.setdefault(label, {"tx_count": 0, "flux": 0})
        entry["tx_count"] += 1
        entry["flux"] += amount

    def add_inter(self, src_label: str, dst_label: str, amount: int) -> None:
        entry = self.inter_matrix.setdefault(
            f"{src_label}->{dst_label}", {"tx_count": 0, "flux": 0}
        )
        entry["tx_count"] += 1
        entry["flux"] += amount


def _plan(config: ScenarioConfig, rng: random.Random):
    """Lay out every transfer before emission.

    Returns (groups, tally, exchanges, traders, organic, mesh_parent).
    A group is a tuple of transfer tuples that stay adjacent through the
    final shuffle, so a deposit and its forward never split.
    """
    lo_log = math.log10(config.min_amount_planck)
    span = math.log10(config.max_amount_planck) - lo_log
    draw = lambda: _draw_amount(
        rng, lo_log, span, config.min_amount_planck, config.max_amount_planck
    )

    users = [f"U{i:07d}" for i in range(config.user_count)]
    rng.shuffle(users)
    trader_count = int(config.user_count * config.trader_fraction + 0.5)
    traders = users[:trader_count]
    organic = users[trader_count:]

    exchanges: list[PlantedExchange] = []
    for e, spec in enumerate(config.exchanges, 1):
        label = spec.label or f"ex{e:02d}"
        mains = [f"X{e:02d}M{j:02d}" for j in range(spec.main_wallets)]
        deposits = [f"X{e:02d}D{i:06d}" for i in range(spec.deposit_addresses)]
        exchanges.append(PlantedExchange(label=label, mains=mains, deposits=deposits))

    tally = _Tally()
    groups: list[tuple] = []

    def plan(sender: str, recipient: str, amount: int, category: str) -> tuple:
        tally.add(sender, recipient, amount, category)
        return (sender, recipient, amount)

    # organic user mesh: preferential attachment inside each component
    mesh_parent: dict[str, str] = {}

    def mesh_find(x: str) -> str:
        root = x
        while mesh_parent[root] != root:
            root = mesh_parent[root]
        while mesh_parent[x] != root:
            mesh_parent[x], x = root, mesh_parent[x]
        return root

    if config.mesh_edges_per_user > 0:
        sizes = _component_sizes(rng, len(organic), config.giant_fraction)
        cursor = 0
        for size in sizes:
            members = organic[cursor : cursor + size]
            cursor += size
            bag = [members[0]]
            for i in range(1, size):
                newcomer = members[i]
                want = min(config.mesh_edges_per_user, i)
                targets: list[str] = []
                while len(targets) < want:
                    pick = rng.choice(bag)
                    if pick not in targets:
                        targets.append(pick)
                for target in targets:
                    amount = draw()
                    if rng.random() < 0.5:
                        edge = plan(newcomer, target, amount, CAT_INTRA_USER)
                    else:
                        edge = plan(target, newcomer, amount, CAT_INTRA_USER)
                    groups.append((edge,))
                    bag.append(target)
                    for node in (newcomer, target):
                        if node not in mesh_parent:
                            mesh_parent[node] = node
                    ra, rb = mesh_find(newcomer), mesh_find(target)
                    if ra != rb:
                        mesh_parent[rb] = ra
                bag.extend([newcomer] * want)

    # deposit ownership: traders first, then organic users, cycling
    customer_pool = traders + organic
    customers_of: dict[str, list[str]] = {}
    deposit_main: dict[str, str] = {}
    deposit_owner: dict[str, str] = {}
    pool_idx = 0
    for planted, spec in zip(exchanges, config.exchanges):
        customers: list[str] = []
        for i, deposit in enumerate(planted.deposits):
            owner = customer_pool[pool_idx % len(customer_pool)]
            pool_idx += 1
            main = planted.mains[i % len(planted.mains)]
            deposit_main[deposit] = main
            deposit_owner[deposit] = owner
            customers.append(owner)
            for _ in range(spec.deposit_rounds):
                amount = draw()
                pay_in = plan(owner, deposit, amount, CAT_USER_EXCHANGE)
                forward = plan(deposit, main, amount, CAT_INTRA_EXCHANGE)
                tally.add_exchange_intra(planted.label, amount)
                groups.append((pay_in, forward))
        customers_of[planted.label] = customers

    # withdrawals: paid straight from a main wallet to a customer
    for planted, spec in zip(exchanges, config.exchanges):
        customers = customers_of[planted.label]
        if spec.withdrawals and not customers:
            raise ConfigError(
                f"exchange {planted.label}: withdrawals need deposit customers"
            )
        for w in range(spec.withdrawals):
            main = planted.mains[w % len(planted.mains)]
            target = rng.choice(customers)
            amount = draw()
            groups.append((plan(main, target, amount, CAT_USER_EXCHANGE),))

    # multi-main wallets exchange both ways so the cluster is connected
    for planted in exchanges:
        for j in range(1, len(planted.mains)):
            for src, dst in ((planted.mains[j - 1], planted.mains[j]),
                             (planted.mains[j], planted.mains[j - 1])):
                amount = draw()
                groups.append((plan(src, dst, amount, CAT_INTRA_EXCHANGE),))
                tally.add_exchange_intra(planted.label, amount)

    # traffic between exchanges
    for planted, spec in zip(exchanges, config.exchanges):
        if not spec.inter_exchange_tx:
            continue
        others = [p for p in exchanges if p.label != planted.label]
        for _ in range(spec.inter_exchange_tx):
            peer = rng.choice(others)
            src = rng.choice(planted.mains)
            dst = rng.choice(peer.mains)
            amount = draw()
            groups.append((plan(src, dst, amount, CAT_INTER_EXCHANGE),))
            tally.add_inter(planted.label, peer.label, amount)

    # pattern noise: a misbehaving deposit either leaks to a random user
    # or its owner pays the main wallet directly
    if config.pattern_noise_rate > 0 and users:
        for planted in exchanges:
            for deposit in planted.deposits:
                if rng.random() >= config.pattern_noise_rate:
                    continue
                amount = draw()
                if rng.random() < 0.5:
                    leak_to = rng.choice(users)
                    groups.append(
                        (plan(deposit, leak_to, amount, CAT_USER_EXCHANGE),)
                    )
                else:
                    main = deposit_main[deposit]
                    payer = rng.choice(users)
                    groups.append((plan(payer, main, amount, CAT_USER_EXCHANGE),))

    rng.shuffle(groups)
    return groups, tally, exchanges, traders, organic, mesh_parent, mesh_find


def _validate_detectability(
    config: ScenarioConfig,
    groups: list[tuple],
    exchanges: list[PlantedExchange],
) -> None:
    params = DetectionParams()
    threshold = Fraction(str(params.deposit_neighbor_threshold))
    forward = Fraction(str(params.deposit_forward_fraction))

    deposit_of: dict[str, str] = {}
    for planted in exchanges:
        for deposit in planted.deposits:
            deposit_of[deposit] = planted.label

    mains = {m for planted in exchanges for m in planted.mains}
    degree: dict[str, int] = {}
    neighbor_sets: dict[str, set[str]] = {m: set() for m in mains}
    main_out: dict[str, dict[str, int]] = {m: {} for m in mains}
    for group in groups:
        for sender, recipient, amount in group:
            degree[sender] = degree.get(sender, 0) + 1
            degree[recipient] = degree.get(recipient, 0) + 1
            if sender in neighbor_sets and recipient != sender:
                neighbor_sets[sender].add(recipient)
                out = main_out[sender]
                out[recipient] = out.get(recipient, 0) + amount
            if recipient in neighbor_sets and sender != recipient:
                neighbor_sets[recipient].add(sender)

    ranked = sorted(degree.items(), key=lambda item: (-item[1], item[0]))
    rank_of = {account: i + 1 for i, (account, _d) in enumerate(ranked)}
    for main in sorted(mains):
        rank = rank_of.get(main)
        if rank is None or rank > params.top_k:
            raise ConfigError(
                f"main wallet {main} would rank {rank} by degree, outside the "
                f"top {params.top_k}; give it more deposit traffic"
            )
        neighbors = neighbor_sets[main]
        passing = sum(1 for nb in neighbors if nb in deposit_of)
        if len(neighbors) < params.min_neighbors:
            raise ConfigError(
                f"main wallet {main} has only {len(neighbors)} neighbors, "
                f"below the detection minimum of {params.min_neighbors}"
            )
        if Fraction(passing, len(neighbors)) <= threshold:
            raise ConfigError(
                f"main wallet {main} has {passing}/{len(neighbors)} deposit "
                f"neighbors, not strictly above {params.deposit_neighbor_threshold}; "
                f"reduce withdrawals or add deposit addresses"
            )
    # a main wallet routing almost all of its outflow to one peer would
    # itself look like a deposit address and glue two exchanges together
    for main in sorted(mains):
        out = main_out[main]
        out_flux = sum(out.values())
        if not out_flux:
            continue
        for target, flux in sorted(out.items()):
            if target in mains and Fraction(flux, out_flux) >= forward:
                raise ConfigError(
                    f"main wallet {main} sends {flux}/{out_flux} of its outflow "
                    f"to {target} and would classify as its deposit address; "
                    f"add withdrawals or diversify its traffic"
                )


_NOISE_TEMPLATES = (
    ("Staking", "bond", True),
    ("System", "remark", True),
    ("Democracy", "vote", True),
    ("Utility", "batch", True),
)


def _generate(config: ScenarioConfig, emit: Callable[[str], None]) -> GroundTruth:
    config.validate()
    rng = random.Random(config.seed)
    groups, tally, exchanges, traders, organic, mesh_parent, mesh_find = _plan(
        config, rng
    )
    if (
        config.validate_detectability
        and exchanges
        and config.pattern_noise_rate == 0.0
    ):
        _validate_detectability(config, groups, exchanges)

    all_accounts = [f"U{i:07d}" for i in range(config.user_count)]
    for planted in exchanges:
        all_accounts.extend(planted.mains)
        all_accounts.extend(planted.deposits)

    lo_log = math.log10(config.min_amount_planck)
    span = math.log10(config.max_amount_planck) - lo_log

    emitted = 0
    noise_records = 0
    failed_records = 0
    zero_amount_records = 0
    noise_cycle = 0
    per_block = config.records_per_block
    start_block = config.start_block
    genesis = config.genesis_timestamp_ms
    block_ms = config.block_time_ms

    def stamp() -> tuple[int, int]:
        block = start_block + emitted // per_block
        return block, genesis + (block - start_block) * block_ms

    def emit_transfer(sender: str, recipient: str, amount: int,
                      signed: bool = True, success: bool = True) -> None:
        nonlocal emitted
        block, ts = stamp()
        emit(
            f'{{"block_number": {block}, "timestamp": {ts}, '
            f'"module_id": "Balances", "call_id": "transfer", '
            f'"signed": {"true" if signed else "false"}, '
            f'"success": {"true" if success else "false"}, '
            f'"sender": "{sender}", "recipient": "{recipient}", '
            f'"amount_planck": {amount}}}'
        )
        emitted += 1

    def emit_noise() -> None:
        nonlocal emitted, noise_cycle
        block, ts = stamp()
        module, call, signed = _NOISE_TEMPLATES[noise_cycle % len(_NOISE_TEMPLATES)]
        noise_cycle += 1
        emit(
            f'{{"block_number": {block}, "timestamp": {ts}, '
            f'"module_id": "{module}", "call_id": "{call}", '
            f'"signed": {"true" if signed else "false"}, "success": true}}'
        )
        emitted += 1

    for group in groups:
        if config.nontransfer_noise_rate and rng.random() < config.nontransfer_noise_rate:
            emit_noise()
            noise_records += 1
        if config.failed_noise_rate and rng.random() < config.failed_noise_rate and all_accounts:
            sender = rng.choice(all_accounts)
            recipient = rng.choice(all_accounts)
            amount = _draw_amount(
                rng, lo_log, span, config.min_amount_planck, config.max_amount_planck
            )
            emit_transfer(sender, recipient, amount, success=False)
            failed_records += 1
        if config.zero_amount_noise_rate and rng.random() < config.zero_amount_noise_rate and all_accounts:
            sender = rng.choice(all_accounts)
            recipient = rng.choice(all_accounts)
            emit_transfer(sender, recipient, 0)
            zero_amount_records += 1
        for sender, recipient, amount in group:
            emit_transfer(sender, recipient, amount)

    # user clusters: mesh components plus a singleton for every other
    # user that actually transacted
    component_size: dict[str, int] = {}
    for node in mesh_parent:
        root = mesh_find(node)
        component_size[root] = component_size.get(root, 0) + 1
    singles = sum(
        1
        for user in tally.accounts
        if user.startswith("U") and user not in mesh_parent
    )
    sizes = sorted(component_size.values(), reverse=True) + [1] * singles

    labels = {}
    for planted in exchanges:
        for main in planted.mains:
            labels[main] = planted.label

    return GroundTruth(
        labels=labels,
        exchanges=exchanges,
        traders=sorted(traders),
        organic_users=sorted(organic),
        category_totals=tally.categories,
        transfer_count=tally.transfer_count,
        total_flux=tally.total_flux,
        record_count=emitted,
        noise_records=noise_records,
        failed_records=failed_records,
        zero_amount_records=zero_amount_records,
        transacting_accounts=len(tally.accounts),
        aggregated_edge_count=len(tally.pairs),
        user_component_sizes=sizes,
        per_exchange_intra=tally.per_exchange,
        inter_exchange_matrix=tally.inter_matrix,
    )


def generate(config: ScenarioConfig) -> tuple[list[str], GroundTruth]:
    """Generate the whole record stream in memory."""
    lines: list[str] = []
    truth = _generate(config, lines.append)
    return lines, truth


def generate_to_file(config: ScenarioConfig, path: str) -> GroundTruth:
    """Stream the record stream to a file, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write

        def emit(line: str) -> None:
            write(line)
            write("\n")

        return _generate(config, emit)
