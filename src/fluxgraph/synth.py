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
from dataclasses import MISSING, asdict, dataclass, field, fields as dataclass_fields
from fractions import Fraction
from itertools import compress
from typing import Callable

from .analytics import CATEGORY_ORDER
from .errors import ConfigError, check_type
from .exchanges import DetectionParams, LABELS_HEADER
from .tables import atomic_output, write_json, write_table

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
        _check_types(self, "scenario key ")
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
            _check_types(spec, f"exchange {i}: key ")
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


def _check_types(config, prefix: str) -> None:
    """Raise ConfigError for a field of the dataclass instance config whose
    value fails check_type against the field's default."""
    for f in dataclass_fields(config):
        default = f.default_factory() if f.default is MISSING else f.default
        check_type(prefix + f.name, getattr(config, f.name), default)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON. An unknown key, an exchange
    entry that is not an object, or, through validate(), a value of the
    wrong type is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    kwargs = dict(data)
    exchanges = kwargs.pop("exchanges", [])
    check_type("scenario key exchanges", exchanges, [])
    try:
        specs = [ExchangeSpec(**raw) for raw in exchanges]
        config = ScenarioConfig(exchanges=specs, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"scenario config: {exc}") from None
    config.validate()
    return config


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        return asdict(self)


GROUND_TRUTH_FILE = "ground_truth.json"
LABELS_FILE = "labels.csv"


def save_ground_truth(truth: GroundTruth, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    write_json(os.path.join(directory, GROUND_TRUTH_FILE), truth.as_dict())
    write_table(os.path.join(directory, LABELS_FILE), LABELS_HEADER,
                sorted(truth.labels.items()))


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
    """Running ground-truth bookkeeping over planned transfers. A
    transfer's category is one of analytics.CATEGORY_ORDER; add() raises
    KeyError for any other name."""

    def __init__(self):
        self.categories = {cat: {"tx_count": 0, "flux": 0} for cat in CATEGORY_ORDER}
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

    Returns (groups, tally, exchanges, users, traders, organic,
    mesh_sizes, draw). A group is a tuple of transfer tuples that stay
    adjacent through the final shuffle, so a deposit and its forward
    never split. users holds the user names in id order; traders and
    organic split a shuffle of them. mesh_sizes are the planned sizes of
    the organic mesh components, each connected by construction. draw()
    draws one amount from rng.
    """
    lo_log = math.log10(config.min_amount_planck)
    span = math.log10(config.max_amount_planck) - lo_log
    draw = lambda: _draw_amount(
        rng, lo_log, span, config.min_amount_planck, config.max_amount_planck
    )

    users = [f"U{i:07d}" for i in range(config.user_count)]
    shuffled = users.copy()
    rng.shuffle(shuffled)
    trader_count = int(config.user_count * config.trader_fraction + 0.5)
    traders = shuffled[:trader_count]
    organic = shuffled[trader_count:]

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

    # organic user mesh: preferential attachment inside each component;
    # every newcomer links to an earlier member, so each is connected
    mesh_sizes: list[int] = []
    if config.mesh_edges_per_user > 0:
        mesh_sizes = _component_sizes(rng, len(organic), config.giant_fraction)
        cursor = 0
        for size in mesh_sizes:
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
                        edge = plan(newcomer, target, amount, "intra_user")
                    else:
                        edge = plan(target, newcomer, amount, "intra_user")
                    groups.append((edge,))
                    bag.append(target)
                bag.extend([newcomer] * want)

    # deposit ownership: traders first, then organic users, cycling
    customers_of: dict[str, list[str]] = {}
    pool_idx = 0
    for planted, spec in zip(exchanges, config.exchanges):
        customers: list[str] = []
        for i, deposit in enumerate(planted.deposits):
            owner = shuffled[pool_idx % len(shuffled)]
            pool_idx += 1
            main = planted.mains[i % len(planted.mains)]
            customers.append(owner)
            for _ in range(spec.deposit_rounds):
                amount = draw()
                pay_in = plan(owner, deposit, amount, "user_exchange")
                forward = plan(deposit, main, amount, "intra_exchange")
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
            groups.append((plan(main, target, amount, "user_exchange"),))

    # multi-main wallets exchange both ways so the cluster is connected
    for planted in exchanges:
        for j in range(1, len(planted.mains)):
            for src, dst in ((planted.mains[j - 1], planted.mains[j]),
                             (planted.mains[j], planted.mains[j - 1])):
                amount = draw()
                groups.append((plan(src, dst, amount, "intra_exchange"),))
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
            groups.append((plan(src, dst, amount, "inter_exchange"),))
            tally.add_inter(planted.label, peer.label, amount)

    # pattern noise: a misbehaving deposit either leaks to a random user
    # or a random user pays its main wallet directly, bypassing it
    if config.pattern_noise_rate > 0 and users:
        for planted in exchanges:
            for i, deposit in enumerate(planted.deposits):
                if rng.random() >= config.pattern_noise_rate:
                    continue
                amount = draw()
                if rng.random() < 0.5:
                    leak_to = rng.choice(shuffled)
                    groups.append(
                        (plan(deposit, leak_to, amount, "user_exchange"),)
                    )
                else:
                    main = planted.mains[i % len(planted.mains)]
                    payer = rng.choice(shuffled)
                    groups.append((plan(payer, main, amount, "user_exchange"),))

    rng.shuffle(groups)
    return groups, tally, exchanges, users, traders, organic, mesh_sizes, draw


def _degree_rank(degree: dict[str, int], account: str) -> int | None:
    """account's 1-based place in the ranking by descending degree, ties
    by ascending name, or None when it has no degree; counted without
    sorting every account."""
    own = degree.get(account)
    if own is None:
        return None
    above = sum(map(own.__lt__, degree.values()))
    tied = compress(degree, map(own.__eq__, degree.values()))
    return 1 + above + sum(map(account.__gt__, tied))


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

    for main in sorted(mains):
        rank = _degree_rank(degree, main)
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
    groups, tally, exchanges, users, traders, organic, mesh_sizes, draw = _plan(
        config, rng
    )
    if (
        config.validate_detectability
        and exchanges
        and config.pattern_noise_rate == 0.0
    ):
        _validate_detectability(config, groups, exchanges)

    # users in id order, then the exchanges' accounts; _plan is done with users
    all_accounts = users
    for planted in exchanges:
        all_accounts.extend(planted.mains)
        all_accounts.extend(planted.deposits)

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

    def emit_transfer(sender: str, recipient: str, amount: int, success: bool = True) -> None:
        nonlocal emitted
        block, ts = stamp()
        emit(
            f'{{"block_number": {block}, "timestamp": {ts}, '
            f'"module_id": "Balances", "call_id": "transfer", "signed": true, '
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
            emit_transfer(sender, recipient, draw(), success=False)
            failed_records += 1
        if config.zero_amount_noise_rate and rng.random() < config.zero_amount_noise_rate and all_accounts:
            sender = rng.choice(all_accounts)
            recipient = rng.choice(all_accounts)
            emit_transfer(sender, recipient, 0)
            zero_amount_records += 1
        for sender, recipient, amount in group:
            emit_transfer(sender, recipient, amount)

    # user clusters: the planned mesh components, which no other user-user
    # transfer joins, plus a singleton for every other user that transacted;
    # every mesh member transacted
    transacting_users = sum(1 for account in tally.accounts if account.startswith("U"))
    sizes = sorted(mesh_sizes, reverse=True) + [1] * (transacting_users - sum(mesh_sizes))

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
    with atomic_output(path) as fh:
        return _generate(config, lambda line: fh.write(line + "\n"))
