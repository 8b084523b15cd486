"""Ledger record parsing and transfer extraction.

Input is line-oriented: one JSON object per line, UTF-8. Every record
carries block_number, timestamp (milliseconds), module_id, call_id,
signed and success. Transfer-shaped records additionally carry sender,
recipient and an amount, either as amount_planck (integer) or as
amount_dot (decimal string, converted exactly; 1 DOT = 10^10 Planck).
Unknown fields are ignored so richer exports can be fed in unchanged.

Only successful, signed balance transfers survive filtering; everything
else (staking, governance, failed or unsigned calls, zero amounts) is
dropped and counted by reason. All amounts stay integer Planck end to end.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .errors import ConfigError, MalformedRecordError, MissingFieldError
from .tables import atomic_output

PLANCK_PER_DOT = 10**10

BALANCES_MODULE = "Balances"
TRANSFER_CALL_IDS = frozenset({"transfer", "transfer_keep_alive", "transfer_all"})

# First block of the account-based transfer era on Polkadot-shaped data;
# synthetic ledgers start at 0.
POLKADOT_TRANSFER_START_BLOCK = 1_205_128


@dataclass(slots=True)
class TransferRecord:
    """A successful user-initiated balance transfer."""

    sender: str
    recipient: str
    amount_planck: int
    block_number: int
    timestamp: int

    def __post_init__(self):
        if self.amount_planck <= 0:
            raise ValueError("transfer amount must be positive")
        if not self.sender or not self.recipient:
            raise ValueError("transfer endpoints must be non-empty")


# Why a well-formed record is dropped, in the order parse_record tests them.
DROP_REASONS = ("below_start_block", "non_transfer", "unsigned", "failed", "zero_amount")


@dataclass(slots=True)
class IngestSummary:
    """Counts for one ingest run. A dropped record counts under its drop
    reason, so kept + dropped always equals parsed."""

    parsed: int = 0
    kept: int = 0
    error_lines: int = 0
    below_start_block: int = 0
    non_transfer: int = 0
    unsigned: int = 0
    failed: int = 0
    zero_amount: int = 0

    @property
    def dropped(self) -> int:
        return sum(getattr(self, reason) for reason in DROP_REASONS)

    def as_dict(self) -> dict:
        return dict(asdict(self), dropped=self.dropped)


def is_transfer_call(module_id: str, call_id: str) -> bool:
    """True when the module/call pair names a user balance transfer.

    Module match is exact; call match is case-insensitive because
    upstream decoders disagree on capitalisation.
    """
    return module_id == BALANCES_MODULE and call_id.lower() in TRANSFER_CALL_IDS


def dot_to_planck(text: str) -> int:
    """Convert a decimal DOT string ("1.5") to integer Planck, exactly."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise MalformedRecordError(f"invalid decimal amount {text!r}") from None
    scaled = value * PLANCK_PER_DOT
    planck = int(scaled)
    if planck != scaled:
        raise MalformedRecordError(f"amount {text!r} is below Planck resolution")
    if planck < 0:
        raise MalformedRecordError(f"amount {text!r} is negative")
    return planck


def _field_error(obj: dict, key: str, kind, line_no) -> MalformedRecordError:
    """The error for a field that failed its type check."""
    value = obj.get(key)
    if value is None:
        return MissingFieldError(key, line_no=line_no)
    # bool is an int subclass; reject it where an actual integer is required
    if kind is int and type(value) is bool:
        return MalformedRecordError(f"field '{key}' must be an integer", line_no)
    return MalformedRecordError(f"field '{key}' has type {type(value).__name__}", line_no)


def parse_record(
    line: str, line_no: int | None = None, start_block: int = 0
) -> TransferRecord | str:
    """Parse one record line into the kept transfer, or why it is dropped.

    Every field is validated first, so a dropped record must still be
    well-formed: MalformedRecordError (with the line number when given)
    on syntax errors, bad field types, conflicting amount fields or a
    transfer-shaped record lacking its endpoints or amount. The drop
    reason is the first of DROP_REASONS the record meets: a block below
    start_block; not a Balances transfer call; unsigned; failed; a zero
    amount.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON: {exc.msg}", line_no) from None
    if type(obj) is not dict:
        raise MalformedRecordError("record is not an object", line_no)

    # json.loads yields exactly int, str and bool, so type() is the check
    get = obj.get
    block_number = get("block_number")
    if type(block_number) is not int:
        raise _field_error(obj, "block_number", int, line_no)
    if block_number < 0:
        raise MalformedRecordError("block_number must be non-negative", line_no)
    timestamp = get("timestamp")
    if type(timestamp) is not int:
        raise _field_error(obj, "timestamp", int, line_no)
    module_id = get("module_id")
    if type(module_id) is not str:
        raise _field_error(obj, "module_id", str, line_no)
    call_id = get("call_id")
    if type(call_id) is not str:
        raise _field_error(obj, "call_id", str, line_no)
    signed = get("signed")
    if type(signed) is not bool:
        raise _field_error(obj, "signed", bool, line_no)
    success = get("success")
    if type(success) is not bool:
        raise _field_error(obj, "success", bool, line_no)

    sender = get("sender")
    recipient = get("recipient")
    if sender is not None and (type(sender) is not str or not sender):
        raise MalformedRecordError("field 'sender' must be a non-empty string", line_no)
    if recipient is not None and (type(recipient) is not str or not recipient):
        raise MalformedRecordError("field 'recipient' must be a non-empty string", line_no)

    amount = get("amount_planck")
    raw = get("amount_dot")
    has_planck = amount is not None
    has_dot = raw is not None
    if has_planck and has_dot:
        raise MalformedRecordError(
            "amount_planck and amount_dot are mutually exclusive", line_no
        )
    if has_planck:
        if type(amount) is not int:
            raise _field_error(obj, "amount_planck", int, line_no)
        if amount < 0:
            raise MalformedRecordError("amount_planck must be non-negative", line_no)
    elif has_dot:
        if type(raw) is not str:
            raise MalformedRecordError("amount_dot must be a decimal string", line_no)
        try:
            amount = dot_to_planck(raw)
        except MalformedRecordError as exc:
            raise MalformedRecordError(exc.reason, line_no) from None
    else:
        amount = 0

    transfer = is_transfer_call(module_id, call_id)
    if transfer:
        # transfer-shaped records must name both endpoints and an amount
        if sender is None:
            raise MissingFieldError("sender", line_no=line_no)
        if recipient is None:
            raise MissingFieldError("recipient", line_no=line_no)
        if not has_planck and not has_dot:
            raise MissingFieldError("amount_planck", line_no=line_no)

    if block_number < start_block:
        return "below_start_block"
    if not transfer:
        return "non_transfer"
    if not signed:
        return "unsigned"
    if not success:
        return "failed"
    if amount == 0:
        return "zero_amount"
    return TransferRecord(sender, recipient, amount, block_number, timestamp)


def ingest(
    lines: Iterable[str],
    start_block: int = 0,
    on_error: str = "fail",
    summary: IngestSummary | None = None,
) -> Iterator[TransferRecord]:
    """Yield kept transfers from an iterable of record lines, in order.

    Records below start_block are dropped. on_error is "fail" (raise on
    the first malformed line, with its line number) or "skip" (count the
    line and continue). When lines is an open file, errors name its
    path, and bytes that are not UTF-8 raise MalformedRecordError under
    either mode. Pass a summary to observe counts, per drop reason; it
    is complete once iteration finishes. Blank lines are ignored.
    """
    if on_error not in ("fail", "skip"):
        raise ConfigError(f"on_error must be 'fail' or 'skip', got {on_error!r}")
    s = summary if summary is not None else IngestSummary()
    path = getattr(lines, "name", None)
    line_no = 0
    try:
        for line_no, line in enumerate(lines, 1):
            if not line or line.isspace():
                continue
            try:
                kept = parse_record(line, line_no, start_block)
            except MalformedRecordError as exc:
                if on_error == "fail":
                    exc.path = path
                    raise
                s.error_lines += 1
                continue
            s.parsed += 1
            if isinstance(kept, str):
                setattr(s, kept, getattr(s, kept) + 1)
                continue
            s.kept += 1
            yield kept
    except UnicodeDecodeError as exc:
        # text is decoded in chunks, so the bad byte may lie a few lines on
        raise MalformedRecordError(
            f"not UTF-8 at or after this line ({exc.reason})", line_no + 1, path
        ) from None


def transfer_line(t: TransferRecord) -> str:
    """Render one kept transfer as a record line (without the newline).
    Endpoints are escaped exactly as json.dumps escapes a string."""
    return (
        '{"block_number": %d, "timestamp": %d, "module_id": "Balances", '
        '"call_id": "transfer", "signed": true, "success": true, '
        '"sender": %s, "recipient": %s, "amount_planck": %d}'
        % (
            t.block_number,
            t.timestamp,
            encode_basestring_ascii(t.sender),
            encode_basestring_ascii(t.recipient),
            t.amount_planck,
        )
    )


def write_transfers(path: str, transfers: Iterable[TransferRecord]) -> int:
    """Write transfers in the same line-oriented form; returns the count."""
    n = 0
    with atomic_output(path) as fh:
        for t in transfers:
            fh.write(transfer_line(t) + "\n")
            n += 1
    return n


def read_transfers(path: str) -> Iterator[TransferRecord]:
    """Read back a transfer file written by write_transfers (or any ledger
    file containing only kept transfers)."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from ingest(fh)
