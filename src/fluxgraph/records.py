"""Ledger record parsing and transfer extraction.

Input is line-oriented: one JSON object per line, UTF-8. Every record
carries block_number, timestamp (milliseconds), module_id, call_id,
signed and success. Transfer-shaped records additionally carry sender,
recipient and an amount, either as amount_planck (integer) or as
amount_dot (decimal string, converted exactly; 1 DOT = 10^10 Planck).
An amount has at most MAX_AMOUNT_DIGITS digits in Planck. Unknown
fields are ignored so richer exports can be fed in unchanged.

Only successful, signed balance transfers survive filtering; everything
else (staking, governance, failed or unsigned calls, zero amounts) is
dropped and counted by reason. All amounts stay integer Planck end to end.

ingest_blocks reads a ledger file in line-aligned blocks, parsed by
two processes where the ledger spans at least two blocks; it yields
what the caller needs of each block's transfers, in file order. A
block of canonical lines is read by the block kernel, one finditer
pass with no record made; any other block by ingest().
parsed_blocks is that block engine, for any file of lines.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import struct
import tempfile
from array import array
from dataclasses import astuple, asdict, dataclass, fields
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .children import Child
from .errors import ConfigError, MalformedRecordError, MissingFieldError
from .tables import atomic_output

PLANCK_PER_DOT = 10**10

# Far above any real amount (all DOT ever issued is about 10^19 Planck),
# and far below the 4300 digits int() converts, so every flux sum and
# total the pipeline writes stays printable.
MAX_AMOUNT_DIGITS = 100
_AMOUNT_LIMIT = 10**MAX_AMOUNT_DIGITS

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

    def add(self, counts: tuple) -> None:
        """Add the counts of another summary, as astuple gives them."""
        for field, count in zip(fields(self), counts):
            setattr(self, field.name, getattr(self, field.name) + count)


def is_transfer_call(module_id: str, call_id: str) -> bool:
    """True when the module/call pair names a user balance transfer.

    Module match is exact; call match is case-insensitive because
    upstream decoders disagree on capitalisation.
    """
    # lower() only where the call id is not already one of them
    return module_id == BALANCES_MODULE and (
        call_id in TRANSFER_CALL_IDS or call_id.lower() in TRANSFER_CALL_IDS)


# Plain ASCII decimal notation: digits with an optional fraction and an
# optional exponent, signed so that a negative amount is reported as one.
# Decimal() alone would also read underscores, surrounding whitespace and
# non-ASCII digits.
_decimal_match = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?").fullmatch
_non_finite_match = re.compile(r"[+-]?(?:inf(?:inity)?|s?nan[0-9]*)", re.IGNORECASE).fullmatch


def dot_to_planck(text: str) -> int:
    """Convert a decimal DOT string ("1.5") to integer Planck, exactly.

    The text must be in plain ASCII decimal notation, and the result
    whole, non-negative and of at most MAX_AMOUNT_DIGITS digits.
    """
    if _decimal_match(text) is None:
        if _non_finite_match(text) is not None:
            raise MalformedRecordError(f"amount {text!r} is not a finite number")
        raise MalformedRecordError(f"invalid decimal amount {text!r}")
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise MalformedRecordError(f"invalid decimal amount {text!r}") from None
    if not value:
        return 0
    # integer arithmetic on the digits: Decimal arithmetic would round
    # to the context's 28 significant digits
    sign, digits, exponent = value.as_tuple()
    shift = exponent + 10  # the amount is digits * 10**shift Planck
    if shift < 0:
        if any(digits[shift:]):
            raise MalformedRecordError(f"amount {text!r} is below Planck resolution")
        digits, shift = digits[:shift], 0
    if sign:
        raise MalformedRecordError(f"amount {text!r} is negative")
    if len(digits) + shift > MAX_AMOUNT_DIGITS:
        raise MalformedRecordError(
            f"amount {text!r} has more than {MAX_AMOUNT_DIGITS} digits in Planck"
        )
    return int("".join(map(str, digits))) * 10**shift


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

    A line in the canonical layout (see _canonical_match) is read
    without json.loads, with the same outcome as the json path below.
    """
    m = _canonical_match(line)
    if m is not None:
        groups = m.groups()
        outcome = _canonical_outcome(groups, start_block)
        if outcome == "kept":
            return _canonical_record(groups)
        if outcome is not None:
            return outcome

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON: {exc.msg}", line_no) from None
    except ValueError:  # an integer literal longer than int() converts
        raise MalformedRecordError("invalid JSON: integer has too many digits", line_no) from None
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
        if amount >= _AMOUNT_LIMIT:
            raise MalformedRecordError(
                f"amount_planck has more than {MAX_AMOUNT_DIGITS} digits", line_no
            )
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


# The layout transfer_line writes and synth emits: these keys in this
# order, one space after each ',' and ':', and the last three only
# together. Each group matches only a valid value, so a matching line
# needs no further checks: an integer without leading zeros (only the
# timestamp may be negative) and of at most _FAST_DIGITS digits, far
# below int()'s limit and MAX_AMOUNT_DIGITS; a string without quote,
# backslash or control character, whose JSON value is its text; a
# non-empty endpoint. Any other layout takes parse_record's json path.
_FAST_DIGITS = 30
_NUMBER = "(?:0|[1-9][0-9]{0,%d})" % (_FAST_DIGITS - 1)
_TEXT = r'"([^"\\\x00-\x1f]*)"'
_ENDPOINT = r'"([^"\\\x00-\x1f]+)"'
_CANONICAL = (
    r'\{"block_number": (' + _NUMBER + '), "timestamp": (-?' + _NUMBER + '), '
    '"module_id": ' + _TEXT + ', "call_id": ' + _TEXT + ', '
    # "f" where signed or success is false, which makes no new string
    '"signed": (?:true|(f)alse), "success": (?:true|(f)alse)'
    # the optional part as a branch with an empty arm, which re matches
    # faster than a group with ?
    '(?:, "sender": ' + _ENDPOINT + ', "recipient": ' + _ENDPOINT + ', '
    '"amount_planck": (' + _NUMBER + r')|)\}'
)
_canonical_match = re.compile(_CANONICAL + r"\n?").fullmatch
# Each whole line of a text in the canonical layout, ending in a newline.
_canonical_lines = re.compile("^" + _CANONICAL + r"\n", re.MULTILINE).finditer


def _canonical_outcome(groups: tuple, start_block: int) -> Optional[str]:
    """The count a canonical line's record falls under, "kept" or its drop
    reason, as parse_record decides it from the groups of its match; None
    for a transfer call without endpoints, which the json path must read
    to raise its MissingFieldError."""
    block, _timestamp, module_id, call_id, unsigned, failed, sender, _recipient, amount = groups
    transfer = is_transfer_call(module_id, call_id)
    if sender is None and transfer:
        return None
    # a block number is never negative
    if start_block > 0 and int(block) < start_block:
        return "below_start_block"
    if not transfer:
        return "non_transfer"
    if unsigned:
        return "unsigned"
    if failed:
        return "failed"
    if amount == "0":
        return "zero_amount"
    return "kept"


def _canonical_record(groups: tuple) -> TransferRecord:
    """The transfer of a kept canonical line, from the groups of its match."""
    block, timestamp, _module, _call, _unsigned, _failed, sender, recipient, amount = groups
    return TransferRecord(sender, recipient, int(amount), int(block), int(timestamp))


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


# A block of transfers as graph.fold_rows folds it (see transfer_rows).
Rows = tuple[list[str], bytes, bytes, list[int]]


def transfer_rows(transfers: Iterable[TransferRecord]) -> Rows:
    """The transfers as graph.fold_rows folds them: their account names,
    each once, in order of first appearance, sender before recipient;
    the sender and the recipient of each as the index of its name, two
    array('q') columns as bytes; and the amounts."""
    endpoints, amounts = [], []
    for t in transfers:
        endpoints += t.sender, t.recipient
        amounts.append(t.amount_planck)
    return _local_rows(endpoints, amounts)


def _local_rows(endpoints: list[str], amounts: list[int]) -> Rows:
    """transfer_rows of the transfers whose senders and recipients
    alternate in endpoints."""
    local: dict[str, int] = {}
    ids = array("q", [local.setdefault(name, len(local)) for name in endpoints])
    return list(local), ids[0::2].tobytes(), ids[1::2].tobytes(), amounts


def transfer_text(transfers: Iterable[TransferRecord]) -> str:
    """The transfers as write_transfers writes them."""
    return "".join([transfer_line(t) + "\n" for t in transfers])


def _kept_rows(matches: list[re.Match], kept: list[tuple]) -> Rows:
    """transfer_rows of kept canonical lines, from their matches and the
    groups of each."""
    endpoints = [None] * (2 * len(kept))
    endpoints[0::2] = map(itemgetter(6), kept)
    endpoints[1::2] = map(itemgetter(7), kept)
    return _local_rows(endpoints, list(map(int, map(itemgetter(8), kept))))


def _kept_text(matches: list[re.Match], kept: list[tuple]) -> str:
    """transfer_text of kept canonical lines, from their matches and the
    groups of each. A line is copied where transfer_line would render
    it alike: its call is "transfer", its timestamp not -0, and its
    endpoints printable ASCII, which encode_basestring_ascii leaves as
    they are."""
    lines = []
    for m, groups in zip(matches, kept):
        line = m[0]
        if (groups[3] != "transfer" or groups[1] == "-0" or not line.isascii()
                or "\x7f" in line):
            line = transfer_line(_canonical_record(groups)) + "\n"
        lines.append(line)
    return "".join(lines)


# The renders the block kernel knows, each with its twin over kept
# canonical lines.
_KEPT_RENDER = {transfer_rows: _kept_rows, transfer_text: _kept_text}


# -- one file, parsed in blocks by two processes ------------------------

# A file is cut into blocks of at least this many bytes, each ending
# after a newline; one of at least two blocks is parsed by two processes.
BLOCK_BYTES = 1 << 20


def ingest_blocks(
    path: str,
    render: Callable[[Iterator[TransferRecord]], object],
    start_block: int = 0,
    on_error: str = "fail",
    summary: IngestSummary | None = None,
    waited: Callable[[float], None] | None = None,
) -> Iterator:
    """Yield render(kept transfers) for each block of the ledger file at
    path (see BLOCK_BYTES), in file order. render must return a
    marshal-able value; for transfer_rows and transfer_text, the block
    kernel renders a block of canonical lines without making a record
    (see _parse_block).

    The transfers, the counts in summary (complete once iteration
    finishes) and the first exception are those of ingest() over the
    file opened as UTF-8 text with universal newlines.

    Each block is decoded and filtered as a file of its own (see
    parsed_blocks, which gets waited). Where a block raises, the whole
    file is read again here, so that ingest()'s own exception surfaces.
    """
    if on_error not in ("fail", "skip"):
        raise ConfigError(f"on_error must be 'fail' or 'skip', got {on_error!r}")
    s = summary if summary is not None else IngestSummary()
    parse = functools.partial(_parse_block, render=render, start_block=start_block,
                              on_error=on_error)
    with open(path, "rb") as fh:
        with contextlib.closing(parsed_blocks(fh, parse, waited)) as results:
            for result in results:
                if result is None:
                    break
                s.add(result[0])
                yield result[1]
            else:
                return
    _raise_first_error(path, start_block, on_error)


def parsed_blocks(fh, parse: Callable, waited: Callable[[float], None] | None = None
                  ) -> Iterator:
    """Yield parse(fd, start, end), a marshal-able value or None for a
    block that failed, for each block of the open binary file fh from
    its offset on (see _blocks), in file order; fd is fh's descriptor.

    Where there are two blocks or more, this process takes block 0 and a
    forked child block 1; then each claims the next block whenever it is
    free, so the split balances itself. The child sends each result once
    parsed, waiting while its pipe is full (see children.PIPE_BYTES);
    waited, when given, gets the seconds spent waiting for them. A block
    the child does not send is parsed here, and so is every block where
    os.fork is missing or fails or the claims' file cannot be made.
    """
    fd = fh.fileno()
    blocks = _blocks(fh, fh.tell())
    try:
        claims = _Claims(len(blocks)) if len(blocks) >= 2 and hasattr(os, "fork") else None
    except OSError:  # no temporary file for the claims
        claims = None
    if claims is None:
        for block in blocks:
            yield parse(fd, *block)
        return
    child = None
    try:
        mine = claims.take()
        child = Child.start(functools.partial(
            _claim_blocks, claims, claims.take(), fd, blocks, parse))
        sent = child.items() if child is not None else iter(())
        done = 0  # blocks yielded
        while True:
            result = None if mine is None else parse(fd, *blocks[mine])
            # the blocks before this process's next are the child's
            for i in range(done, len(blocks) if mine is None else mine):
                # one that failed in the child, or that it did not send, is
                # parsed here; no name holds it while this process parses
                yield next(sent, None) or parse(fd, *blocks[i])
            if mine is None:
                break
            yield result
            del result  # not held while the next block is parsed
            done = mine + 1
            mine = claims.take()
    finally:
        if child is not None:
            # a child still parsing meets a closed pipe at its next send
            child.wait()
        claims.close()
    if waited is not None and child is not None:
        waited(child.waited)


def _blocks(fh, start: int = 0) -> list[tuple[int, int]]:
    """(start, end) byte offsets cutting the binary file fh, from offset
    start on, into blocks of at least BLOCK_BYTES, each ending after a
    newline, but the last; none where nothing follows start."""
    size = os.fstat(fh.fileno()).st_size
    if start >= size:
        return []
    starts = [start]
    while starts[-1] + BLOCK_BYTES < size:
        fh.seek(starts[-1] + BLOCK_BYTES - 1)
        fh.readline()
        if fh.tell() >= size:
            break
        starts.append(fh.tell())
    return list(zip(starts, starts[1:] + [size]))


def _parse_block(fd: int, start: int, end: int, render, start_block: int, on_error: str):
    """(counts, rendered) of the bytes start:end of the file fd, read as a
    ledger of their own, or None where ingest() raised over them.

    Where render is one the block kernel knows (see _KEPT_RENDER) and
    the block is canonical (see _canonical_block), its twin renders the
    kernel's kept lines; any other block goes through ingest() whole.
    """
    data = os.pread(fd, end - start, start)
    kept_render = _KEPT_RENDER.get(render)
    block = None if kept_render is None else _canonical_block(data, start_block)
    if block is not None:
        counts, matches, kept = block
        return counts, kept_render(matches, kept)
    counts = IngestSummary()
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
        try:
            rendered = render(ingest(text, start_block, on_error, counts))
        except MalformedRecordError:
            return None
    return astuple(counts), rendered


def _canonical_block(data: bytes, start_block: int) -> Optional[tuple[tuple, list, list]]:
    """(counts, the matches of the kept lines, the groups of each) of a
    block whose every line is in the canonical layout (see
    _canonical_match) and, but perhaps the last, ends in a newline, as
    ingest() would count them: one finditer pass, each match classified
    as parse_record classifies it. None where a line is not, such as a
    blank, a CRLF or a malformed line, where the bytes are not UTF-8, or
    where a line is a transfer call without endpoints."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n"):
        text += "\n"
    matches, kept, dropped = [], [], []
    for m in _canonical_lines(text):
        groups = m.groups()
        outcome = _canonical_outcome(groups, start_block)
        if outcome == "kept":
            matches.append(m)
            kept.append(groups)
        else:
            dropped.append(outcome)
    # each match is one whole line, so they cover the block where they
    # are as many as its lines
    if None in dropped or len(kept) + len(dropped) != text.count("\n"):
        return None
    counts = IngestSummary(parsed=len(kept) + len(dropped), kept=len(kept),
                           **{reason: dropped.count(reason) for reason in DROP_REASONS})
    return astuple(counts), matches, kept


def _raise_first_error(path: str, start_block: int, on_error: str):
    with open(path, "r", encoding="utf-8") as fh:
        for _ in ingest(fh, start_block, on_error):
            pass
    raise RuntimeError(f"{path}: a block raised where the whole ledger did not")


def _claim_blocks(claims: "_Claims", i: int, fd: int, blocks, parse) -> Iterator:
    """The child's part: the result of block i, then of each block it
    claims in turn. Stops after a block that failed. Where the parent
    has gone, the next send meets a closed pipe, and the child leaves."""
    while i is not None:
        result = parse(fd, *blocks[i])
        yield result
        if result is None:
            break
        i = claims.take()


_COUNTER = struct.Struct("q")


class _Claims:
    """Block indices 0..count-1, claimed in order by this process and a
    child it forks, through a counter in an unnamed temporary file under
    a POSIX record lock. The lock belongs to a process, not to a
    descriptor, so the two exclude each other through the one the child
    inherits, and the kernel frees it when its holder dies."""

    def __init__(self, count: int):
        import fcntl  # present wherever os.fork is
        self._count, self._fcntl = count, fcntl
        self._file = tempfile.TemporaryFile()
        try:
            os.pwrite(self._file.fileno(), _COUNTER.pack(0), 0)
        except OSError:  # no room for the counter
            self._file.close()
            raise

    def take(self) -> Optional[int]:
        """Claim the next block; None when none is left."""
        fd, fcntl = self._file.fileno(), self._fcntl
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            i = _COUNTER.unpack(os.pread(fd, _COUNTER.size, 0))[0]
            if i >= self._count:
                return None
            os.pwrite(fd, _COUNTER.pack(i + 1), 0)
            return i
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)

    def close(self) -> None:
        self._file.close()
