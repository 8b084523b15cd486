"""Record parsing, amount conversion and drop reasons."""

import json

import pytest
from hypothesis import given, strategies as st

from fluxgraph.errors import MalformedRecordError, MissingFieldError
from fluxgraph.records import (
    PLANCK_PER_DOT,
    IngestSummary,
    TransferRecord,
    dot_to_planck,
    ingest,
    is_transfer_call,
    parse_record,
    read_transfers,
    transfer_line,
    write_transfers,
)


def record_line(**overrides) -> str:
    base = {
        "block_number": 100,
        "timestamp": 1_600_000_000_000,
        "module_id": "Balances",
        "call_id": "transfer",
        "signed": True,
        "success": True,
        "sender": "alice",
        "recipient": "bob",
        "amount_planck": 42,
    }
    base.update(overrides)
    return json.dumps({k: v for k, v in base.items() if v is not ...})


class TestDotToPlanck:
    def test_known_values(self):
        # independently derived: value * 10^10, exact
        cases = {
            "1": 10_000_000_000,
            "1.5": 15_000_000_000,
            "0.0000000001": 1,
            "0": 0,
            "123456789.9999999999": 1_234_567_899_999_999_999,
            "1E2": 100 * PLANCK_PER_DOT,
        }
        for text, want in cases.items():
            assert dot_to_planck(text) == want

    def test_sub_planck_rejected(self):
        with pytest.raises(MalformedRecordError):
            dot_to_planck("0.00000000015")

    def test_negative_rejected(self):
        with pytest.raises(MalformedRecordError):
            dot_to_planck("-1")

    def test_garbage_rejected(self):
        with pytest.raises(MalformedRecordError):
            dot_to_planck("12.5 DOT")

    @given(st.integers(min_value=0, max_value=10**19))
    def test_round_trip_from_planck(self, planck):
        # rendering planck as a DOT decimal and converting back is lossless
        text = f"{planck // PLANCK_PER_DOT}.{planck % PLANCK_PER_DOT:010d}"
        assert dot_to_planck(text) == planck


class TestIsTransferCall:
    def test_variants(self):
        assert is_transfer_call("Balances", "transfer")
        assert is_transfer_call("Balances", "transfer_keep_alive")
        assert is_transfer_call("Balances", "transfer_all")
        assert is_transfer_call("Balances", "Transfer_Keep_Alive")

    def test_module_match_is_exact(self):
        assert not is_transfer_call("balances", "transfer")
        assert not is_transfer_call("Staking", "transfer")

    def test_other_calls(self):
        assert not is_transfer_call("Balances", "force_transfer")
        assert not is_transfer_call("Balances", "set_balance")


class TestParse:
    def test_full_record(self):
        assert parse_record(record_line()) == TransferRecord(
            "alice", "bob", 42, 100, 1_600_000_000_000)

    def test_amount_dot_converted(self):
        t = parse_record(record_line(amount_planck=..., amount_dot="2.5"))
        assert t.amount_planck == 25_000_000_000

    def test_both_amount_fields_rejected(self):
        with pytest.raises(MalformedRecordError):
            parse_record(record_line(amount_dot="1"))

    def test_non_transfer_without_amount(self):
        line = record_line(module_id="Staking", call_id="bond",
                           sender=..., recipient=..., amount_planck=...)
        assert parse_record(line) == "non_transfer"

    def test_transfer_missing_endpoint(self):
        with pytest.raises(MissingFieldError):
            parse_record(record_line(recipient=...))

    def test_transfer_missing_amount(self):
        with pytest.raises(MissingFieldError):
            parse_record(record_line(amount_planck=...))

    def test_missing_mandatory_field(self):
        with pytest.raises(MissingFieldError):
            parse_record(record_line(signed=...))

    def test_invalid_json_carries_line_number(self):
        with pytest.raises(MalformedRecordError) as exc:
            parse_record("{oops", line_no=7)
        assert exc.value.line_no == 7
        assert "line 7" in str(exc.value)

    def test_non_object_rejected(self):
        with pytest.raises(MalformedRecordError):
            parse_record("[1, 2]")

    def test_bool_is_not_an_integer(self):
        with pytest.raises(MalformedRecordError):
            parse_record(record_line(block_number=True))

    def test_wrong_types_rejected(self):
        for overrides in (
            {"signed": "yes"},
            {"block_number": "100"},
            {"sender": ""},
            {"amount_planck": -5},
            {"block_number": -1},
        ):
            with pytest.raises(MalformedRecordError):
                parse_record(record_line(**overrides))

    def test_unknown_fields_ignored(self):
        assert parse_record(record_line(fee=12, era="mortal")).amount_planck == 42


def _reference_take(obj: dict, key: str, kind, line_no) -> object:
    if key not in obj or obj[key] is None:
        raise MissingFieldError(key, line_no=line_no)
    value = obj[key]
    # bool is an int subclass; reject it where an actual integer is required
    if kind is int and isinstance(value, bool):
        raise MalformedRecordError(f"field '{key}' must be an integer", line_no)
    if not isinstance(value, kind):
        raise MalformedRecordError(
            f"field '{key}' has type {type(value).__name__}", line_no
        )
    return value


def reference_parse_record(
    line: str, line_no: int | None = None, start_block: int = 0
) -> TransferRecord | str:
    """parse_record as it was with one isinstance check per field, kept
    verbatim to pin the inlined checks to the same verdicts and messages."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON: {exc.msg}", line_no) from None
    if not isinstance(obj, dict):
        raise MalformedRecordError("record is not an object", line_no)

    block_number = _reference_take(obj, "block_number", int, line_no)
    if block_number < 0:
        raise MalformedRecordError("block_number must be non-negative", line_no)
    timestamp = _reference_take(obj, "timestamp", int, line_no)
    module_id = _reference_take(obj, "module_id", str, line_no)
    call_id = _reference_take(obj, "call_id", str, line_no)
    signed = _reference_take(obj, "signed", bool, line_no)
    success = _reference_take(obj, "success", bool, line_no)

    sender = obj.get("sender")
    recipient = obj.get("recipient")
    for name, value in (("sender", sender), ("recipient", recipient)):
        if value is not None and (not isinstance(value, str) or not value):
            raise MalformedRecordError(f"field '{name}' must be a non-empty string", line_no)

    has_planck = obj.get("amount_planck") is not None
    has_dot = obj.get("amount_dot") is not None
    if has_planck and has_dot:
        raise MalformedRecordError(
            "amount_planck and amount_dot are mutually exclusive", line_no
        )
    if has_planck:
        amount = _reference_take(obj, "amount_planck", int, line_no)
        if amount < 0:
            raise MalformedRecordError("amount_planck must be non-negative", line_no)
    elif has_dot:
        raw = obj["amount_dot"]
        if not isinstance(raw, str):
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


def _outcome(parse, line: str):
    try:
        return "returned", parse(line, 7, 50)
    except (MalformedRecordError, RecursionError) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "line_no", None)


ADVERSARIAL_LINES = {
    "valid": record_line(),
    "valid_dot": record_line(amount_planck=..., amount_dot="2.5"),
    "bool_for_int_block": record_line(block_number=True),
    "bool_for_int_timestamp": record_line(timestamp=False),
    "bool_for_int_amount": record_line(amount_planck=True),
    "int_for_bool_signed": record_line(signed=1),
    "int_for_bool_success": record_line(success=0),
    "float_block": record_line(block_number=100.0),
    "string_timestamp": record_line(timestamp="1"),
    "int_module": record_line(module_id=3),
    "list_call": record_line(call_id=["transfer"]),
    "null_block": record_line(block_number=None),
    "null_module": record_line(module_id=None),
    "null_signed": record_line(signed=None),
    "null_sender": record_line(sender=None),
    "null_amount": record_line(amount_planck=None),
    "missing_block": record_line(block_number=...),
    "missing_timestamp": record_line(timestamp=...),
    "missing_call": record_line(call_id=...),
    "missing_success": record_line(success=...),
    "missing_recipient": record_line(recipient=...),
    "missing_amount": record_line(amount_planck=...),
    "negative_block": record_line(block_number=-1),
    "negative_amount": record_line(amount_planck=-5),
    "both_amounts": record_line(amount_dot="1.5"),
    "empty_sender": record_line(sender=""),
    "int_sender": record_line(sender=5),
    "empty_recipient": record_line(recipient=""),
    "non_string_dot": record_line(amount_planck=..., amount_dot=1.5),
    "sub_planck_dot": record_line(amount_planck=..., amount_dot="0.00000000001"),
    "bad_decimal_dot": record_line(amount_planck=..., amount_dot="1.2.3"),
    "negative_dot": record_line(amount_planck=..., amount_dot="-1"),
    "zero_amount": record_line(amount_planck=0),
    "below_start": record_line(block_number=49),
    "non_transfer": record_line(module_id="Staking", call_id="bond", sender=...,
                                recipient=..., amount_planck=...),
    "unsigned": record_line(signed=False),
    "failed": record_line(success=False),
    "mixed_case_call": record_line(call_id="Transfer_Keep_Alive"),
    "huge_amount": record_line(amount_planck=10**40),
    "unicode_names": record_line(sender="ünï\u2028", recipient="😀"),
    "bom": "\ufeff" + record_line(),
    "two_objects": record_line() + record_line(),
    "two_objects_spaced": record_line() + " " + record_line(),
    "trailing_garbage": record_line() + " x",
    "nan_amount": record_line().replace('"amount_planck": 42', '"amount_planck": NaN'),
    "infinity_block": record_line().replace('"block_number": 100', '"block_number": Infinity'),
    "duplicate_keys": record_line()[:-1] + ', "amount_planck": 7, "signed": 1}',
    "duplicate_keys_fixed": record_line(signed=1)[:-1] + ', "signed": true}',
    "deep_nesting_ok": record_line()[:-1] + ', "k": ' + "[" * 50 + "]" * 50 + "}",
    "deep_nesting": record_line()[:-1] + ', "k": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "split_object": record_line()[:40],
    "not_an_object": "[1, 2]",
    "scalar": "42",
    "null": "null",
    "empty_object": "{}",
}


@pytest.mark.parametrize("line", ADVERSARIAL_LINES.values(), ids=ADVERSARIAL_LINES.keys())
def test_parse_matches_reference(line):
    assert _outcome(parse_record, line) == _outcome(reference_parse_record, line)


class TestFilter:
    def test_kept(self):
        t = parse_record(record_line())
        assert t == TransferRecord("alice", "bob", 42, 100, 1_600_000_000_000)

    def test_drop_reasons(self):
        dropped = [
            (record_line(module_id="Staking", call_id="bond",
                         sender=..., recipient=..., amount_planck=...), "non_transfer"),
            (record_line(call_id="force_transfer"), "non_transfer"),
            (record_line(signed=False), "unsigned"),
            (record_line(success=False), "failed"),
            (record_line(amount_planck=0), "zero_amount"),
            (record_line(block_number=99), "below_start_block"),
        ]
        for line, reason in dropped:
            assert parse_record(line, start_block=100) == reason

    def test_transfer_record_validates(self):
        with pytest.raises(ValueError):
            TransferRecord("a", "b", 0, 1, 1)
        with pytest.raises(ValueError):
            TransferRecord("", "b", 1, 1, 1)


class TestIngest:
    def test_counts_add_up_on_mixed_stream(self):
        lines = [
            record_line(),
            "",
            record_line(module_id="Staking", call_id="bond",
                        sender=..., recipient=..., amount_planck=...),
            record_line(amount_planck=0),
            record_line(block_number=5),
            record_line(success=False),
            record_line(signed=False, success=False),
            record_line(block_number=6, amount_planck=0),
        ]
        summary = IngestSummary()
        kept = list(ingest(lines, start_block=50, summary=summary))
        assert [t.sender for t in kept] == ["alice"]
        assert summary.parsed == 7  # blank line is not a record
        assert summary.kept == 1
        assert summary.dropped == 6
        assert summary.kept + summary.dropped == summary.parsed
        # the first rule a record breaks is its one drop reason
        assert (summary.below_start_block, summary.non_transfer, summary.unsigned,
                summary.failed, summary.zero_amount) == (2, 1, 1, 1, 1)

    def test_start_block_boundary(self):
        lines = [record_line(block_number=99), record_line(block_number=100)]
        kept = list(ingest(lines, start_block=100))
        assert [t.block_number for t in kept] == [100]

    def test_on_error_fail_raises_with_line_number(self):
        lines = [record_line(), "not json", record_line()]
        with pytest.raises(MalformedRecordError) as exc:
            list(ingest(lines))
        assert exc.value.line_no == 2

    def test_on_error_skip_counts(self):
        lines = [record_line(), "not json", record_line(signed="maybe"),
                 record_line()]
        summary = IngestSummary()
        kept = list(ingest(lines, on_error="skip", summary=summary))
        assert len(kept) == 2
        assert summary.error_lines == 2
        assert summary.parsed == 2

    def test_malformed_record_below_start_block(self):
        lines = [record_line(), record_line(block_number=5, amount_planck="7")]
        with pytest.raises(MalformedRecordError) as exc:
            list(ingest(lines, start_block=50))
        assert exc.value.line_no == 2
        summary = IngestSummary()
        kept = list(ingest(lines, start_block=50, on_error="skip", summary=summary))
        assert len(kept) == 1
        assert (summary.error_lines, summary.parsed, summary.below_start_block) == (1, 1, 0)

    def test_bad_on_error_value(self):
        from fluxgraph.errors import ConfigError
        with pytest.raises(ConfigError):
            list(ingest([], on_error="ignore"))

    @given(st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=10**12),
            st.booleans(),
            st.booleans(),
        ),
        max_size=60,
    ))
    def test_kept_plus_dropped_equals_parsed(self, rows):
        lines = [
            record_line(sender=s, recipient=r, amount_planck=a,
                        signed=signed, success=success)
            for s, r, a, signed, success in rows
        ]
        summary = IngestSummary()
        kept = list(ingest(lines, summary=summary))
        assert summary.parsed == len(rows)
        assert summary.kept + summary.dropped == summary.parsed
        assert summary.kept == len(kept)
        # independent oracle for the kept count
        want = sum(1 for _s, _r, a, sig, suc in rows if a > 0 and sig and suc)
        assert summary.kept == want


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        transfers = [
            TransferRecord("alice", "bob", 42, 100, 1_000),
            TransferRecord('we"ird', "bob", 7, 101, 2_000),
            TransferRecord("x", "x", 10**18, 102, 3_000),
        ]
        path = tmp_path / "transfers.jsonl"
        assert write_transfers(str(path), transfers) == 3
        assert list(read_transfers(str(path))) == transfers

    def test_transfer_line_is_valid_json(self):
        t = TransferRecord("a\\b", 'c"d', 5, 1, 2)
        obj = json.loads(transfer_line(t))
        assert obj["sender"] == "a\\b"
        assert obj["recipient"] == 'c"d'
