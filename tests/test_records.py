"""Record parsing, amount conversion and drop reasons."""

import json
import os
import signal
import struct
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fluxgraph import records
from fluxgraph.errors import MalformedRecordError, MissingFieldError
from fluxgraph.records import (
    MAX_AMOUNT_DIGITS,
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

    def test_exact_beyond_decimal_context_precision(self):
        # Decimal arithmetic rounds to 28 significant digits
        assert (dot_to_planck("12345678901234567890.1234567891")
                == 123456789012345678901234567891)
        for text in ("1." + "0" * 40 + "1", "1e-99999999"):
            with pytest.raises(MalformedRecordError, match="below Planck resolution"):
                dot_to_planck(text)

    def test_exponent_past_decimal_range(self):
        # the plain notation matches, but Decimal() cannot hold the exponent
        with pytest.raises(MalformedRecordError, match="invalid decimal amount"):
            dot_to_planck("1e99999999999999999999999")

    def test_digit_bound(self):
        largest = "9" * (MAX_AMOUNT_DIGITS - 10)
        assert dot_to_planck(largest) == int(largest) * PLANCK_PER_DOT
        with pytest.raises(MalformedRecordError, match="more than"):
            dot_to_planck("1" + "0" * (MAX_AMOUNT_DIGITS - 10))

    @pytest.mark.parametrize("text", ["NaN", "-Infinity", "sNaN", "Infinity"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(MalformedRecordError, match="not a finite number"):
            dot_to_planck(text)

    @pytest.mark.parametrize("text", [
        "1_5", " 2.5\n", "\u0661", "2.5 ", "\uff11", "1e", ".", "", "+ 1", "0x10",
        "1,5", "--1", "1.2.3",
    ])
    def test_only_ascii_decimal_notation(self, text):
        # Decimal() alone reads the first five as 15, 2.5, 1, 2.5 and 1 DOT
        with pytest.raises(MalformedRecordError, match="invalid decimal amount"):
            dot_to_planck(text)

    def test_notation_forms(self):
        cases = {".5": 5 * 10**9, "1.": PLANCK_PER_DOT, "+3": 3 * PLANCK_PER_DOT,
                 "2E+1": 20 * PLANCK_PER_DOT, "25e-1": 25 * 10**9}
        for text, want in cases.items():
            assert dot_to_planck(text) == want

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "+Infinity", "NaN12", "snan"])
    def test_other_non_finite_spellings(self, text):
        with pytest.raises(MalformedRecordError, match="not a finite number"):
            dot_to_planck(text)

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


def _outcome(parse, line: str, start_block: int = 50):
    try:
        return "returned", parse(line, 7, start_block)
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


# Numbers int(), Decimal or the writers cannot handle: each exited 1
# with a traceback, even under on_error="skip", or was kept and then
# failed in transfer_line.
UNCONVERTIBLE_LINES = {
    "long_block": record_line().replace('"block_number": 100', '"block_number": ' + "1" * 4301),
    "long_unknown_field": record_line()[:-1] + ', "fee": ' + "7" * 5000 + "}",
    "dot_nan": record_line(amount_planck=..., amount_dot="NaN"),
    "dot_infinity": record_line(amount_planck=..., amount_dot="Infinity"),
    "dot_snan": record_line(amount_planck=..., amount_dot="sNaN"),
    "dot_overflow": record_line(amount_planck=..., amount_dot="1e1000000"),
    "dot_unprintable": record_line(amount_planck=..., amount_dot="1e5000"),
    "dot_slow": record_line(amount_planck=..., amount_dot="1e100000"),
    "planck_past_bound": record_line(amount_planck=10**MAX_AMOUNT_DIGITS),
}


@pytest.mark.parametrize("line", UNCONVERTIBLE_LINES.values(), ids=UNCONVERTIBLE_LINES.keys())
def test_unconvertible_numbers_are_malformed(line):
    with pytest.raises(MalformedRecordError) as exc:
        parse_record(line, 7)
    assert exc.value.line_no == 7
    summary = IngestSummary()
    kept = list(ingest([record_line(), line], on_error="skip", summary=summary))
    assert kept == [parse_record(record_line())]
    assert (summary.error_lines, summary.parsed) == (1, 1)


def test_amount_at_digit_bound_is_kept():
    amount = 10**MAX_AMOUNT_DIGITS - 1
    t = parse_record(record_line(amount_planck=amount))
    assert t.amount_planck == amount
    assert parse_record(transfer_line(t)) == t


def test_canonical_layouts_take_the_fast_path():
    """What transfer_line writes and synth emits is the layout the fast
    path reads; a change to either would silently lose it."""
    from fluxgraph.synth import ScenarioConfig, generate

    lines, _truth = generate(ScenarioConfig(seed=3, user_count=40,
                                            nontransfer_noise_rate=0.2,
                                            failed_noise_rate=0.2,
                                            zero_amount_noise_rate=0.2))
    lines.append(transfer_line(TransferRecord("a", "b", 7, 0, -3)))
    assert any("sender" not in line for line in lines)  # noise records
    assert all(records._canonical_match(line + "\n") for line in lines)


# -- the fast path against the reference, on canonical lines and near-misses

_FAST = records._FAST_DIGITS
_ODD_NUMBERS = st.one_of(
    st.integers(min_value=-10**6, max_value=-1).map(str),
    st.sampled_from([
        "-0", "00", "007", "-007", "1.0", "1e3", "true", "null", '"5"',
        "9" * (_FAST + 1), "1" + "0" * _FAST, "-" + "1" + "0" * _FAST,
    ]),
)
_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=10**15).map(str),
    st.sampled_from(["0", "9" * _FAST, "1" + "0" * (_FAST - 1)]),
)
_ODD_CHARS = st.sampled_from(['"', '\\', '\x00', '\x1f', '\t', '\n', '\x7f', 'ü', '😀'])


def _number(draw, odd, signed=False):
    if odd:
        return draw(_ODD_NUMBERS)
    text = draw(_NUMBERS)
    return "-" + text if signed and draw(st.booleans()) else text


def _boolean(draw, odd):
    return draw(st.sampled_from(["1", "0", "null", '"true"'] if odd else ["true", "false"]))


def _string(draw, odd, common):
    value = draw(st.sampled_from(common))
    if not odd:
        return '"' + value + '"'
    char = draw(_ODD_CHARS)
    value = draw(st.sampled_from([value + char, char + value, ""]))
    render = draw(st.sampled_from(["raw", "raw", "dumps", "dumps_utf8", "escaped"]))
    if render == "raw":
        return '"' + value + '"'
    if render == "escaped" and value:  # one character as a \uXXXX escape
        i = draw(st.integers(0, len(value) - 1))
        return (json.dumps(value[:i])[:-1] + "\\u%04x" % ord(value[i])
                + json.dumps(value[i + 1:])[1:])
    return json.dumps(value, ensure_ascii=render == "dumps")


_PARTS = ("block_number", "timestamp", "module_id", "call_id", "signed", "success",
          "sender", "recipient", "amount_planck", "tail", "layout", "end")


@st.composite
def record_lines(draw):
    """A record line in the canonical layout, or with one or two near
    misses of it: a field's value or its rendering, the endpoints-and-amount
    tail, the key order and spacing, the line end."""
    count = draw(st.sampled_from([0, 1, 1, 2]))
    odd = set(draw(st.lists(st.sampled_from(_PARTS), min_size=count, max_size=count)))
    fields = [
        ("block_number", _number(draw, "block_number" in odd)),
        ("timestamp", _number(draw, "timestamp" in odd, signed=True)),
        ("module_id", _string(draw, "module_id" in odd,
                              ["Balances"] * 4 + ["balances", "Staking", ""])),
        ("call_id", _string(draw, "call_id" in odd, ["transfer"] * 3 + [
            "Transfer_Keep_Alive", "transfer_all", "bond", "force_transfer"])),
        ("signed", _boolean(draw, "signed" in odd)),
        ("success", _boolean(draw, "success" in odd)),
    ]
    tail = [(key, _string(draw, key in odd, ["alice", "bob", "U0000001", "ünï"]))
            for key in ("sender", "recipient")]
    tail.append(("amount_planck", _number(draw, "amount_planck" in odd)))
    if "tail" in odd:
        del tail[draw(st.integers(0, 2))]
        fields += tail
    elif draw(st.integers(0, 3)):
        fields += tail
    comma, colon, end = ", ", ": ", draw(st.sampled_from(["", "\n"]))
    if "layout" in odd:
        fields = draw(st.permutations(fields)) if draw(st.booleans()) else fields
        comma = draw(st.sampled_from([", ", ",", " , ", ",  "]))
        colon = draw(st.sampled_from([": ", ":", " : "]))
        if draw(st.booleans()):
            fields = fields + [("fee", _number(draw, False))]
    if "end" in odd:
        end = draw(st.sampled_from(["\r\n", " ", "\n\n", "\t\n", " x"]))
    return "{" + comma.join(f'"{k}"{colon}{v}' for k, v in fields) + "}" + end


@settings(max_examples=600, deadline=None)
@given(record_lines(), st.integers(min_value=-2, max_value=10**15), st.booleans())
@example('{"block_number": 5, "timestamp": 1, "module_id": "Balances", "call_id": "transfer", '
         '"signed": true, "success": true}\n', 0, False)
@example(transfer_line(TransferRecord("a", "b", 5, -1, 0)), 0, False)
@example(transfer_line(TransferRecord("a", "b", 5, 100, 1)).replace(": 1,", ": -0,"), 100, False)
@example(transfer_line(TransferRecord("a", "b", 5, 100, 1)), 101, False)
@example(transfer_line(TransferRecord("a\tb", "c", 5, 100, 1)).replace("\\t", "\t"), 0, False)
def test_fast_path_matches_reference(line, start_block, near_block):
    block = _block_of(line)
    if near_block and block is not None:  # start_block on either side of it
        start_block = block + start_block % 3 - 1
    assert (_outcome(parse_record, line, start_block)
            == _outcome(reference_parse_record, line, start_block))


def _block_of(line: str):
    try:
        block = json.loads(line)["block_number"]
    except (ValueError, TypeError, KeyError):
        return None
    return block if type(block) is int else None


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


def _outcome_of(read):
    """What read() returns, or the type, text and line of what it raises."""
    try:
        return read()
    except MalformedRecordError as exc:
        return type(exc), str(exc), exc.line_no


_NAMES = ["alice", "bob", "ünï", "名前", "U0000001", "del\x7f"]
_CALLS = ["transfer", "transfer", "transfer_keep_alive", "Transfer_Keep_Alive", "TRANSFER_ALL"]


@st.composite
def ledger_lines(draw):
    """One line of a ledger, with its line end or, at times, none: a kept
    transfer in either layout, a dropped record, a blank line or a
    malformed one. The "kept" and "dropped" lines are in the canonical
    layout, so that a block of them takes the block kernel: their calls
    vary in name and case, their endpoints may be non-ASCII or hold a
    DEL, their timestamp may read -0 and their block number lies on
    either side of a start block of 50; "no_endpoints" is a canonical
    transfer call without endpoints, which only the json path reads."""
    kind = draw(st.sampled_from(["kept", "kept", "canonical", "dropped", "blank", "malformed",
                                 "no_endpoints"]))
    sender, recipient = draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES))
    amount = draw(st.integers(0, 10**12))
    if kind == "kept":
        body = json.dumps(dict(json.loads(record_line(amount_planck=amount)),
                               sender=sender, recipient=recipient,
                               call_id=draw(st.sampled_from(_CALLS)),
                               block_number=draw(st.sampled_from([49, 50, 100]))),
                          ensure_ascii=False)
        if draw(st.booleans()):
            body = body.replace('"timestamp": 1600000000000', '"timestamp": -0')
    elif kind == "canonical":
        body = transfer_line(TransferRecord(sender, recipient, amount or 1, 5, 6))
    elif kind == "dropped":
        body = record_line(**draw(st.sampled_from([
            {"signed": False}, {"success": False}, {"call_id": "bond"},
            {"amount_planck": 0}, {"block_number": 1}])))
    elif kind == "no_endpoints":
        body = record_line(call_id=draw(st.sampled_from(_CALLS)), sender=..., recipient=...,
                           amount_planck=...)
    elif kind == "blank":
        body = draw(st.sampled_from(["", "  ", "\t"]))
    else:
        body = draw(st.sampled_from(["{not json", '{"block_number": 1}', "[]",
                                     record_line(timestamp="x")]))
    return body + draw(st.sampled_from(["\n", "\n", "\n", "\r\n", ""]))


# How long ingest_blocks may take over a few blocks before a test of
# its claims fails.
ALARM_S = 10.0


class TestBlocks:
    """ingest_blocks, over ledgers of many tiny blocks, against ingest()
    over the whole file."""

    @settings(max_examples=150)
    @given(
        st.lists(ledger_lines(), max_size=30),
        st.sampled_from([None, "first", "second"]),
        st.data(),
    )
    def test_blocks_match_serial_ingest(self, tmp_path_factory, lines, bad_byte, data):
        from fluxgraph import cli

        from conftest import assert_no_child, build_graph

        raw = b"".join(line.encode("utf-8") for line in lines)
        ends = [len(raw[:i + 1]) for i in range(len(raw)) if raw[i:i + 1] == b"\n"]
        # at times a block ends exactly at a line end
        block = data.draw(st.one_of(st.integers(1, 120), st.sampled_from(ends or [1])))
        start_block = data.draw(st.sampled_from([0, 50]))
        folder = tmp_path_factory.mktemp("blocks")
        path = str(folder / "ledger.jsonl")
        with open(path, "wb") as fh:
            fh.write(raw)
        if bad_byte:
            # block 0 is always this process's, and block 1 the child's; a
            # byte put within block's length of a block's start stays in it
            with open(path, "rb") as fh, mock.patch.object(records, "BLOCK_BYTES", block):
                blocks = records._blocks(fh)
            first = 0 if bad_byte == "first" else blocks[1][0] if blocks[1:] else len(raw)
            at = data.draw(st.integers(first, min(first + block - 1, len(raw))))
            raw = raw[:at] + b"\xff" + raw[at:]
            with open(path, "wb") as fh:
                fh.write(raw)
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        for on_error in ("fail", "skip"):
            def serial():
                summary = IngestSummary()
                with open(path, "r", encoding="utf-8") as fh:
                    kept = list(ingest(fh, start_block, on_error, summary))
                write_transfers(str(folder / "serial.jsonl"), kept)
                graph = build_graph(kept)
                return (summary, (folder / "serial.jsonl").read_bytes(),
                        (graph.names, graph.src, graph.dst, graph.flux, graph.mult))

            def blocks():
                summary = IngestSummary()
                graph = cli._fold(records.ingest_blocks(
                    path, records.transfer_rows, start_block, on_error, summary))
                cli._write_text(str(folder / "blocks.jsonl"), records.ingest_blocks(
                    path, records.transfer_text, start_block, on_error))
                return (summary, (folder / "blocks.jsonl").read_bytes(),
                        (graph.names, graph.src, graph.dst, graph.flux, graph.mult))

            with mock.patch.object(records, "BLOCK_BYTES", block), \
                    mock.patch.object(os, "fork", counted):
                assert _outcome_of(blocks) == _outcome_of(serial)
            assert_no_child()
            with open(path, "rb") as fh:
                with mock.patch.object(records, "BLOCK_BYTES", block):
                    several = len(records._blocks(fh)) >= 2
            assert bool(forks) == several

    @pytest.mark.parametrize("start_block", [0, 3])
    def test_canonical_blocks_take_the_kernel(self, tmp_path, monkeypatch, start_block):
        """Where every line of a ledger is canonical, its blocks are parsed
        by the block kernel alone: with ingest() raising there, in either
        process, ingest_blocks still gives ingest()'s transfers and counts
        in both shapes. Three kept lines must be re-rendered: a keep-alive
        call with a non-ASCII sender, a -0 timestamp, and a recipient with
        a DEL."""
        from fluxgraph.graph import fold_rows
        from fluxgraph.synth import ScenarioConfig, generate

        from conftest import assert_no_child, build_graph

        lines, _truth = generate(ScenarioConfig(seed=5, user_count=60,
                                                nontransfer_noise_rate=0.2,
                                                failed_noise_rate=0.2,
                                                zero_amount_noise_rate=0.2))
        odd = json.loads(record_line(call_id="Transfer_Keep_Alive", sender="ünï",
                                     block_number=7))
        lines[5:5] = [json.dumps(odd, ensure_ascii=False),
                      record_line(timestamp=0).replace('"timestamp": 0', '"timestamp": -0'),
                      json.dumps(json.loads(record_line(recipient="del\x7f")),
                                 ensure_ascii=False)]
        path = tmp_path / "ledger.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")  # the last line without one
        serial = IngestSummary()
        with open(path, encoding="utf-8") as fh:
            kept = list(ingest(fh, start_block, summary=serial))
        assert serial.kept < serial.parsed and len(kept) > 2
        want = build_graph(kept)

        def refused(*args, **kwargs):
            raise AssertionError("a block of canonical lines went through ingest()")

        monkeypatch.setattr(records, "BLOCK_BYTES", 1024)
        with open(path, "rb") as fh:
            assert len(records._blocks(fh)) >= 4
        monkeypatch.setattr(records, "ingest", refused)
        summary = IngestSummary()
        text = "".join(records.ingest_blocks(str(path), records.transfer_text, start_block,
                                             summary=summary))
        assert text == records.transfer_text(kept) and summary == serial
        graph = fold_rows(records.ingest_blocks(str(path), records.transfer_rows, start_block))
        assert ((graph.names, graph.src, graph.dst, graph.flux, graph.mult)
                == (want.names, want.src, want.dst, want.flux, want.mult))
        assert_no_child()

    def test_every_block_claimed_once_under_contention(self, tmp_path, monkeypatch):
        """One line per block, so the two processes take the claim token
        thousands of times: every block still counts once, in order."""
        from conftest import assert_no_child

        lines = [transfer_line(TransferRecord(f"s{i}", f"r{i % 7}", i + 1, i, i)) + "\n"
                 for i in range(3000)]
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(lines))
        monkeypatch.setattr(records, "BLOCK_BYTES", 1)
        summary = IngestSummary()
        blocks = list(records.ingest_blocks(str(path), records.transfer_text,
                                            summary=summary))
        assert blocks == lines
        assert (summary.parsed, summary.kept) == (3000, 3000)
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_killed_lock_holder_frees_the_claims(self, tmp_path, monkeypatch):
        """The child is killed with SIGKILL while it holds the claims' lock,
        reading the counter: this process still claims and yields every
        block, as ingest() reads the ledger, within ALARM_S."""
        from fluxgraph.children import Child

        from conftest import assert_no_child

        lines = [transfer_line(TransferRecord(f"s{i}", f"r{i % 7}", i + 1, i, i)) + "\n"
                 for i in range(8)]
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(lines))
        monkeypatch.setattr(records, "BLOCK_BYTES", 1)  # a block a line
        parent = os.getpid()

        def kill_unless_parent():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        class Dying(struct.Struct):
            """The counter's format, whose reads, from bytes or from a
            buffer, kill any process but this."""

            def unpack(self, *args):
                kill_unless_parent()
                return super().unpack(*args)

            def unpack_from(self, *args):
                kill_unless_parent()
                return super().unpack_from(*args)

        monkeypatch.setattr(records, "_COUNTER", Dying("q"))
        forks, statuses = [], []
        fork, wait = os.fork, Child.wait

        def counted():
            forks.append(1)
            return fork()

        def recorded(child):
            statuses.append(wait(child))
            return statuses[-1]

        def timeout(*_):
            raise TimeoutError("the claims' lock was never freed")

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(Child, "wait", recorded)
        summary = IngestSummary()
        previous = signal.signal(signal.SIGALRM, timeout)
        try:
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            blocks = list(records.ingest_blocks(str(path), records.transfer_text,
                                                summary=summary))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        serial = IngestSummary()
        with open(path, encoding="utf-8") as fh:
            assert "".join(blocks) == records.transfer_text(ingest(fh, summary=serial))
        assert blocks == lines and summary == serial
        assert forks == [1] and statuses == [-signal.SIGKILL]
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_no_claims_file_parses_here(self, tmp_path, monkeypatch):
        """Where the claims' temporary file cannot be made, ingest_blocks
        and load_graph parse every block in this process, with the results
        of one, and fork nothing."""
        from fluxgraph import graph as graph_module
        from fluxgraph.graph import fold_rows, load_graph, save_graph

        from conftest import assert_no_child, build_graph

        kept = [TransferRecord(f"s{i}", f"r{i % 7}", i + 1, i, i) for i in range(40)]
        path = tmp_path / "ledger.jsonl"
        path.write_text(records.transfer_text(kept))
        save_graph(build_graph(kept), str(tmp_path / "graph"))
        one_block = load_graph(str(tmp_path / "graph"))
        made, forks = [], []
        fork = os.fork

        def failing(*args, **kwargs):
            made.append(1)
            raise OSError("no temporary directory")

        def counted():
            forks.append(1)
            return fork()

        def row_loop(*args):
            raise AssertionError("the row loop read edges.csv")

        monkeypatch.setattr(tempfile, "TemporaryFile", failing)
        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(graph_module, "_fold_edge_rows", row_loop)
        monkeypatch.setattr(records, "BLOCK_BYTES", 64)
        summary = IngestSummary()
        folded = fold_rows(records.ingest_blocks(str(path), records.transfer_rows,
                                                 summary=summary))
        serial = build_graph(kept)
        assert ((folded.names, folded.src, folded.dst, folded.flux, folded.mult)
                == (serial.names, serial.src, serial.dst, serial.flux, serial.mult))
        assert (summary.parsed, summary.kept) == (40, 40)
        g = load_graph(str(tmp_path / "graph"))
        assert ((g.names, g.src, g.dst, g.flux, g.mult)
                == (one_block.names, one_block.src, one_block.dst, one_block.flux,
                    one_block.mult))
        assert len(made) == 2 and forks == []
        assert_no_child()
