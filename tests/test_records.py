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
