"""File formats: bit-exact round trips and typed rejection of corrupt input."""

import hashlib
import json
import os
import stat
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mirank import BehaviorConfig, ModelConfig, generate_catalog, generate_logs, init_model, load_model, save_model
from mirank import persistence
from mirank.core import CandidateSet, NonFiniteError, QueryRecord, make_rng
from mirank.persistence import (
    LogFormatError,
    ModelChecksumError,
    ModelFileError,
    ModelFormatError,
    ModelShapeError,
    ModelVersionError,
    read_logs,
    write_logs,
)

SMALL = ModelConfig(d=3, hidden_sizes=(5, 4), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=12)


class TestModelRoundTrip:
    @pytest.mark.parametrize("variant", ("baseline", "midnn", "mirnn", "mirnn_attention"))
    def test_bit_exact(self, variant, tmp_path):
        params = init_model(variant, SMALL, seed=3)
        path = tmp_path / "model.mirk"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.variant == variant
        assert loaded.config == params.config
        assert set(loaded.blocks) == set(params.blocks)
        for name in params.blocks:
            assert np.array_equal(loaded.blocks[name], params.blocks[name])

    def test_numpy_integer_sizes_round_trip(self, tmp_path):
        """save_model once raised TypeError on a config holding numpy integers."""
        config = ModelConfig(d=np.int64(3), hidden_sizes=(np.int64(5), 4), lstm_hidden=np.int32(4),
                             attn_size=3, pos_size=2, max_positions=12)
        params = init_model("mirnn_attention", config, seed=3)
        path = tmp_path / "model.mirk"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.config == config == SMALL
        for name in params.blocks:
            assert np.array_equal(loaded.blocks[name], params.blocks[name])

    def test_no_temp_files_left_behind(self, tmp_path):
        save_model(init_model("midnn", SMALL, seed=0), tmp_path / "m.mirk")
        assert [p.name for p in tmp_path.iterdir()] == ["m.mirk"]

    def test_missing_parent_directories_are_made(self, tmp_path):
        params = init_model("midnn", SMALL, seed=0)
        save_model(params, tmp_path / "a" / "b" / "m.mirk")
        assert load_model(tmp_path / "a" / "b" / "m.mirk").config == params.config

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    def test_non_finite_blocks_are_refused_and_nothing_is_written(self, bad, tmp_path):
        """save_model once wrote blocks holding inf, a file load_model rejects."""
        params = init_model("mirnn", SMALL, seed=0)
        params.blocks["Wh"][1, 2] = bad
        with pytest.raises(NonFiniteError, match=r"parameter block 'Wh' contains non-finite values$"):
            save_model(params, tmp_path / "a" / "m.mirk")
        assert list(tmp_path.iterdir()) == []


def _reseal(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` with the checksum that matches it, so
    only its contents can be wrong."""
    path.write_bytes(payload + hashlib.sha256(payload).digest())


def _rewrite_header(path, field: bytes, bad: bytes) -> None:
    """Replace ``field`` with ``bad`` in the model header at ``path``, with a
    checksum that matches, so only the header's contents are wrong."""
    data = path.read_bytes()
    header_len = struct.unpack("<II", data[4:12])[1]
    header = data[12 : 12 + header_len]
    assert field in header
    header = header.replace(field, bad)
    _reseal(path, data[:4] + struct.pack("<II", 1, len(header)) + header + data[12 + header_len : -32])


class TestModelCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.mirk"
        save_model(init_model("mirnn", SMALL, seed=0), path)
        return path

    def test_bad_magic(self, saved):
        data = bytearray(saved.read_bytes())
        data[:4] = b"NOPE"
        saved.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            load_model(saved)

    def test_truncated_file(self, saved):
        saved.write_bytes(saved.read_bytes()[:10])
        with pytest.raises(ModelFormatError):
            load_model(saved)

    def test_unsupported_version(self, saved):
        data = bytearray(saved.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        # keep the checksum path from firing first: version is checked before it
        saved.write_bytes(bytes(data))
        with pytest.raises(ModelVersionError):
            load_model(saved)

    def test_flipped_payload_byte(self, saved):
        data = bytearray(saved.read_bytes())
        data[len(data) // 2] ^= 0xFF
        saved.write_bytes(bytes(data))
        with pytest.raises(ModelChecksumError):
            load_model(saved)

    def test_shape_mismatch(self, tmp_path):
        # a valid mirnn file whose header claims midnn: blocks no longer match
        params = init_model("mirnn", SMALL, seed=0)
        path = tmp_path / "model.mirk"
        save_model(params, path)
        _rewrite_header(path, b'"mirnn"', b'"midnn"')
        with pytest.raises(ModelShapeError):
            load_model(path)

    @pytest.mark.parametrize("field, bad", (
        (b'"hidden_sizes": [5, 4]', b'"hidden_sizes": []'),
        (b'"hidden_sizes": [5, 4]', b'"hidden_sizes": [0, 4]'),
        (b'"lstm_hidden": 4', b'"lstm_hidden": 0'),
    ), ids=("empty-hidden-sizes", "zero-hidden-size", "lstm-hidden-0"))
    def test_header_sizes_below_one_are_format_errors(self, field, bad, saved):
        _rewrite_header(saved, field, bad)
        with pytest.raises(ModelFormatError, match="must"):
            load_model(saved)

    @pytest.mark.parametrize("field, bad", (
        (b'"lstm_hidden": 4', b'"lstm_hidden": 4.5'),
        (b'"lstm_hidden": 4', b'"lstm_hidden": true'),
        (b'"hidden_sizes": [5, 4]', b'"hidden_sizes": [5.5, 4]'),
    ), ids=("fractional-lstm-hidden", "bool-lstm-hidden", "fractional-hidden-size"))
    def test_header_sizes_that_are_not_integers_are_format_errors(self, field, bad, saved):
        """A fraction or a bool in a stored size is not truncated to an int."""
        _rewrite_header(saved, field, bad)
        with pytest.raises(ModelFormatError, match="invalid value"):
            load_model(saved)

    @pytest.mark.parametrize("edit, error, message", (
        (lambda p: p[:8] + struct.pack("<I", len(p)) + p[12:], ModelFormatError, "header length exceeds file size"),
        (lambda p: p[:-8], ModelFormatError, "extends past end of file"),
        (lambda p: p + bytes(8), ModelFormatError, "8 trailing bytes after blocks"),
        (lambda p: p[:-8] + struct.pack("<d", float("nan")), ModelShapeError, "non-finite values"),
        (lambda p: p[:-8] + struct.pack("<d", -float("inf")), ModelShapeError, "non-finite values"),
    ), ids=("header-past-end", "truncated-block", "trailing-bytes", "nan-block", "inf-block"))
    def test_checksummed_payload_with_bad_contents(self, edit, error, message, saved):
        """Each payload carries a checksum that matches it, so only its layout
        or values can reject it; a finite-values-only model file rests on the
        last check."""
        _reseal(saved, edit(saved.read_bytes()[:-32]))
        with pytest.raises(error, match=message):
            load_model(saved)

    def test_unknown_variant_is_a_format_error(self, saved):
        _rewrite_header(saved, b'"variant": "mirnn"', b'"variant": "gru"')
        with pytest.raises(ModelFormatError, match="unknown model variant"):
            load_model(saved)

    def test_all_errors_share_a_catchable_base(self):
        for exc in (ModelFormatError, ModelVersionError, ModelChecksumError, ModelShapeError):
            assert issubclass(exc, ModelFileError)

    def test_fuzz_random_bytes_never_crash(self, tmp_path):
        rng = make_rng(77)
        path = tmp_path / "junk.mirk"
        for trial in range(200):
            size = int(rng.integers(0, 300))
            blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            if rng.random() < 0.3:
                blob = b"MIRK" + blob
            path.write_bytes(blob)
            with pytest.raises(ModelFileError):
                load_model(path)

    def test_fuzz_mutated_valid_files_never_crash(self, saved):
        original = saved.read_bytes()
        rng = make_rng(78)
        for trial in range(200):
            data = bytearray(original)
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            saved.write_bytes(bytes(data))
            try:
                load_model(saved)
            except ModelFileError:
                pass


class TestLogRoundTrip:
    def _dataset(self):
        catalog = generate_catalog(20, 3, seed=1)
        return generate_logs(BehaviorConfig(base_rate=0.3, price_sensitivity=1.0), catalog, n_queries=6, items_per_query=4, seed=2)

    def test_values_survive_exactly(self, tmp_path):
        data = self._dataset()
        path = tmp_path / "logs.jsonl"
        write_logs(data.records, path)
        loaded = read_logs(path)
        assert len(loaded.records) == len(data.records)
        for a, b in zip(data.records, loaded.records):
            assert a.query_id == b.query_id
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.ground_truth_probs, b.ground_truth_probs)
            x, y = a.candidate_set, b.candidate_set
            assert np.array_equal(x.ids, y.ids) and np.array_equal(x.prices, y.prices)
            assert np.array_equal(x.feature_matrix, y.feature_matrix)

    def test_written_bytes_are_pinned(self, tmp_path):
        """The JSONL bytes of a fixed simulated dataset, ground-truth
        probabilities included, are pinned by their SHA-256."""
        config = BehaviorConfig(
            price_sensitivity=1.5, position_bias_strength=0.5, order_effect_strength=1.0,
            primacy_strength=0.5, base_rate=0.3, seed=3,
        )
        data = generate_logs(config, generate_catalog(40, 3, seed=4), n_queries=12, items_per_query=7, seed=5)
        path = tmp_path / "logs.jsonl"
        write_logs(data.records, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "28698e75ec996f1d1ab66dd1edefb5f1b5cbf251c3b590f14f03a8683f767689"

    def test_iterable_input_and_empty_file(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_logs([], path)
        assert read_logs(path).records == ()
        record = QueryRecord("q0", CandidateSet([0], [2.0], [[0.25, -1.5]]), (1,))
        write_logs([record], path)
        loaded = read_logs(path).records[0]
        assert loaded.query_id == "q0"
        assert loaded.ground_truth_probs is None


class TestStreamedLogWrite:
    @staticmethod
    def _records(n):
        rng = make_rng(9)
        return [
            QueryRecord(f"q{i}", CandidateSet(np.arange(8), rng.uniform(1.0, 9.0, 8), rng.standard_normal((8, 5))),
                        rng.integers(0, 2, 8))
            for i in range(n)
        ]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_logs(self._records(3), path)
        before = path.read_bytes()

        def records_then_error():
            yield from self._records(5)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_logs(records_then_error(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["logs.jsonl"]

    def test_directories_are_made_only_once_the_first_line_is(self, tmp_path):
        """A source that fails on its first record leaves no directory; one
        that yields makes every missing parent."""
        def no_records():
            raise RuntimeError("source failed")
            yield

        path = tmp_path / "a" / "b" / "logs.jsonl"
        with pytest.raises(RuntimeError, match="source failed"):
            write_logs(no_records(), path)
        assert not (tmp_path / "a").exists()
        write_logs(self._records(2), path)
        assert [record.query_id for record in read_logs(path).records] == ["q0", "q1"]

    def test_file_mode_matches_plain_open(self, tmp_path):
        """The temp file is not created owner-only: the log gets the mode
        that open() gives under the same umask."""
        write_logs(self._records(1), tmp_path / "logs.jsonl")
        with open(tmp_path / "plain.txt", "w"):
            pass
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("logs.jsonl", "plain.txt")]
        assert modes[0] == modes[1]

    def test_memory_does_not_grow_with_the_log(self, tmp_path):
        """write_logs holds one record's line at a time: its allocation peak
        over 400 records stays within 1.5x its peak over 40."""
        peaks = []
        for n in (40, 400):
            records = self._records(n)
            tracemalloc.start()
            write_logs(records, tmp_path / f"logs_{n}.jsonl")
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


#: Floats whose text is easy to get wrong: signed zeros, exponents either way.
_EDGE_FLOATS = (0.0, -0.0, 1e-05, 1e+16, -1e+16, 2.5e-308, 0.1, 1.0)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_PRICES = st.one_of(st.sampled_from((1e-05, 1e+16, 0.1, 2.0)), st.floats(0.0, 1e300, exclude_min=True))
_QUERY_IDS = st.one_of(st.sampled_from(('q"0', "é✓ 中", "a\\b", "")), st.text(max_size=6))


@st.composite
def _log(draw):
    """Records as (query id, items, labels, probabilities or None), an item
    being (id, price, features). Records draw their items from one shared
    pool, so items repeat, or each record draws its own; ids come from 0..5
    either way, so one id can carry other prices or features, down to the
    sign of a zero."""
    d = draw(st.integers(0, 3))
    item = st.tuples(st.integers(0, 5), _PRICES, st.lists(_FLOATS, min_size=d, max_size=d))
    pool = draw(st.lists(item, min_size=1, max_size=8))
    if draw(st.booleans()):  # twins that differ only in the sign of their zeros
        pool += [(i, price, [-x if x == 0.0 else x for x in features]) for i, price, features in pool]
    shared = draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(0, 5))):
        if shared:
            items = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique_by=lambda it: it[0]))
        else:
            items = draw(st.lists(item, min_size=1, max_size=6, unique_by=lambda it: it[0]))
        labels = draw(st.lists(st.integers(0, 1), min_size=len(items), max_size=len(items)))
        probs = st.one_of(st.sampled_from((0.0, -0.0, 1e-05, 1.0)), st.floats(0.0, 1.0))
        records.append((draw(_QUERY_IDS), items, labels,
                        draw(st.none() | st.lists(probs, min_size=len(items), max_size=len(items)))))
    return records


@seed(27)
@settings(max_examples=120, deadline=None)
@given(_log(), st.sampled_from((2, persistence._ITEM_CACHE_SIZE)))
def test_written_bytes_are_json_dumps_of_each_record(log, cache_size):
    """Each line is json.dumps of the record's object plus a newline, whether
    items repeat or not, and with more distinct items than the cache holds."""
    expected = []
    for query_id, items, labels, probs in log:
        obj = {
            "query_id": query_id,
            "items": [{"id": i, "price": price, "features": features} for i, price, features in items],
            "labels": labels,
        }
        if probs is not None:
            obj["ground_truth_probs"] = probs
        expected.append(json.dumps(obj) + "\n")
    records = [
        QueryRecord(query_id, CandidateSet([i for i, _, _ in items], [price for _, price, _ in items],
                                           np.array([features for _, _, features in items]).reshape(len(items), -1)),
                    labels, probs)
        for query_id, items, labels, probs in log
    ]
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(persistence, "_ITEM_CACHE_SIZE", cache_size)
        write_logs(records, Path(tmp) / "logs.jsonl")
        assert (Path(tmp) / "logs.jsonl").read_bytes() == "".join(expected).encode("utf-8")


class TestLogErrors:
    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_logs(self._one_record_logs(), path)
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(LogFormatError, match="line 2"):
            read_logs(path)

    @pytest.mark.parametrize("constant", ("NaN", "Infinity", "-Infinity"))
    def test_non_finite_constant_names_the_line(self, constant, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_logs(self._one_record_logs(), path)
        with open(path, "a") as handle:
            handle.write('{"query_id": "q1", "items": [{"id": 0, "price": %s, "features": [0.5]}], "labels": [1]}\n' % constant)
        with pytest.raises(LogFormatError, match=f"line 2.*{constant}"):
            read_logs(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(LogFormatError, match="line 1"):
            read_logs(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        path.write_text('{"query_id": "q0", "items": []}\n')
        with pytest.raises(LogFormatError, match="line 1"):
            read_logs(path)

    def test_inconsistent_feature_lengths(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        path.write_text(
            '{"query_id": "q0", "items": ['
            '{"id": 0, "price": 1.0, "features": [1.0]}, '
            '{"id": 1, "price": 1.0, "features": [1.0, 2.0]}], "labels": [0, 1]}\n'
        )
        with pytest.raises(LogFormatError, match="line 1.*item 1: feature dimension .* differs"):
            read_logs(path)

    def test_fractional_label_names_the_line(self, tmp_path):
        """A label of 0.7 is rejected; it used to read as 0, a non-purchase."""
        path = tmp_path / "logs.jsonl"
        write_logs(self._one_record_logs(), path)
        with open(path, "a") as handle:
            handle.write('{"query_id": "q1", "items": [{"id": 0, "price": 1.0, "features": [0.5]}], "labels": [0.7]}\n')
        with pytest.raises(LogFormatError, match="line 2.*labels must be integers, got 0.7"):
            read_logs(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_logs(self._one_record_logs(), path)
        path.write_text("\n" + path.read_text() + "\n\n")
        assert len(read_logs(path).records) == 1

    @staticmethod
    def _one_record_logs():
        return [QueryRecord("q0", CandidateSet([0], [2.0], [[0.5]]), (1,))]
