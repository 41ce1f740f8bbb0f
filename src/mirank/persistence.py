"""Bit-stable file formats: a binary model container and JSONL query logs.

The model container embeds the configuration snapshot, so inference never
needs a sidecar config, and carries a SHA-256 checksum over the whole
payload. Floats in JSONL are written with Python's shortest round-trip
representation, so write-then-read reproduces every value exactly. All
writes, the CLI's tables, reports and manifests included, go through a temp
file and rename, so concurrent readers never see a partial file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import secrets
import struct
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .configs import ModelConfig, ModelParams, expected_block_shapes
from .core import CandidateSet, MirankError, NonFiniteError, QueryRecord, ValidationError
from .simgen import Dataset

__all__ = [
    "LogFormatError",
    "ModelChecksumError",
    "ModelFileError",
    "ModelFormatError",
    "ModelShapeError",
    "ModelVersionError",
    "load_model",
    "read_logs",
    "save_model",
    "write_logs",
]

_MAGIC = b"MIRK"
_VERSION = 1


class ModelFileError(MirankError):
    """Base class for model-file load failures."""


class ModelFormatError(ModelFileError):
    """Truncated file, bad magic, or unparseable header."""


class ModelVersionError(ModelFileError):
    """The file was written by an unsupported format version."""


class ModelChecksumError(ModelFileError):
    """The stored checksum does not match the content."""


class ModelShapeError(ModelFileError):
    """Stored parameter blocks do not match the declared variant and config."""


class LogFormatError(MirankError):
    """A malformed JSONL log line; the message names the line number."""


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the byte ``chunks`` to a temp file beside ``path``, then rename
    it over ``path``, so ``path`` holds either its old bytes or all the new
    ones. Only one chunk is held at a time. Nothing is created until the first
    chunk exists: then the missing parent directories are made, and the temp
    file with the mode a plain ``open()`` gives (0o666 less the umask). If
    writing fails, the temp file is removed and ``path`` is left as it was."""
    path, chunks = Path(path), iter(chunks)
    first = next(chunks, b"")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(first)
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in 64 KiB blocks so that memory does not
    grow with the file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def save_model(params: ModelParams, path) -> None:
    """Serialize parameters to the checksummed binary container, making any
    missing parent directories. A non-finite block, which :func:`load_model`
    would reject, is a NonFiniteError naming it, and no file is written."""
    for name, array in params.blocks.items():
        if not np.isfinite(array).all():
            raise NonFiniteError(f"{path}: parameter block {name!r} contains non-finite values")
    header = {
        "variant": params.variant,
        "config": asdict(params.config),
        "blocks": [
            {"name": name, "shape": list(array.shape)}
            for name, array in params.blocks.items()
        ],
    }
    header_bytes = json.dumps(header).encode("utf-8")
    body = b"".join(
        np.ascontiguousarray(params.blocks[entry["name"]], dtype="<f8").tobytes()
        for entry in header["blocks"]
    )
    payload = _MAGIC + struct.pack("<II", _VERSION, len(header_bytes)) + header_bytes + body
    _atomic_write(path, (payload, hashlib.sha256(payload).digest()))


def load_model(path) -> ModelParams:
    """Load a model container; the round trip is bit-exact.

    Raises ModelFormatError / ModelVersionError / ModelChecksumError /
    ModelShapeError for the distinct corruption classes; never crashes on
    arbitrary bytes.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 + 32 or data[:4] != _MAGIC:
        raise ModelFormatError(f"{path}: not a mirank model file")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != _VERSION:
        raise ModelVersionError(f"{path}: unsupported format version {version}")
    payload, checksum = data[:-32], data[-32:]
    if hashlib.sha256(payload).digest() != checksum:
        raise ModelChecksumError(f"{path}: checksum mismatch, file is corrupted")
    if 12 + header_len > len(payload):
        raise ModelFormatError(f"{path}: header length exceeds file size")
    try:
        header = json.loads(payload[12 : 12 + header_len].decode("utf-8"))
        variant = header["variant"]
        # Every field is stored: a missing one is a format error, not a default.
        config = ModelConfig(**{f.name: header["config"][f.name] for f in fields(ModelConfig)})
        declared = [(entry["name"], tuple(entry["shape"])) for entry in header["blocks"]]
    except (KeyError, TypeError, ValueError, UnicodeDecodeError, ValidationError) as exc:
        raise ModelFormatError(f"{path}: unparseable header ({exc})") from exc
    try:
        expected = expected_block_shapes(variant, config)
    except ValidationError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if dict(declared) != expected:
        raise ModelShapeError(
            f"{path}: stored blocks {dict(declared)} do not match "
            f"variant {variant!r} with its config (expected {expected})"
        )
    blocks: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for name, shape in declared:
        size = int(np.prod(shape)) * 8
        if offset + size > len(payload):
            raise ModelFormatError(f"{path}: block {name!r} extends past end of file")
        blocks[name] = np.frombuffer(payload[offset : offset + size], dtype="<f8").reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise ModelFormatError(f"{path}: {len(payload) - offset} trailing bytes after blocks")
    if not all(np.all(np.isfinite(block)) for block in blocks.values()):
        raise ModelShapeError(f"{path}: parameter blocks contain non-finite values")
    return ModelParams(variant=variant, config=config, blocks=blocks)


# ---------------------------------------------------------------------------
# JSONL query logs


#: Most items one ``write_logs`` or ``read_logs`` call keeps, as texts or as
#: decoded objects; once full, it keeps no more. 448 catch 89% of the repeats
#: of a log drawn from a 500-item catalog, and their texts take about 0.4 MB at
#: 23 features; 512 would catch them all, but would lift the writer's peak on a
#: long log of distinct items past 1.5x its peak on a short one.
_ITEM_CACHE_SIZE = 448


def _item_keys(candidates: CandidateSet) -> list[bytes]:
    """One key per item: the exact bits of its id, price and features."""
    ids, prices, features = candidates.ids, candidates.prices, candidates.feature_matrix
    rows = np.empty((len(ids), 2 + features.shape[1]), dtype=np.uint64)
    rows[:, 0], rows[:, 1], rows[:, 2:] = ids.view(np.uint64), prices.view(np.uint64), features.view(np.uint64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _items_text(candidates: CandidateSet, cache: dict[bytes, str]) -> str:
    """The JSON text of the items, ``{"id": …, "price": …, "features": […]}``
    each, joined by ``, ``. Items not in ``cache`` are encoded by one
    ``json.dumps`` call, whose text is split at ``}, {`` (no item text holds
    a brace); each new item's text is added while the cache has room."""
    keys = _item_keys(candidates)
    texts = [cache.get(key) for key in keys]
    missing = [k for k, text in enumerate(texts) if text is None]
    columns = (candidates.ids[missing].tolist(), candidates.prices[missing].tolist(),
               candidates.feature_matrix[missing].tolist())
    encoded = json.dumps([{"id": i, "price": price, "features": features} for i, price, features in zip(*columns)])
    for k, text in zip(missing, encoded[2:-2].split("}, {")):
        texts[k] = text = "{" + text + "}"
        if len(cache) < _ITEM_CACHE_SIZE:
            cache[keys[k]] = text
    return ", ".join(texts)


def _log_lines(records: Iterable[QueryRecord]) -> Iterable[bytes]:
    """Each record's line: the bytes of ``json.dumps`` of its object and a
    newline, with each distinct item encoded once per call."""
    cache: dict[bytes, str] = {}
    for record in records:
        rest = {"labels": record.labels.tolist()}
        if record.ground_truth_probs is not None:
            rest["ground_truth_probs"] = record.ground_truth_probs.tolist()
        items = _items_text(record.candidate_set, cache)
        line = f'{{"query_id": {json.dumps(record.query_id)}, "items": [{items}], {json.dumps(rest)[1:]}\n'
        yield line.encode("utf-8")


def write_logs(records: Iterable[QueryRecord], path) -> None:
    """Write records as one JSON object per line (the split is not stored),
    making any missing parent directories once the first line is encoded.

    Each line is the bytes of ``json.dumps`` of the record's object. Lines
    are encoded and written one record at a time, and each distinct item is
    encoded once per call: memory holds one record's line plus at most
    ``_ITEM_CACHE_SIZE`` item texts, not the whole log. ``records`` may be
    any iterable, a generator included; if it raises partway, ``path`` keeps
    its old bytes."""
    _atomic_write(path, _log_lines(records))


def _parse_record(obj: dict, line_no: int) -> QueryRecord:
    try:
        entries = obj["items"]
        candidates = CandidateSet(
            [entry["id"] for entry in entries],
            [entry["price"] for entry in entries],
            [entry["features"] for entry in entries],
        )
        return QueryRecord(str(obj["query_id"]), candidates, obj["labels"], obj.get("ground_truth_probs"))
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise LogFormatError(f"line {line_no}: invalid record ({exc})") from exc


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
#: A line in ``write_logs``' layout, up to the brace of its first item.
_HEAD = re.compile(r'\{"query_id": "(?:[^"\\]|\\.)*", "items": \[\{')


def _decode_line(line: str, cache: dict[str, dict]) -> dict | None:
    """``json.loads`` of a line in ``write_logs``' layout, decoding no item
    text that ``cache`` holds; None if the line is not shown to be in that
    layout. Items run to the first ``}]`` and split at ``}, {``, no piece
    holding a brace; one decode of the uncached ones' ``[{…}, {…}]`` gives an
    object per piece only if every brace is structural. The rest, decoded with
    the items emptied, must name ``"items"`` once, and no backslash follow them."""
    head = _HEAD.match(line)
    end = line.find("}]", head.end()) if head else -1
    if end < 0:
        return None
    content, tail = line[head.end() : end], line[end + 2 :]
    pieces, rest = content.split("}, {"), line[: head.end() - 1] + "]" + tail
    if not content.count("{") == content.count("}") == len(pieces) - 1 or rest.count('"items"') != 1 or "\\" in tail:
        return None
    items = [cache.get(piece) for piece in pieces]
    missing = [k for k, item in enumerate(items) if item is None]
    try:
        decoded = _DECODER.decode("[" + ", ".join("{" + pieces[k] + "}" for k in missing) + "]")
        obj = _DECODER.decode(rest)
    except (ValueError, RecursionError):
        return None
    if len(decoded) != len(missing):
        return None
    for k, item in zip(missing, decoded):
        items[k] = item
        if len(cache) < _ITEM_CACHE_SIZE:
            cache[pieces[k]] = item
    obj["items"] = items
    return obj


#: A byte that is not UTF-8, as ``errors="surrogateescape"`` decodes it; valid UTF-8 never decodes to one.
_RAW_BYTE = re.compile("[\udc80-\udcff]")


def read_logs(path) -> Dataset:
    """Stream a JSONL log into a Dataset of train records only (a log does
    not store the split); malformed lines name their line number, with the
    error of ``json.loads``, which reads each line :func:`_decode_line` does
    not. A line that is not UTF-8 is malformed too: each line is decoded
    with its bad bytes escaped, so the error names the line that holds one."""
    records: list[QueryRecord] = []
    cache: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if not line.isascii() and (raw := _RAW_BYTE.search(line)):
                byte = ord(raw.group()) - 0xDC00
                raise LogFormatError(f"line {line_no}: not UTF-8 (byte 0x{byte:02x} at column {raw.start() + 1})")
            try:
                obj = _decode_line(line, cache) or json.loads(line, parse_constant=_reject_constant)
            except ValueError as exc:
                raise LogFormatError(f"line {line_no}: malformed JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise LogFormatError(f"line {line_no}: expected a JSON object")
            records.append(_parse_record(obj, line_no))
    return Dataset(tuple(records))
