"""JSON/JSONL persistence helpers and the program's one JSON codec.

The collector persists bundle and transaction records as JSON-lines so a
four-month campaign can be checkpointed and re-analyzed offline, mirroring
how the paper's scraper archived its pulls.

Every per-record and per-request JSON value (archive columns, instruction
payloads, checkpoints, HTTP bodies) goes through :func:`encode_json`,
:func:`encode_json_sorted`, :func:`encode_json_canonical` and
:func:`decode_json`. They write and read exactly what ``json.dumps`` and
``json.loads`` do, without the set-up those pay on every call:
``json.dumps`` builds a ``JSONEncoder`` and then a C encoder per call, and
``json.loads`` runs two whitespace scans and a BOM check around the one C
scan that does the work.
"""

from __future__ import annotations

import dataclasses
import json
from json.decoder import JSONDecoder
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.errors import StoreError

T = TypeVar("T")

# --- the JSON codec ----------------------------------------------------------
#
# The encoders are built once, on json's own C accelerator, with the
# arguments ``JSONEncoder.iterencode`` passes it for the ``json.dumps``
# arguments each one stands for, save ``markers``: None, which is what
# ``check_circular=False`` means. The encoders then keep no per-call state,
# so one instance serves every thread. Stored values are trees, so dropping
# the cycle check changes no output; a cycle raises RecursionError instead
# of ValueError. An interpreter without ``_json`` has no C encoder, and
# there json's own pure-Python encoder, which ``json.dumps`` takes too,
# does the work.


def _make_encoder(
    sort_keys: bool, separators: tuple[str, str], allow_nan: bool
) -> Callable[[Any, int], Iterable[str]]:
    item_separator, key_separator = separators
    if c_make_encoder is None:  # pragma: no cover - tested in a subprocess
        # The C encoder's second argument is the starting indent level;
        # ``iterencode``'s is ``_one_shot``, which changes no output when
        # there is no C encoder to take.
        return JSONEncoder(
            check_circular=False,
            sort_keys=sort_keys,
            separators=separators,
            allow_nan=allow_nan,
        ).iterencode
    return c_make_encoder(
        None,  # markers: no cycle check
        JSONEncoder().default,  # the same TypeError for unserializables
        encode_basestring_ascii,
        None,  # indent
        key_separator,
        item_separator,
        sort_keys,
        False,  # skipkeys
        allow_nan,
    )


_ENCODE = _make_encoder(False, (", ", ": "), True)
_ENCODE_SORTED = _make_encoder(True, (", ", ": "), True)
_ENCODE_CANONICAL = _make_encoder(True, (",", ":"), False)

_DECODER = JSONDecoder()


def encode_json(value: Any) -> str:
    """``json.dumps(value, check_circular=False)``, byte for byte.

    Raises:
        TypeError: for a value JSON cannot represent.
    """
    return "".join(_ENCODE(value, 0))


def encode_json_sorted(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, check_circular=False)``, byte
    for byte.

    Raises:
        TypeError: for a value JSON cannot represent, or for object keys
            of types that do not sort against each other.
    """
    return "".join(_ENCODE_SORTED(value, 0))


def encode_json_canonical(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"),
    allow_nan=False, check_circular=False)``, byte for byte: the compact
    form canonical bytes are made of.

    Raises:
        TypeError: as :func:`encode_json_sorted` does.
        ValueError: for a NaN or infinite float.
    """
    return "".join(_ENCODE_CANONICAL(value, 0))


def decode_json(text: str | bytes | bytearray) -> Any:
    """The value ``json.loads(text)`` returns.

    A ``str`` that is one JSON value and nothing else takes the decoder's
    documented ``raw_decode`` alone. Every other input (surrounding
    whitespace, a BOM, bytes, trailing data, an error) goes to
    ``json.loads``, which returns the same value or raises.

    Raises:
        ValueError: for every text ``json.loads`` refuses: its own
            ``JSONDecodeError`` unchanged, an integer past the interpreter's
            digit limit, and a document nested too deeply (``json.loads``
            raises RecursionError for that one).
        TypeError: when ``text`` is not ``str``, ``bytes`` or
            ``bytearray``.
    """
    if isinstance(text, str):
        try:
            value, end = _DECODER.raw_decode(text)
        except (ValueError, RecursionError):
            pass  # json.loads raises its own error for this text
        else:
            if end == len(text):
                return value
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from exc


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / tuples / sets into JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(item) for item in obj)
    if isinstance(obj, bytes):
        return obj.hex()
    return obj


def dumps(obj: Any) -> str:
    """Serialize any supported object to a compact JSON string."""
    return json.dumps(to_jsonable(obj), separators=(",", ":"), sort_keys=True)


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records to a JSON-lines file; returns the number written.

    Raises:
        StoreError: if the destination cannot be written.
    """
    target = Path(path)
    count = 0
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(dumps(record))
                handle.write("\n")
                count += 1
    except OSError as exc:
        raise StoreError(f"cannot write JSONL to {target}: {exc}") from exc
    return count


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield parsed records from a JSON-lines file.

    Blank lines are skipped. Raises:
        StoreError: if the file is missing or a line is not valid JSON.
    """
    target = Path(path)
    if not target.exists():
        raise StoreError(f"JSONL file not found: {target}")
    with target.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = decode_json(line)
            except ValueError as exc:
                raise StoreError(
                    f"invalid JSON at {target}:{line_number}: {exc}"
                ) from exc
            yield record


def read_jsonl_as(path: str | Path, factory: Callable[[dict[str, Any]], T]) -> list[T]:
    """Read a JSONL file and map each record through ``factory``."""
    return [factory(record) for record in read_jsonl(path)]
