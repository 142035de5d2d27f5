"""JSONL serialization tests."""

from dataclasses import dataclass

import pytest

from repro.errors import StoreError
from repro.utils.serialization import (
    dumps,
    read_jsonl,
    read_jsonl_as,
    to_jsonable,
    write_jsonl,
)


@dataclass
class Point:
    x: int
    y: int


class TestToJsonable:
    def test_dataclass(self):
        assert to_jsonable(Point(1, 2)) == {"x": 1, "y": 2}

    def test_nested_structures(self):
        value = {"points": [Point(1, 2), Point(3, 4)], "tag": ("a", "b")}
        assert to_jsonable(value) == {
            "points": [{"x": 1, "y": 2}, {"x": 3, "y": 4}],
            "tag": ["a", "b"],
        }

    def test_sets_become_sorted_lists(self):
        assert to_jsonable({3, 1, 2}) == [1, 2, 3]

    def test_bytes_become_hex(self):
        assert to_jsonable(b"\x00\xff") == "00ff"

    def test_dumps_is_compact_and_sorted(self):
        assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestJsonlRoundTrip:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "records.jsonl"
        written = write_jsonl(path, [Point(1, 2), Point(3, 4)])
        assert written == 2
        records = list(read_jsonl(path))
        assert records == [{"x": 1, "y": 2}, {"x": 3, "y": 4}]

    def test_read_as_factory(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [Point(5, 6)])
        points = read_jsonl_as(path, lambda r: Point(**r))
        assert points == [Point(5, 6)]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a":1}\n\n{"a":2}\n')
        assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StoreError, match="not found"):
            list(read_jsonl(tmp_path / "nope.jsonl"))

    def test_invalid_json_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        # Not JSON; an integer past the interpreter's digit limit; an
        # array nested past its recursion limit.
        for line in ("not-json", "1" * 5_000, "[" * 100_000 + "]" * 100_000):
            path.write_text('{"a":1}\n' + line + "\n")
            with pytest.raises(StoreError, match=":2"):
                list(read_jsonl(path))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "r.jsonl"
        write_jsonl(path, [Point(1, 1)])
        assert path.exists()
