import os

import pytest

from textjscc.errors import IoError
from textjscc.fileio import read_text, write_atomic, write_csv, write_lines


class TestWriteAtomic:
    def test_writes_and_leaves_no_temporary(self, tmp_path):
        path = str(tmp_path / "out" / "rows.csv")
        with write_atomic(path) as fh:
            fh.write("a,b\n")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "a,b\n"
        assert os.listdir(tmp_path / "out") == ["rows.csv"]

    def test_failed_rename_removes_temporary(self, tmp_path):
        (tmp_path / "hamming.csv").mkdir()
        with pytest.raises(IoError, match="hamming.csv"):
            with write_atomic(str(tmp_path / "hamming.csv")) as fh:
                fh.write("0,1\n")
        assert os.listdir(tmp_path) == ["hamming.csv"]

    def test_exception_in_block_removes_temporary(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        with pytest.raises(ValueError, match="mid-write"):
            with write_atomic(path) as fh:
                fh.write("partial")
                raise ValueError("mid-write")
        assert os.listdir(tmp_path) == []


class TestTextWriters:
    def test_csv_quotes_and_crlf(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["label", "x"], [["a, b", 0.1], ['say "hi"', 3]])
        assert (tmp_path / "t.csv").read_bytes() == (b'label,x\r\n"a, b",0.1\r\n'
                                                     b'"say ""hi""",3\r\n')

    def test_lines_end_in_newline(self, tmp_path):
        path = str(tmp_path / "t.txt")
        write_lines(path, iter(["caf\u00e9", "", "x\ty"]))
        assert (tmp_path / "t.txt").read_bytes() == "caf\u00e9\n\nx\ty\n".encode("utf-8")
        assert read_text(path, "lines") == "caf\u00e9\n\nx\ty\n"
