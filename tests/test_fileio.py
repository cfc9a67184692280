import os

import pytest

from textjscc.errors import IoError
from textjscc.fileio import write_atomic


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
