"""Run journal: append-only JSONL, torn-tail tolerance, attempt accounting."""

import json

import pytest

from repro.runs.journal import JOURNAL_VERSION, RunJournal, load_journal


def read_lines(path):
    return [line for line in path.read_text().splitlines() if line]


class TestWriting:
    def test_header_written_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="continuous_runs"):
            pass
        lines = read_lines(path)
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == "journal"
        assert header["journal_version"] == JOURNAL_VERSION
        assert header["run_type"] == "continuous_runs"

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="tasks") as jrn:
            jrn.task("a", {"allocator": "default"})
        with RunJournal(path, run_type="tasks") as jrn:
            jrn.attempt_start("a", 1)
        kinds = [json.loads(l)["kind"] for l in read_lines(path)]
        assert kinds == ["journal", "task", "attempt"]

    def test_entries_flushed_immediately(self, tmp_path):
        # The journal is the crash record; an entry buffered in memory
        # when the process dies never happened as far as recovery is
        # concerned.
        path = tmp_path / "run.jsonl"
        jrn = RunJournal(path, run_type="tasks")
        jrn.task("a", {"x": 1})
        assert len(read_lines(path)) == 2
        jrn.close()

    def test_context_recorded_in_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="sweep", context={"grid": {"n_jobs": [10]}}):
            pass
        data = load_journal(path)
        assert data.run_type == "sweep"
        assert data.context == {"grid": {"n_jobs": [10]}}


class TestLoading:
    def write_journal(self, path):
        with RunJournal(path, run_type="tasks") as jrn:
            jrn.task("a", {"allocator": "default"})
            jrn.task("b", {"allocator": "greedy"})
            jrn.attempt_start("a", 1)
            jrn.attempt_error("a", 1, "BrokenProcessPool: worker died")
            jrn.attempt_start("a", 2)
            jrn.result("a", 2, "sha256:abc")
            jrn.attempt_start("b", 1)

    def test_attempt_count(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path)
        data = load_journal(path)
        assert data.attempt_count("a") == 2
        assert data.attempt_count("b") == 1
        assert data.attempt_count("missing") == 0

    def test_completed_and_missing_keys(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path)
        data = load_journal(path)
        assert data.completed_keys() == ["a"]
        assert data.missing_keys() == ["b"]

    def test_torn_final_line_tolerated(self, tmp_path):
        # A crash mid-append leaves a half-written last line; loading
        # must salvage everything before it rather than refuse the file.
        path = tmp_path / "run.jsonl"
        self.write_journal(path)
        with open(path, "a") as fh:
            fh.write('{"kind": "result", "key": "b", "dig')
        data = load_journal(path)
        assert data.truncated
        assert data.completed_keys() == ["a"]

    def test_mid_file_corruption_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self.write_journal(path)
        lines = path.read_text().splitlines()
        lines[2] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            load_journal(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "task", "key": "a"}\n')
        with pytest.raises(ValueError, match="header"):
            load_journal(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        header = {"kind": "journal", "journal_version": 99, "run_type": "t"}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_journal(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_journal(path)


class TestTornChecksumFooter:
    """A torn final line cut *inside* the per-entry ``check`` field.

    ``check`` sorts early in the serialized record, so a crash
    mid-append routinely tears through the checksum itself. Every such
    prefix must read as a benign torn tail (never a checksum
    IntegrityError, never an uncaught parse error), while a line that
    parses *completely* but carries a wrong checksum must still be
    rejected as corruption.
    """

    def intact_journal(self, tmp_path, name="run.jsonl"):
        path = tmp_path / name
        with RunJournal(path, run_type="t") as journal:
            journal.task("cell-1", {"x": 1})
            journal.result("cell-1", 1, "d1")
        return path

    def entry_line(self):
        from repro.runs.integrity import checksum_entry

        entry = {"kind": "result", "key": "cell-2", "attempt": 1, "digest": "d2"}
        entry["check"] = checksum_entry(entry)
        return json.dumps(entry, sort_keys=True) + "\n"

    def test_every_cut_inside_check_reads_as_torn_tail(self, tmp_path):
        line = self.entry_line()
        start = line.index('"check"')
        end = line.index('"', line.index(": ", start) + 2) + 13
        for cut in range(start, end):
            path = self.intact_journal(tmp_path, name=f"run-{cut}.jsonl")
            with open(path, "ab") as fh:
                fh.write(line[:cut].encode())
            data = load_journal(path)
            assert data.truncated
            assert data.digests == {"cell-1": "d1"}  # intact prefix kept

    def test_parseable_line_with_damaged_check_is_corruption(self, tmp_path):
        from repro.runs import IntegrityError

        path = self.intact_journal(tmp_path)
        line = self.entry_line()
        flipped = line.replace('"check": "', '"check": "0', 1)
        with open(path, "ab") as fh:
            fh.write(flipped.encode())
        with pytest.raises(IntegrityError, match="checksum"):
            load_journal(path)


class TestRepairTornTail:
    def torn_journal(self, tmp_path):
        from repro.runs import repair_torn_tail  # noqa: F401 - import check

        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="t") as journal:
            journal.task("cell-1", {})
            journal.result("cell-1", 1, "d1")
        self.intact_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "result", "key": "cel')
        return path

    def test_repair_trims_to_last_complete_line(self, tmp_path):
        from repro.runs.journal import repair_torn_tail

        path = self.torn_journal(tmp_path)
        dropped = repair_torn_tail(path)
        assert dropped == 30
        assert path.stat().st_size == self.intact_size
        assert not load_journal(path).truncated

    def test_repaired_journal_appends_cleanly(self, tmp_path):
        # The whole reason repair exists: append-mode reopen after a
        # crash must not glue new records onto the torn fragment.
        path = self.torn_journal(tmp_path)
        with RunJournal(path) as journal:
            journal.result("cell-2", 1, "d2")
        data = load_journal(path)
        assert not data.truncated
        assert data.digests == {"cell-1": "d1", "cell-2": "d2"}

    def test_lost_final_newline_keeps_the_record(self, tmp_path):
        from repro.runs.journal import repair_torn_tail

        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="t") as journal:
            journal.result("cell-1", 1, "d1")
        path.write_bytes(path.read_bytes()[:-1])
        assert repair_torn_tail(path) == 0
        with RunJournal(path) as journal:
            journal.result("cell-2", 1, "d2")
            journal.result("cell-3", 1, "d3")
        data = load_journal(path)
        assert data.digests == {"cell-1": "d1", "cell-2": "d2", "cell-3": "d3"}

    def test_intact_file_untouched(self, tmp_path):
        from repro.runs.journal import repair_torn_tail

        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_type="t") as journal:
            journal.task("cell-1", {})
        before = path.read_bytes()
        assert repair_torn_tail(path) is None
        assert path.read_bytes() == before

    def test_missing_and_empty_files_are_none(self, tmp_path):
        from repro.runs.journal import repair_torn_tail

        assert repair_torn_tail(tmp_path / "absent.jsonl") is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert repair_torn_tail(empty) is None

    def test_real_corruption_still_raises(self, tmp_path):
        from repro.runs import IntegrityError
        from repro.runs.journal import repair_torn_tail

        path = self.torn_journal(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # bit-flip a non-tail byte
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            repair_torn_tail(path)
        with pytest.raises(IntegrityError):
            RunJournal(path)
        assert path.read_bytes() == bytes(raw)
