"""The append-only, crash-tolerant run-history store.

One JSONL file, one :class:`~repro.robust.history.RunRecord` per line.
Appends are flushed per record, so a crash can tear at most the final
line — and the loader tolerates exactly that: a trailing record that is
truncated or undecodable is *skipped*, never fatal (the rest of the file
stays usable). This module is the single sanctioned file-access path for
history data (lint rule R008): everything else goes through
:class:`HistoryStore`.

Fault injection
---------------
The store carries the ``history.read`` / ``history.write`` injection
sites. History is an accelerant, never a dependency, and a fault's blast
radius is what it damaged. A failed read degrades the whole store to an
empty history, for every session that shares it: ``degraded_reason``
says why. A failed write drops one run's record: :meth:`HistoryStore.append_run`
raises :class:`HistoryWriteError` to that run's recorder alone
(:func:`~repro.robust.feedback.record_run`, which never raises into the
query path), and the store stays healthy for the next. A ``short_read``
fault on the write side tears the record mid-line on purpose, which is
how the chaos harness exercises the torn-tail recovery against realistic
damage.

Lock discipline
---------------
All index state lives under one private mutex. ``degraded_reason`` is an
immutable value published lock-free (write-guarded): server sessions
read it from under the TickBus sampling lock, and a nested blocking
acquire there would stall every concurrent snapshot (analyzer rule X005).
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path

from repro.common.locks import acquires, assert_owned, guarded_by
from repro.faults.plan import (
    SHORT_READ,
    SITE_HISTORY_READ,
    SITE_HISTORY_WRITE,
    FaultPlan,
    InjectedFault,
)
from repro.robust.history import RunRecord

__all__ = ["HistoryStore", "HistoryWriteError"]


class HistoryWriteError(Exception):
    """One run's record was dropped (a write fault or an I/O error); the
    message says why."""


class HistoryStore:
    """Thread-safe run-history store over one append-only JSONL file.

    Parameters
    ----------
    path:
        The history file. Created on first append; a missing file is an
        empty history, not an error.
    faults:
        Optional :class:`~repro.faults.FaultPlan` arming the
        ``history.read`` / ``history.write`` sites.
    """

    # Lock discipline: the in-memory index (records, per-fingerprint map,
    # load flag, sequence counter, skip count) mutates under ``_lock``;
    # ``degraded_reason`` is written under it but read lock-free (an
    # immutable str swap — see the module docstring).
    _guarded_by_ = {
        "_records": "_lock",
        "_by_fp": "_lock",
        "_loaded": "_lock",
        "_next_seq": "_lock",
        "_skipped": "_lock",
        "_needs_newline": "_lock",
    }
    _write_guarded_by_ = {"degraded_reason": "_lock"}

    def __init__(self, path: str | Path, faults: FaultPlan | None = None):
        self.path = Path(path)
        self.faults = faults
        self._lock = threading.Lock()
        self._records: list[RunRecord] = []
        self._by_fp: dict[str, list[RunRecord]] = {}
        self._loaded = False
        self._next_seq = 1
        self._skipped = 0
        # True when the file may end mid-line (torn tail, short write, or
        # an unreadable load): the next append leads with a newline so the
        # fresh record never concatenates onto the damaged fragment.
        self._needs_newline = False
        #: Why the store's history is unusable — a failed load or clear —
        #: or None while healthy. Lock-free read.
        self.degraded_reason: str | None = None

    # -- loading -------------------------------------------------------------

    @guarded_by("_lock")
    def _load_locked(self) -> None:
        if self._loaded:
            return
        assert_owned(self._lock, "history store lock")
        self._loaded = True
        spec = None
        if self.faults is not None:
            try:
                spec = self.faults.fire(SITE_HISTORY_READ, str(self.path))
            except InjectedFault as exc:
                self.degraded_reason = f"history read fault: {exc}"
                self._needs_newline = True
                return
        if spec is not None and spec.kind == SHORT_READ:
            # A partial read is indistinguishable from an empty history;
            # degrade to an empty one rather than trust half a file.
            self.degraded_reason = "history read fault: short read"
            self._needs_newline = True  # unknown tail state: heal defensively
            return
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return
        except OSError as exc:
            self.degraded_reason = f"history read error: {exc}"
            self._needs_newline = True
            return
        self._needs_newline = bool(text) and not text.endswith("\n")
        lines = text.split("\n")
        for idx, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                record = RunRecord.from_wire(data)
            except (ValueError, KeyError, TypeError):
                # A torn/truncated record — a crash mid-append. Only the
                # trailing line can legitimately tear; anything earlier is
                # equally skippable (the file is append-only, so damage
                # never invalidates the records around it).
                self._skipped += 1
                continue
            self._index_locked(record)
        # File may carry explicit seqs from older stores; keep ours above.
        if self._records:
            self._next_seq = max(r.seq for r in self._records) + 1

    @guarded_by("_lock")
    def _index_locked(self, record: RunRecord) -> None:
        self._records.append(record)
        self._by_fp.setdefault(record.fingerprint, []).append(record)

    # -- appending -----------------------------------------------------------

    @acquires("_lock")
    def append_run(self, record: RunRecord) -> RunRecord:
        """Persist one finished run; returns the record as stored (with the
        seq the store assigned). Raises :class:`HistoryWriteError` when a
        write fault (or a real I/O error) dropped it: the drop belongs to
        this run, not to the store."""
        with self._lock:
            self._load_locked()
            if record.seq == 0:
                record = dataclasses.replace(record, seq=self._next_seq)
            self._next_seq = max(self._next_seq, record.seq) + 1
            payload = json.dumps(record.to_wire(), separators=(",", ":"))
            spec = None
            if self.faults is not None:
                try:
                    spec = self.faults.fire(SITE_HISTORY_WRITE, record.fingerprint)
                except InjectedFault as exc:
                    raise HistoryWriteError(f"history write fault: {exc}") from exc
            torn = spec is not None and spec.kind == SHORT_READ
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a", encoding="utf-8") as fh:
                    if self._needs_newline:
                        # The file ends mid-line (torn tail / short write):
                        # terminate the damaged fragment so this record
                        # starts on its own line. The fragment stays
                        # skippable; it must not eat the fresh append.
                        fh.write("\n")
                    if torn:
                        # Simulate a crash mid-append: half the record, no
                        # newline. The next load must skip this tail.
                        fh.write(payload[: max(1, len(payload) // 2)])
                    else:
                        fh.write(payload + "\n")
                    fh.flush()
            except OSError as exc:
                raise HistoryWriteError(f"history write error: {exc}") from exc
            self._needs_newline = torn
            if torn:
                raise HistoryWriteError("history write fault: short write")
            self._index_locked(record)
            return record

    # -- queries -------------------------------------------------------------

    @acquires("_lock")
    def records(self) -> list[RunRecord]:
        """All records, oldest first (a copy)."""
        with self._lock:
            self._load_locked()
            return list(self._records)

    @acquires("_lock")
    def records_for(self, fingerprint: str) -> list[RunRecord]:
        with self._lock:
            self._load_locked()
            return list(self._by_fp.get(fingerprint, []))

    @acquires("_lock")
    def skipped(self) -> int:
        """Torn/undecodable lines dropped by the loader."""
        with self._lock:
            self._load_locked()
            return self._skipped

    @acquires("_lock")
    def clear(self) -> int:
        """Delete every record (truncates the file); returns the count."""
        with self._lock:
            self._load_locked()
            n = len(self._records)
            self._records = []
            self._by_fp = {}
            self._skipped = 0
            self._next_seq = 1
            self._needs_newline = False
            try:
                if self.path.exists():
                    self.path.write_text("")
            except OSError as exc:
                self.degraded_reason = f"history clear error: {exc}"
            return n

    def __len__(self) -> int:
        with self._lock:
            self._load_locked()
            return len(self._records)
