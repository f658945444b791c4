"""The time series, ``timeseries.csv``: its columns, the chunks of rows
that one kernel call formats, and the processes that format them into its
file while the run goes on.  ``cli.write_timeseries`` and
``cli._cmd_simulate`` start them.  Every series is written this way, on one
CPU by this process alone.

A row holds t, the states (pu), the bus voltage (V) and the currents (A,
alpha/beta and three-phase through the inverse Clarke transform), each with
17 significant digits.  Imported on first use, and importing the CSV
kernel itself, so that importing the package compiles neither.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import math
import mmap
import os
import struct
import tempfile
import threading
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, Optional

import numpy as np

from ._csvtext import Workspace, csv_lines
from .engine import Scenario, Trajectory

_WORDS = struct.Struct("<4q")
# values per call of the CSV kernel (at least one row): each call has
# ~0.1 ms of fixed cost (105 us for 3 values, 9 of them the distinct-column
# gate), which more values per call spread thinner, but
# each formatting process holds ~290 bytes a value of buffers (4.7 MB here),
# and touches each of their pages once a write; over the 1,001 rows at
# N = 100 a pass took 106, 95, 90, 87 and 85 ms at 8192, 12288, 16384, 24576
# and 32768 values, and in the benchmark's wide-n100 24576 ran no faster
# than 16384 (wall_rel 1.178 against 1.167, 4 pairs)
_CSV_CHUNK_VALUES = 16384

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0     # inverse Clarke transform


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        return os.cpu_count() or 1


def _rows_per_call(n: int) -> int:
    """Rows per CSV kernel call for n inverters: 7n + 3 values a row."""
    return max(1, _CSV_CHUNK_VALUES // (7 * n + 3))


def _format_rows(traj: Trajectory, chunks: Iterable[tuple[int, int]]
                 ) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, text)`` for each chunk ``(start, stop)`` that
    ``chunks`` yields: the CSV text of rows ``start:stop``, formatted by one
    kernel call with the bus voltage and currents of those rows computed
    there.  The block and the kernel's buffers are allocated once, for the
    first chunk, which no later one outgrows; each text is a view of them,
    valid until the next chunk is drawn."""
    n = traj.n
    # the block holds each distinct column once: i_a_k is i_alpha_k, so the
    # kernel formats it once and gathers its text twice
    i = 2 * n + 3
    order = np.arange(7 * n + 3)
    order[i + 2 * n::3] = np.arange(i, i + 2 * n, 2)
    order[i + 2 * n + 1::3] = np.arange(i + 2 * n, i + 4 * n, 2)
    order[i + 2 * n + 2::3] = np.arange(i + 2 * n + 1, i + 4 * n, 2)
    w = None
    for first, stop in chunks:
        if w is None:
            w = Workspace(stop - first, 6 * n + 3, order)
            products = np.empty((stop - first, n))
        rows = slice(first, stop)
        x, (v_o, currents) = traj.x[rows], traj.bus_and_currents(rows)
        re, im = currents.real, currents.imag
        block, product = w.block[:len(x)], products[:len(x)]
        block[:, 0] = traj.t[rows]
        block[:, 1:i - 2:2] = x.real
        block[:, 2:i - 2:2] = x.imag
        block[:, i - 2] = v_o.real
        block[:, i - 1] = v_o.imag
        block[:, i:i + 2 * n:2] = re
        block[:, i + 1:i + 2 * n:2] = im
        # -0.5*re + SQRT3_OVER_2*im and -0.5*re - SQRT3_OVER_2*im
        np.multiply(im, SQRT3_OVER_2, out=product)
        np.multiply(re, -0.5, out=block[:, i + 2 * n::2])
        block[:, i + 2 * n::2] += product
        np.multiply(re, -0.5, out=block[:, i + 2 * n + 1::2])
        block[:, i + 2 * n + 1::2] -= product
        yield first, stop, csv_lines(w, len(x))


def _header(n: int) -> bytes:
    """The time series' header line for ``n`` inverters."""
    header = ["t"]
    header += [f"x_{ax}_{k}" for k in range(1, n + 1) for ax in ("alpha", "beta")]
    header += ["v_o_alpha", "v_o_beta"]
    header += [f"i_{ax}_{k}" for k in range(1, n + 1) for ax in ("alpha", "beta")]
    header += [f"i_{ph}_{k}" for k in range(1, n + 1) for ph in ("a", "b", "c")]
    return (",".join(header) + "\n").encode()


def _partial(path: Path) -> Path:
    """A new name beside ``path`` under which its contents are written, to
    be renamed to ``path`` once complete: a run killed before that leaves
    no ``path`` of its own, and an earlier file there as it was."""
    return path.with_name(f".{path.name}.{os.urandom(8).hex()}.part")


class Stream:
    """The processes that format one series into its file, and what they
    share.

    The rows are formatted in chunks of one kernel call: chunk [a, b) once
    row b is final, for that is the padding row ``bus_and_currents`` reads,
    or the run has ended at b.  The processes share ``board``, a temporary
    file that holds the first row no process has claimed, the run's final
    length (-1 while it runs), the number of rows final so far, the first
    row not yet placed in the file and its byte offset, and then, for each
    chunk, where it is parked.  A process reads and writes it under a POSIX
    lock on its byte 0.  A chunk formatted when the rows before it are
    placed is written into the file at once, after them; any other is
    parked in its process's temporary file, and the process that places the
    rows before it copies it.  So the bytes do not depend on the number of
    processes.

    Before it forks the children, this process locks byte 1 + r of the
    board for every row r (a record lock is not inherited), and ``publish``
    unlocks the bytes of the rows it counts final after it has written the
    count.  A child that needs row r waits for a shared lock on its byte,
    and exits when no chunk is left.  The kernel releases the locks of a
    process that dies, so a child that wakes to an unchanged count while
    the run has not ended knows the run process is gone, and exits too.
    The processes number one per CPU this process may run on or one per
    chunk, whichever is fewer, this one among them; with other threads
    running this one alone (``fork`` is unsafe then).  This process
    formats chunks once the run has ended (``finish``); with no children
    it formats every chunk and places each in turn, and its affinity mask
    is left alone.  The series is written under a ``_partial`` name and
    renamed to its path once complete.  The other temporary files are
    unlinked, in the output's directory, and vanish with their holders.
    """

    def __init__(self, traj: Trajectory, path: str | Path):
        self.traj, self.path = traj, Path(path)  # simulate records into traj
        self.step = _rows_per_call(traj.n)
        self.complete = False
        self.pids: list[int] = []
        self.failed: list[int] = []     # the children's nonzero exit codes
        self.temps: list[IO[bytes]] = []
        self.board: Optional[IO[bytes]] = None
        self.temp = _partial(self.path)     # the series until complete
        self.out: Optional[int] = None
        self.mask: set[int] = set()
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    @classmethod
    def recording(cls, scenario: Scenario, path: str | Path) -> Stream:
        """The processes for the series of a run of ``scenario`` about to
        start, forked before it with the trajectory it records into
        (``traj``) over an anonymous shared mmap, so that they format its
        rows while it runs."""
        rows, n = scenario.n_steps + 1, scenario.n
        x = np.frombuffer(mmap.mmap(-1, 16 * rows * n), complex).reshape(rows, n)
        return cls(Trajectory(np.arange(rows) * scenario.dt, x, scenario),
                   path)

    def _start(self) -> None:
        header = _header(self.traj.n)
        self.out = os.open(self.temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666)
        self._write(self.out, header, 0)
        temp = functools.partial(tempfile.TemporaryFile, dir=self.path.parent)
        self.board = temp()
        chunks = -(-len(self.traj.t) // self.step)
        os.ftruncate(self.board.fileno(), _WORDS.size * (chunks + 3))
        self._write(self.board.fileno(),
                    struct.pack("<5q", 0, -1, 0, 0, len(header)), 0)
        fcntl.lockf(self.board, fcntl.LOCK_EX, 0, 1)    # every row's byte
        children = (0 if threading.active_count() > 1
                    else min(_usable_cpus(), chunks) - 1)
        self.temps = [temp() for _ in range(children + 1)]
        # each process on a CPU of its own, round robin over this process's
        # mask: left to the scheduler, two forked processes may share one
        # CPU for their first ~0.3-1 s; a process alone is not pinned, for
        # OpenBLAS threads in it would share its one CPU
        if children and hasattr(os, "sched_setaffinity"):
            self.mask = os.sched_getaffinity(0)
        cpus = sorted(self.mask)
        for k in range(1, children + 1):
            pid = os.fork()
            if pid == 0:
                self._child(k)
            self.pids.append(pid)
            if cpus:
                os.sched_setaffinity(pid, {cpus[k % len(cpus)]})
        if cpus:
            os.sched_setaffinity(0, {cpus[0]})

    def _child(self, k: int) -> NoReturn:
        """Format chunks in this forked child until none is left, and end
        the process.

        It always leaves through ``os._exit``: no atexit hook runs and no
        buffer inherited from the parent is flushed.  Exit status 0 means
        every chunk it claimed is placed or parked.
        """
        status = 1
        try:
            self._format(k)
            status = 0
        except Exception as err:
            os.write(2, f"error: {self.path}: {err!r}\n".encode())
        finally:
            os._exit(status)

    @contextlib.contextmanager
    def _locked(self) -> Iterator[int]:
        # byte 0 alone: a lock of the whole file would take in the rows'
        # bytes, and its unlock release them
        fcntl.lockf(self.board, fcntl.LOCK_EX, 1, 0)
        try:
            yield self.board.fileno()
        finally:
            fcntl.lockf(self.board, fcntl.LOCK_UN, 1, 0)

    def _claims(self) -> Iterator[tuple[int, int]]:
        """Each chunk this process claims, a child waiting until it is
        final; this process claims only after the run has ended, and never
        waits."""
        waited = -1                 # the count when this process last waited
        while True:
            with self._locked() as board:
                first, end, rows = struct.unpack("<3q", os.pread(board, 24, 0))
                stop = first + self.step
                if end >= 0:
                    stop = min(stop, end)
                ready = first < stop and (end >= 0 or stop < rows)
                if ready:
                    os.pwrite(board, stop.to_bytes(8, "little"), 0)
            if ready:
                if 0 <= end < len(self.traj.t):
                    # a diverged run is cut at its last finite row: the
                    # trajectory it raises with keeps its segments
                    self.traj.t, self.traj.x = (self.traj.t[:end],
                                                self.traj.x[:end])
                yield first, stop
            elif end >= 0 or rows == waited:    # none left, or no run
                return
            else:                   # until row stop is final
                waited = rows
                fcntl.lockf(self.board, fcntl.LOCK_SH, 1, 1 + stop)
                fcntl.lockf(self.board, fcntl.LOCK_UN, 1, 1 + stop)

    def _format(self, k: int) -> None:
        """Format the chunks that process ``k`` (0 is this one) claims, and
        place or park each."""
        temp, parked = self.temps[k].fileno(), 0
        for first, stop, text in _format_rows(self.traj, self._claims()):
            at = self._place(first, stop, len(text))
            if at < 0:
                self._write(temp, text, parked)
                at = self._place(first, stop, len(text), (k, parked))
                if at < 0:
                    parked += len(text)
                    continue
            self._write(self.out, text, at)
            self._copy_parked()

    def _place(self, first: int, stop: int, size: int,
               parked: Optional[tuple[int, int]] = None) -> int:
        """The offset in the file at which the ``size`` bytes of rows
        ``first:stop`` go if the rows before them are placed, and they are
        placed then; else -1, with the chunk recorded as parked at
        ``parked`` (process, offset in its file) if that is given."""
        with self._locked() as board:
            row, offset = struct.unpack("<2q", os.pread(board, 16, 24))
            if row == first:
                os.pwrite(board, struct.pack("<2q", stop, offset + size), 24)
                return offset
            if parked is not None:
                os.pwrite(board, _WORDS.pack(parked[0] + 1, parked[1], size,
                                             stop), self._record(first))
            return -1

    def _record(self, row: int) -> int:
        return _WORDS.size * (2 + row // self.step)

    def _copy_parked(self) -> None:
        """Copy the parked chunks that follow the placed rows into the
        file."""
        while True:
            with self._locked() as board:
                row, offset = struct.unpack("<2q", os.pread(board, 16, 24))
                owner, at, size, stop = _WORDS.unpack(
                    os.pread(board, _WORDS.size, self._record(row)))
                if row % self.step or not owner:    # the end, or not parked
                    return
                os.pwrite(board, struct.pack("<2q", stop, offset + size), 24)
            text = os.pread(self.temps[owner - 1].fileno(), size, at)
            if len(text) != size:
                raise OSError(f"{self.path}: rows {row}..{stop - 1} were cut "
                              "short")
            self._write(self.out, text, offset)

    def _write(self, fd: int, data, offset: int) -> None:
        """All of ``data`` into the file ``fd`` at ``offset``."""
        if os.pwrite(fd, data, offset) != len(data):
            raise OSError(f"{self.path}: a write was cut short")

    def publish(self, rows: int, ended: bool) -> None:
        """Rows 0..rows-1 of the run are final, and with ``ended`` the run
        ends with them.  Called by ``simulate`` after each checked block."""
        with self._locked() as board:
            os.pwrite(board, struct.pack("<2q", rows if ended else -1, rows),
                      8)
        fcntl.lockf(self.board, fcntl.LOCK_UN, 0 if ended else rows, 1)

    def finish(self) -> None:
        """End the run with the rows of ``traj`` (again, if ``simulate``
        has), format in this process the chunks that no child has claimed,
        and reap the children once every chunk is in the file.  Raises
        OSError naming the file when rows were not formatted or a child
        failed."""
        self.publish(len(self.traj.t), True)
        self._format(0)
        self._reap()
        rows = len(self.traj.t)
        row = int.from_bytes(os.pread(self.board.fileno(), 8, 24), "little")
        if row < rows:
            raise OSError(f"{self.path}: rows {row}..{rows - 1} were not "
                          "formatted")
        if self.failed:
            raise OSError(f"{self.path}: a formatting process failed (exit "
                          f"status {self.failed[0]})")
        os.replace(self.temp, self.path)
        self.complete = True

    def _reap(self) -> None:
        while self.pids:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pids[0], 0)[1])
            del self.pids[0]
            if code:
                self.failed.append(code)

    def close(self) -> None:
        """Stop and reap the children, restore this process's affinity
        mask and close the files; the series' file is removed unless
        ``finish`` completed it and renamed it to its path.  A child exits
        once no chunk is left for it: at once when the run was given up.
        Safe to call again."""
        if not self.complete and self.board is not None:
            with self._locked() as board:   # no chunk is left
                os.pwrite(board, (0).to_bytes(8, "little"), 8)
            fcntl.lockf(self.board, fcntl.LOCK_UN, 0, 1)
        self._reap()
        if self.mask:
            os.sched_setaffinity(0, self.mask)
            self.mask = set()
        for f in self.temps + ([] if self.board is None else [self.board]):
            f.close()
        self.temps, self.board = [], None
        if self.out is not None:
            os.close(self.out)
            self.out = None
            if not self.complete:
                self.temp.unlink()
