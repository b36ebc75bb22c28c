"""A fixed pure-Python probe of how fast the host runs Python right now.

The benchmark's host is shared: the same code runs tens of percent slower
for minutes at a time when neighbours are busy, on each vCPU separately, and
the slowdown shows in process CPU time as much as in wall time.  The probe
below never changes and does not touch the program under test, so the time
it takes measures only the host.  The benchmark samples it while each unit of
work runs, on the same pinned CPU for the serial workloads, and scales the
unit's CPU seconds to the speed of a reference host (see ``README.md``,
"Host-normalised CPU times").

The probe mixes the two kinds of work the workloads do.  Its walk is a
frozen miniature of the simulator's inner loop: slotted entries read and
written by attribute, picked from a shuffled table of a quarter of a million
entries (tens of megabytes, like the simulator's working set, so it waits on
memory as the simulator does), a ring of pending entries retired in order,
and a dictionary keyed by small integers.  Its load is what interpreter
start-up and imports do, which dominate a warm sweep: unmarshal a fixed
module of classes and functions and execute it.  A tight loop over a small
working set was tried first; it swung twice as far as the simulator when the
host's speed changed.

The probe runs in a server process of its own (:class:`ProbeServer`), so its
tables never count towards the benchmark process's memory.
"""

from __future__ import annotations

import marshal
import os
import random
import select
import subprocess
import sys
import time
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Probe CPU seconds on the reference host (a 2-vCPU Intel Xeon VM, CPython
#: 3.11.7: about the median over many runs).  Normalised times are
#: ``measured * REFERENCE_S / probe``.
REFERENCE_S = 0.020

#: One sample per this many seconds while watching: about a tenth of a CPU.
WATCH_PERIOD_S = 0.2

_ENTRIES = 1 << 18
_KEYS = 1 << 16
_STEPS = 4_000
_LOADS = 4


class _Entry:
    __slots__ = ("tag", "ready", "value", "source")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.ready = tag & 3
        self.value = tag * 7
        self.source = (tag * 40503) % _ENTRIES


def _module_source() -> str:
    """A fixed module: 120 small classes, functions and constant tuples."""
    parts = []
    for i in range(120):
        parts.append(
            f"class C{i}:\n"
            f"    '''Class {i}.'''\n"
            f"    x = {i}\n"
            f"    def __init__(self, a, b={i}):\n"
            f"        self.a = a\n"
            f"        self.b = b\n"
            f"    def m(self, k):\n"
            f"        return [self.a + k * j for j in range(3)]\n"
            f"    @property\n"
            f"    def p(self):\n"
            f"        return {{'a': self.a, 'b': self.b, 'n': '{i}'}}\n"
            f"def f{i}(a, *args, key=None, **kw):\n"
            f"    return (a, args, key, kw, {i}, 'str{i}')\n"
            f"T{i} = (1, 2.5, 'x{i}', b'y', None, f{i})\n")
    return "".join(parts)


class Probe:
    """The probe's tables and module, built once, and the fixed work."""

    def __init__(self) -> None:
        self.entries = [_Entry(tag) for tag in range(_ENTRIES)]
        random.Random(1).shuffle(self.entries)
        self.table = {key: key for key in range(_KEYS)}
        self.module = marshal.dumps(compile(_module_source(), "<probe>", "exec"))

    def walk(self) -> int:
        """The fixed work; returns a checksum so nothing is optimised away."""
        entries, table = self.entries, self.table
        pending: List[_Entry] = []
        total = 0
        for cycle in range(_STEPS):
            entry = entries[(cycle * 2654435761) & (_ENTRIES - 1)]
            producer = entries[entry.source]
            if producer.ready <= cycle + 5:
                entry.ready = cycle + (entry.tag & 7)
                total += entry.value ^ cycle
                pending.append(entry)
            key = (entry.value * 31 + cycle) & (_KEYS - 1)
            table[key] = table[key] + (producer.value & 255)
            if len(pending) > 32:
                oldest = pending.pop(0)
                oldest.value = (oldest.value + table[oldest.tag & (_KEYS - 1)]) & 0xFFFF
        return total

    def load(self) -> None:
        """Unmarshal and execute the fixed module, as an import does."""
        for _ in range(_LOADS):
            exec(marshal.loads(self.module), {"__name__": "probe"})

    def sample(self) -> float:
        """Process CPU seconds of one walk and one load.

        CPU time leaves out time the hypervisor gave to other guests (steal)
        and time spent waiting for a CPU.
        """
        start = time.process_time()
        self.walk()
        self.load()
        return time.process_time() - start


class ProbeServer:
    """The probe in a child process.

    ``watch()`` starts sampling in the background: one sample every
    :data:`WATCH_PERIOD_S`, while the benchmark's unit of work runs beside
    it; ``stop()`` ends the watch and returns its samples.  Use the server as
    a context manager: leaving the block stops the child and waits for it, on
    every path out.
    """

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "ProbeServer":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        return self

    def watch(self) -> None:
        assert self.proc is not None and self.proc.stdin
        self.proc.stdin.write("watch\n")

    def stop(self) -> List[float]:
        assert self.proc is not None and self.proc.stdin and self.proc.stdout
        self.proc.stdin.write("stop\n")
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the host probe process ended")
        return [float(value) for value in reply.split()]

    def during(self, action: Callable[[], T]) -> Tuple[T, List[float]]:
        """Run ``action`` under a watch; its result and the samples."""
        self.watch()
        try:
            result = action()
        finally:
            samples = self.stop()
        return result, samples

    def __exit__(self, *exc) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def serve() -> None:
    """Sample from each ``watch`` line on stdin to the next ``stop`` line,
    then print the samples on one line.  At least one sample is taken."""
    probe = Probe()
    stdin = sys.stdin.fileno()
    pending = b""  # read from stdin unbuffered, so select() sees every line

    def next_line(block: bool) -> bytes:
        nonlocal pending
        while b"\n" not in pending:
            if not block and not select.select([stdin], [], [], 0)[0]:
                return b""
            chunk = os.read(stdin, 256)
            if not chunk:
                return b"eof\n"
            pending += chunk
        line, pending = pending.split(b"\n", 1)
        return line + b"\n"

    while next_line(block=True) == b"watch\n":
        samples = []
        while True:
            begin = time.perf_counter()
            samples.append(probe.sample())
            if next_line(block=False):  # "stop"
                break
            idle = WATCH_PERIOD_S - (time.perf_counter() - begin)
            if b"\n" not in pending:
                select.select([stdin], [], [], max(idle, 0.0))
        print(" ".join(f"{sample:.9f}" for sample in samples), flush=True)


if __name__ == "__main__":
    serve()
