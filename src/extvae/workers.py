"""Forked workers on the usable CPUs: work is cut into contiguous blocks, one
per CPU; workers take blocks 1.. while the parent takes block 0 and joins them
in order.  Forked, so that a worker reads its inputs where they lie."""

from __future__ import annotations

import os
import signal

_PIPE_BYTES = 1 << 16             # what a Linux pipe holds


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def block_edges(items: int, work: int, min_work: int) -> list[int]:
    """Item edges of the blocks for ``items`` items holding ``work`` units:
    one block per usable CPU, each of at least ``min_work`` units."""
    n = max(1, min(usable_cpus(), work // min_work, items))
    return [k * items // n for k in range(n + 1)]


class Workers:
    """Forked block workers.  Each writes the buffers its work returns to a
    pipe and leaves by os._exit: 0 when done, 1 when the work raised.
    Leaving the ``with`` block kills and reaps every worker not yet reaped.
    A worker may call BLAS: numpy's OpenBLAS, on pthreads, shuts its thread
    pool down in a pthread_atfork handler before each fork, so no worker
    inherits a lock a pool thread held."""

    def __init__(self, name: str):
        self.name, self.pipes = name, {}          # pid -> the pipe's read end

    def __enter__(self):
        return self

    def start(self, work, *args) -> int:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r), os.close(w)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    pipe.writelines(work(*args))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.pipes[pid] = r
        return pid

    def chunks(self, pid: int):
        """The bytes the worker writes, as they arrive, until it closes its pipe."""
        while data := os.read(self.pipes[pid], _PIPE_BYTES):
            yield data

    def reap(self, pid: int) -> bool:
        """Whether the worker did its work; OSError naming it if it died."""
        os.close(self.pipes.pop(pid))
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code not in (0, 1):
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise OSError(f"{self.name} died ({how})")
        return code == 0

    def __exit__(self, *exc) -> None:
        for pid, r in self.pipes.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.pipes.clear()
