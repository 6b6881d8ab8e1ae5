"""One forked child beside this process: when to fork, and how.

Two parts of the package split their work between this process and one
child made by `os.fork`: a verify round's dimension groups
(`verification._check_round`) and the rows of a large float array
(`serialize._float_rows`).  Both fork only when `may_fork()` holds, and
both run the child through `child`, so there is one condition and one
mechanism.  `serialize` imports this module only for an array past its
threshold, so `params` and a small `spectrum` never load it.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import io
import os
import signal
import sys
from pathlib import Path

import numpy as np


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels ship, or None.

    numpy has no thread control of its own; any other BLAS runs as configured.
    """
    package = Path(np.__file__).parent
    for path in [*package.parent.glob("numpy.libs/*scipy_openblas*"),
                 *package.glob(".dylibs/*scipy_openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            pass
    return None


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def may_fork() -> bool:
    """Whether work may be split with one forked child.

    It may where the platform forks, the process may run on two or more
    CPUs, and numpy runs the OpenBLAS its wheels ship, whose thread count
    a verify round holds at one (`verification._one_blas_thread`): under a
    BLAS that cannot be held, the workers of two processes spin against
    each other (a forked `run_grid` round took over 20 times as long as one
    process on a 2-core host).
    """
    return hasattr(os, "fork") and usable_cpus() >= 2 and openblas_threads() is not None


@contextlib.contextmanager
def child(work):
    """Fork a child that runs work(pipe); yield the read end of that pipe.

    Where the system has no process or memory to give (os.fork raises
    EAGAIN or ENOMEM), this process runs work into an in-memory buffer
    first and yields that buffer, read from its start: the caller reads
    the same bytes from one process.

    The child writes to `pipe`, a buffered binary file, and never returns
    into the caller: it ends with os._exit, status 0 once work returned
    and the pipe is flushed and closed, 1 if anything raised.  The block
    reads the pipe, and on its way out closes it and waits for the child;
    a status other than 0 raises RuntimeError.  Any exception in the block,
    and the close of a generator suspended in it, kills the child
    (SIGKILL: its result is not wanted) and reaps it before the exception
    propagates.  A fork that raises closes both ends of the pipe first.

    Standard streams are flushed before the fork, so text buffered in them
    is printed once.  The OpenBLAS that numpy ships stops its worker
    threads before a fork (a pthread_atfork handler), so none holds a lock
    the child needs.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = None
    try:
        pid = os.fork()
    except OSError as exc:
        if exc.errno not in (errno.EAGAIN, errno.ENOMEM):
            raise
    finally:
        if pid is None:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        buffer = io.BytesIO()
        work(buffer)
        buffer.seek(0)
        yield buffer
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            # a pipe's capacity: with the default 4 KiB buffer a benchmark
            # `verify-grid` run peaked 0.45 MB higher in RSS
            with os.fdopen(write_fd, "wb", buffering=1 << 16) as pipe:
                work(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            yield pipe
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(
            f"the forked child process ended without its result (wait status {status})")
