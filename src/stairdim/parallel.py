"""A function over a list of items, each item claimed by the first free process.

:func:`run_claimed` is how a sweep runs its walks on every usable CPU. The
calling process claims item 0, then forks one child per further CPU; every
process, the caller included, takes the next unclaimed index whenever it is
free, so a slower CPU runs fewer items and none idles while items are left.
The next index is a counter in an anonymous file (a memfd, so Linux only)
that the children inherit, behind an fcntl record lock, which the kernel
drops if its holder dies. No process claims an item once one has raised.

Each child sends ``{index: result | error}`` back over a pipe and leaves
through ``os._exit``, so it never returns into the caller's frames. Children
are forked: they start at once, without importing the package again, and see
the caller's module state, replaced names included. A fork copies only the
calling thread, so with another thread alive the caller runs every item
itself. The module is imported only by a sweep, so that the commands that
never sweep never load it.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import threading
from typing import Callable, NoReturn


def _claim(counter: int, items: int, failed: bool = False) -> int | None:
    """The next unclaimed index from ``counter``, or None when none is left.

    The first 8 bytes of the file ``counter`` hold the next unclaimed index
    (an empty file holds 0). ``failed`` claims every item left, so that no
    process claims an item after one has raised.
    """
    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        i = int.from_bytes(os.pread(counter, 8, 0), "little")
        os.pwrite(counter, (items if failed else min(i + 1, items)).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)
    return None if failed or i == items else i


def _claimed_results(fn: Callable, items: list, counter: int, i: int | None) -> dict:
    """``fn`` of item ``i`` and of each item claimed after it, or the error of one that raises.

    The error is kept, not raised, so that the caller can raise the one of
    the first failed item in order, whichever process ran it.
    """
    done = {}
    while i is not None:
        try:
            done[i] = fn(items[i])
        except Exception as exc:
            done[i] = exc
        i = _claim(counter, len(items), isinstance(done[i], Exception))
    return done


def _send_claimed_results(fn: Callable, items: list, counter: int, pipe: int) -> NoReturn:
    """A forked child's whole run: claim items, send what they gave over ``pipe``, and exit.

    It exits 0 only once everything is sent, and never returns into the
    caller's frames, whatever it raises.
    """
    code = 1
    try:
        done = _claimed_results(fn, items, counter, _claim(counter, len(items)))
        with open(pipe, "wb") as out:
            pickle.dump(done, out)
        code = 0
    finally:
        os._exit(code)


def run_claimed(fn: Callable, items: list, cpus: int) -> dict:
    """``{index: fn(items[index]) or the exception it raised}``, run by up to ``cpus`` processes.

    Every item before the first one that raised has its result; items after
    it may have none. A child that dies raises ValueError. Every child is
    reaped before this returns or raises; one still running is killed.
    """
    cpus = max(1, min(cpus, len(items)))
    if threading.active_count() > 1:  # a fork would copy only this thread
        cpus = 1
    counter = os.memfd_create("stairdim-claims")
    children = {}  # pid: the read end of the pipe that child sends on
    try:
        first = _claim(counter, len(items))
        for _ in range(cpus - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)  # so that the child's send fails, not blocks, once this process is gone
                _send_claimed_results(fn, items, counter, w)
            os.close(w)
            children[pid] = open(r, "rb")
        done = _claimed_results(fn, items, counter, first)
        for pipe in children.values():
            try:  # read to the end: the child has sent everything and exited, or died
                done.update(pickle.loads(pipe.read()))
            except (EOFError, pickle.UnpicklingError):
                raise ValueError("a sweep worker process died before it returned its walks") from None
        return done
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a child that has exited stays a zombie until reaped
            os.waitpid(pid, 0)
        os.close(counter)
