"""Common exception types, the one JSON reader for every input file, the
checks that config classes and input files share, and the package's one way
to use a second CPU: ``Forked``, a forked child behind the ``can_fork`` gate,
which ``run_split`` uses to hand half of a stage's work to the child."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import pickle
import reprlib
import select
import signal
import sys


class PhonosimError(Exception):
    """Base class for all toolkit errors."""


class ManifestError(PhonosimError):
    """Corpus manifest fails to parse or violates an invariant."""


class AudioError(PhonosimError):
    """Audio file cannot be decoded or is unusable."""


class FeatureIOError(PhonosimError):
    """Feature file is malformed or truncated."""


class CheckpointError(PhonosimError):
    """Model checkpoint file is malformed."""


class DataError(PhonosimError):
    """Dataset is empty, inconsistent, or produced a non-finite value."""


def read_json(path, what: str, error: type[PhonosimError] = PhonosimError):
    """The JSON document in ``path``, read as UTF-8.

    A file that cannot be opened, is not UTF-8, is not valid JSON or nests
    too deeply for the parser raises ``error``, naming ``what`` and the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise error(f"cannot parse {what} {path}: {exc}") from None


def check_name(name: str, what: str, limit: int, error=PhonosimError, banned=()) -> None:
    """Raise ``error`` unless ``name`` can be one file-name component: 1 to
    ``limit`` characters, no leading dot, no ``/``, ``\\``, NUL or ``banned``."""
    bad = ("/", "\\", "\0", *banned)
    if not 0 < len(name) <= limit or name[0] == "." or any(b in name for b in bad):
        raise error(
            f"{what} {reprlib.repr(name)} must be 1-{limit} characters, must not "
            f"start with '.' and must not contain {', '.join(map(repr, bad))}"
        )


def check_seed(seed: int) -> None:
    """Raise ``DataError`` for a seed that NumPy's ``SeedSequence`` rejects."""
    if seed < 0:
        raise DataError("seed must be >= 0")


def check_numeric_fields(config) -> None:
    """Raise ``DataError`` unless every field of a dataclass is a finite number.

    A field annotated ``int`` takes integers only; any other field takes
    integers or floats.  A bool is neither, and neither is an integer too
    large for a float.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        kind = numbers.Integral if f.type in ("int", int) else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise DataError(
                f"{type(config).__name__}.{f.name} must be "
                f"{'an integer' if kind is numbers.Integral else 'a number'}, "
                f"got {reprlib.repr(value)}"
            )
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise DataError(
                f"{type(config).__name__}.{f.name} must be finite, got {reprlib.repr(value)}"
            )


def can_fork() -> bool:
    """Whether a ``Forked`` child may work beside this process: it may use
    two or more CPUs, has ``os.fork`` and is not a daemonic
    ``multiprocessing`` worker (read without importing ``multiprocessing``)."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    mp = sys.modules.get("multiprocessing")
    return len(cpus) >= 2 and hasattr(os, "fork") and not (mp and mp.current_process().daemon)


class Forked:
    """A forked child that calls ``fn()`` with SIGINT ignored (the caller
    handles Ctrl-C) and ends with ``os._exit``, so that it never unwinds into
    the caller's stack or flushes the caller's stdio.  ``poll`` and ``join``
    raise the child's exception again in the caller, sent pickled through a
    pipe, or a ``PhonosimError`` if it failed without one.  When the ``with``
    block ends, the child is killed if it still runs, and reaped."""

    def __init__(self, fn):
        self._read, write = os.pipe()
        try:
            self.pid, self._status = os.fork(), None
        except OSError:  # e.g. EAGAIN: no process can be made
            os.close(self._read)
            os.close(write)
            raise
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                fn()
                os._exit(0)
            except Exception as exc:
                with open(write, "wb") as fh:
                    fh.write(pickle.dumps(exc))
            finally:
                os._exit(1)
        os.close(write)

    def poll(self) -> bool:
        """False while the child runs and has sent no error; else ``join``,
        then True.  It asks the pipe, not ``waitpid``: a child whose error is
        larger than the pipe holds cannot end until ``join`` reads it."""
        if self._status is None and not select.select([self._read], [], [], 0)[0]:
            return False
        self.join()
        return True

    def join(self) -> None:
        """Wait for the child to end; raise its error if it failed."""
        with open(self._read, "rb", closefd=False) as fh:
            report = fh.read()
        if self._status is None:
            self._status = os.waitpid(self.pid, 0)[1]
        if report:
            raise pickle.loads(report)
        code = os.waitstatus_to_exitcode(self._status)
        if code != 0:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise PhonosimError(f"forked worker {how} without reporting an error")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self._read)
        if self._status is None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def run_split(fn, tasks) -> None:
    """Call ``fn`` on every item of the sequence ``tasks``.  Where
    ``can_fork()``, a ``Forked`` child takes the odd-indexed items and the
    caller the even-indexed ones, and the child's error is raised before the
    caller's next item.  ``fn`` may only write files: nothing it returns or
    changes in memory comes back from the child."""
    if len(tasks) < 2 or not can_fork():
        for task in tasks:
            fn(task)
        return
    with Forked(lambda: [fn(task) for task in tasks[1::2]]) as child:
        for task in tasks[::2]:
            child.poll()
            fn(task)
        child.join()
