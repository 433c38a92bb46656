"""Common exception types, the one JSON reader for every input file, the
checks that config classes and input files share, the one rule for how many
CPUs the package may use, and ``run_split``, which hands half of a stage's
per-utterance work to a forked child."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import pickle
import reprlib
import signal


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


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def run_split(fn, tasks) -> None:
    """Call ``fn`` on every item of the sequence ``tasks``, half of them in a
    forked child.

    With two or more usable CPUs and two or more tasks, one forked child
    calls ``fn`` on the odd-indexed tasks while the caller takes the
    even-indexed ones; otherwise the caller runs them all in order.  ``fn``
    may only write files: nothing it returns or changes in memory comes back
    from the child.  An exception raised in the child is raised again in the
    caller with its type and message; a child that ends without reporting
    one gives a ``PhonosimError``.  On every path out, Ctrl-C included, the
    child has ended and been reaped.
    """
    if usable_cpus() < 2 or len(tasks) < 2:
        for task in tasks:
            fn(task)
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        _run_child_share(fn, tasks[1::2], read_end, write_end)
    status = None
    try:
        os.close(write_end)
        for task in tasks[::2]:
            fn(task)
        with open(read_end, "rb", closefd=False) as fh:
            report = fh.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        os.close(read_end)
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if report:
        raise pickle.loads(report)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise PhonosimError(f"forked worker {how} without reporting an error")


def _run_child_share(fn, tasks, read_end, write_end):
    """The child's side of ``run_split``: it never returns, so that it
    cannot unwind into the caller's stack or flush the caller's stdio."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
        os.close(read_end)
        try:
            for task in tasks:
                fn(task)
            code = 0
        except Exception as exc:  # raised again in the caller
            with open(write_end, "wb") as fh:
                fh.write(pickle.dumps(exc))
    finally:
        os._exit(code)
