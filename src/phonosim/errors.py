"""Common exception types, the one JSON reader for every input file, and
the checks that config classes share."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import reprlib


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
