"""One NDJSON line encoder, one atomic file writer, one artifact field
reader, and shared names.

Round logs, fuzz traces, CLI diagnostics and CLI error lines are encoded
by :func:`ndjson`; artifacts, round logs, fuzz traces and DOT exports are
written through :func:`atomic_open`.  The fuzz report reader and the
CLI's replay of a fuzz report's ``device`` block take each key through
:func:`read_field`.  The schema ids, basis names and outcome tags
below are re-exported by the modules that produce them (``protocol``,
``fuzz``, ``receivers``) and read by ``qkdlab report``.  Standard library
only, so any module may import it, and ``report`` runs without numpy.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping, Type, Union

SIMULATION_REPORT_SCHEMA = "simulation-report/1"
FUZZ_REPORT_SCHEMA = "fuzz-report/1"

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"
Y_BASIS = "y"

# Outcome interpretation tags.
BIT0 = "bit0"
BIT1 = "bit1"
INVALID = "invalid"
LOSS = "loss"


def ndjson(record: dict) -> str:
    """``record`` as one compact JSON line with sorted keys, no newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def read_field(data: Mapping, key: str, parse: Callable, schema: str,
               error: Type[Exception]):
    """``parse(data[key])``; a missing key or a value ``parse`` rejects
    raises ``error`` naming the key and the ``schema`` of the document."""
    if key not in data:
        raise error(f"{schema} document lacks the key {key!r}")
    try:
        return parse(data[key])
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise error(f"{schema} document has a malformed {key!r} "
                    f"({type(err).__name__}: {err})") from err


@contextmanager
def atomic_open(path: Union[str, Path, None]):
    """A text file that replaces ``path`` only if the block completes.

    Yields None when ``path`` is None.  The file is written next to its
    destination and moved over it in one ``os.replace``; on any
    exception it is removed, so an earlier file at ``path`` survives.
    """
    if path is None:
        yield None
        return
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
