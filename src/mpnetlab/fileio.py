"""Atomic file outputs: an artifact either appears complete or not at all."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np


@contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """A binary handle on a temp file beside ``path``, written as the block
    runs; the file replaces ``path`` when the block ends and is unlinked when
    it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with replacing(path) as handle:
        handle.write(text.encode("utf-8"))


def atomic_write_rows(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a comma-separated table; fields must not contain commas or newlines."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_savez(path, **arrays) -> None:
    with replacing(path) as handle:
        np.savez(handle, **arrays)


def fmt_float(value: float) -> str:
    """Shortest representation that round-trips through float()."""
    return repr(float(value))
