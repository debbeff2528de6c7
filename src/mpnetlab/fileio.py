"""Atomic file outputs: an artifact either appears complete or not at all,
and a staged set of artifacts all together or none of it."""

from __future__ import annotations

import os
import shutil
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


@contextmanager
def staged(out_dir) -> Iterator[Path]:
    """A temp directory inside ``out_dir`` (so that each rename stays on one
    file system) for the block to write a set of files into; when the block
    ends they all move into ``out_dir``. The directory is removed either way:
    a block that raises moves nothing in, and a failed move takes back the
    files moved before it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staged.", suffix=".tmp"))
    moved: list[Path] = []
    try:
        yield stage
        for path in sorted(stage.iterdir()):
            os.replace(path, out_dir / path.name)
            moved.append(out_dir / path.name)
    except BaseException:
        for path in moved:
            path.unlink()
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


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
