"""Atomic file outputs: every file lands through :func:`staged`, so a set of
files (a lone file is a set of one) appears complete and all together or not at all."""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


@contextmanager
def staged(out_dir) -> Iterator[Path]:
    """A temp directory inside ``out_dir`` (so that each rename stays on one
    file system) for the block to write a set of files into; when the block
    ends they all move into ``out_dir``, each replacing any file of its name.
    The directory is removed either way: a block that raises moves nothing
    in, and a failed move takes back the files moved before it. Stages nest:
    one made in another's directory lands its files there, in the outer set."""
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


def atomic_write_rows(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a comma-separated table; fields must not contain commas or newlines."""
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    with staged(path.parent) as stage:
        (stage / path.name).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def atomic_savez(path, **arrays) -> None:
    path = Path(path)
    with staged(path.parent) as stage, open(stage / path.name, "wb") as handle:
        np.savez(handle, **arrays)


def fmt_float(value: float) -> str:
    """Shortest representation that round-trips through float()."""
    return repr(float(value))
