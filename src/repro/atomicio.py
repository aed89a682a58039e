"""Atomic JSON file persistence.

One idiom, shared by every subsystem that persists JSON next to
concurrent readers (the sweep result cache and the job service's job
store): serialize to a temp file in the
target directory, then ``os.replace`` onto the final path. ``replace``
is atomic on POSIX and Windows, so a reader opening the path sees
either the complete previous document or the complete new one — never
a torn write — and a crash mid-write leaves the old document intact.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import typing


def atomic_write_json(
    path: typing.Union[str, os.PathLike],
    document: typing.Any,
    *,
    sort_keys: bool = True,
) -> None:
    """Atomically (re)write ``path`` with ``document`` as JSON.

    Parent directories are created as needed. On any failure the temp
    file is removed and the original file (if any) is untouched.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(document, handle, sort_keys=sort_keys)
            handle.write("\n")
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def read_json(path: typing.Union[str, os.PathLike]) -> typing.Optional[typing.Any]:
    """Parse ``path`` as JSON; None if missing, unreadable, or corrupt.

    Tolerant by design: concurrent-writer protocols treat a bad read as
    "not there yet", the same way the sweep cache treats a corrupt
    entry as a miss.
    """
    try:
        return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
