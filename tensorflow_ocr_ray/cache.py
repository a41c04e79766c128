"""Driver-side caching policy, in one place.

Three parts, shared by every query family that caches:

- :func:`table_fingerprint` answers "has this input changed?" for one
  parquet table of an sf dir: md5 of (absolute dir, file size, mtime).
- :func:`build_once` publishes a directory once per name: build into a
  scratch dir, mark it ``_SUCCESS``, rename it into place.  On-disk
  indexes and exports carry the input fingerprint in their name, so a
  rewritten table gets a new directory instead of a stale one, and
  publishing a directory removes the ones whose table was rewritten or
  deleted since they were built.
- :func:`memo` keeps one in-process value per ``(name, params)``
  together with the fingerprint of its input.  A changed fingerprint
  rebuilds the entry and releases the old value, so a rewritten table
  never serves (or pins) the result computed from its old contents.
  :func:`clear` drops every entry.

Per-worker caches (broadcast objects, per-process OCR stages) are not
driver policy and live next to the code that uses them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Callable, Hashable

INDEX_ROOT = "/tmp/tensorflow_ocr_ray_indexes"
EXPORT_ROOT = "/tmp/tensorflow_ocr_ray_exports"


def table_fingerprint(sf_dir: str, table: str) -> str:
    """12 hex digits that change whenever ``{sf_dir}/{table}.parquet``
    is rewritten (its size or mtime changes)."""
    st = os.stat(f"{sf_dir}/{table}.parquet")
    return hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{st.st_size}:{st.st_mtime_ns}".encode()
    ).hexdigest()[:12]


def build_once(root: str, name: str, build: Callable[[str], object],
               source: tuple[str, str]) -> str:
    """Return ``root/name``, running ``build(tmp)`` first unless a
    finished copy exists.  ``build`` fills a fresh scratch directory;
    only after it returns is the directory marked ``_SUCCESS`` and
    renamed into place, so readers never see a partial build and a
    build that raises publishes nothing.  Concurrent builders race
    benignly: the contents are deterministic, and the loser of the
    rename discards its own copy.

    ``source`` is the ``(sf_dir, table)`` the directory is built from,
    and ``name`` is a template whose ``{fp}`` becomes that table's
    fingerprint.  The directory records its source and template in
    ``_SOURCE``; publishing it collects the stale directories under
    ``root`` (see :func:`_collect_stale`)."""
    sf_dir, table = source
    record = f"{os.path.abspath(sf_dir)}/{table}.parquet\n{name}\n"
    name = name.format(fp=table_fingerprint(sf_dir, table))
    d = os.path.join(root, name)
    if os.path.exists(os.path.join(d, "_SUCCESS")):
        return d
    tmp = f"{d}.build-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        build(tmp)
        with open(os.path.join(tmp, "_SOURCE"), "w") as f:
            f.write(record)
        with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
            f.write("ok")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    try:
        os.rename(tmp, d)
    except OSError:  # another process won the race; its copy is equal
        shutil.rmtree(tmp, ignore_errors=True)
    _collect_stale(root, name)
    return d


def _current_name(path: str, template: str) -> str | None:
    """The name ``template`` gives for the table file at ``path`` today,
    or None if that file is gone."""
    sf_dir, table = os.path.split(path)
    try:
        return template.format(
            fp=table_fingerprint(sf_dir, table.removesuffix(".parquet")))
    except FileNotFoundError:
        return None


def _collect_stale(root: str, name: str) -> None:
    """Remove the published directories under ``root``, other than
    ``name``, that no current table maps to: their recorded source file
    is gone, or it was rewritten since, so its fingerprint no longer
    gives their name.  Directories of unchanged tables (of any sf dir or
    template) stay, and so do other builders' ``.build-<pid>`` scratch
    directories.  A builder whose table was rewritten while it built
    thus never removes the directory of the newer contents."""
    for other in os.listdir(root):
        if other == name or ".build-" in other:
            continue
        try:
            with open(os.path.join(root, other, "_SOURCE")) as f:
                path, template = f.read().splitlines()
        except (OSError, ValueError):  # no build-once record
            continue
        if _current_name(path, template) != other:
            shutil.rmtree(os.path.join(root, other), ignore_errors=True)


_ENTRIES: dict[tuple, tuple[Hashable, object]] = {}


def memo(name: str, params: tuple, fingerprint: Hashable,
         build: Callable[[], object]):
    """The value of ``build()`` for ``(name, params)``, computed once
    per input ``fingerprint`` in this process."""
    key = (name, params)
    hit = _ENTRIES.get(key)
    if hit is not None and hit[0] == fingerprint:
        return hit[1]
    _ENTRIES.pop(key, None)  # release the stale value before rebuilding
    value = build()
    _ENTRIES[key] = (fingerprint, value)
    return value


def clear() -> None:
    """Drop every memo entry (on-disk build-once directories stay)."""
    _ENTRIES.clear()
