"""Field sample serialization.

Binary layout (little endian): magic b"STWM", u32 format version, u32 d,
u32 n_times, u32 n_points, u32 n_paths, then the float64 values row-major
as (path, time, point), then the time grid, then the space points (row-major
(n_points, d)). The values can be written one chunk of paths at a time
(write_field_chunks), since the header gives every size.

Every output goes through one opener, _overwrite: an existing file keeps
its inode, ends at its new length, and is removed if its write does not
finish. A field file is overwritten in place, not truncated first, since
freeing its blocks costs more than the write that then takes them again; its
header is written last, so a write stopped before it ends (a killed process)
leaves no magic and read_field refuses the file. A CSV has no such mark, so it
is truncated when opened and an unfinished one is short, never the new rows
followed by an older file's.

Every CSV table and printed number of the package goes through
format_number and write_csv: integers as integers, other numbers with '.'
decimals and 17 significant digits, so float64 values round-trip through text.
"""

import contextlib
import itertools
import os
import stat
import struct

import numpy as np

from .kernel import TimeGrid
from .sampler import FieldSample

__all__ = ["write_field", "write_field_chunks", "read_field", "write_field_csv", "write_csv",
           "format_number", "FORMAT_VERSION", "MAGIC"]

MAGIC = b"STWM"
FORMAT_VERSION = 1


@contextlib.contextmanager
def _overwrite(path, mode: str = "wb"):
    """The file object of `path` opened for writing in `mode` ("wb" or "w"),
    created if absent; a text file is truncated when opened, a binary one is
    not. A regular file is cut at the final position when the body ends; if
    the body raises, the file is removed, but only if `path` itself names it
    (not a symlink to it nor an alias such as /dev/stdout), and the error is
    raised on. A pipe or device is neither cut nor removed."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags | (0 if "b" in mode else os.O_TRUNC), 0o666)
    st = os.fstat(fd)
    regular = stat.S_ISREG(st.st_mode)
    try:
        with open(fd, mode) as fh:
            yield fh
            if regular:
                fh.truncate()
    except BaseException:
        with contextlib.suppress(OSError):
            if regular and os.path.samestat(os.lstat(path), st):
                os.remove(path)
        raise


def write_field(path, sample: FieldSample) -> None:
    """Write one field sample: the one-chunk case of write_field_chunks."""
    write_field_chunks(path, sample.values.shape[0], [sample])


def write_field_chunks(path, n_paths: int, chunks) -> None:
    """Write a field file of n_paths paths from `chunks`, an iterable of
    FieldSamples on one time grid and one set of points that hold the paths
    in order: each chunk's values as it comes, then the times, then the
    points, and last the header, in the 24 bytes left zero at the start (a
    pipe, which cannot seek, takes the header first). A chunk can be
    dropped once it is written.

    Sizes that do not fit the header's u32 fields raise ValueError before
    the file is opened. A write that does not finish, because a chunk
    differs from the first in grid or points, the chunks hold another path
    count, the iterable raises or the file system fails, removes the file
    and raises on."""
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        raise ValueError("no chunk to write")
    _, n_times, n_points = first.values.shape
    pts = np.ascontiguousarray(first.space_points, dtype="<f8")
    times = np.ascontiguousarray(first.times.points, dtype="<f8")
    sizes = (pts.shape[1], n_times, n_points, n_paths)
    if not all(0 <= v < 2 ** 32 for v in sizes):
        raise ValueError(f"field file sizes (d, n_times, n_points, n_paths) = {sizes} "
                         f"must each be below 2^32")
    chunks = itertools.chain([first], chunks)
    del first  # every chunk is dropped once it is written
    header = MAGIC + struct.pack("<5I", FORMAT_VERSION, *sizes)
    with _overwrite(path) as fh:
        seekable = fh.seekable()
        fh.write(bytes(24) if seekable else header)
        written = 0
        for chunk in chunks:
            if not (np.array_equal(chunk.times.points, times)
                    and np.array_equal(chunk.space_points, pts)):
                raise ValueError("field chunks differ in their time grid or points")
            # C-contiguous "<f8": its buffer is the bytes, with no copy
            fh.write(np.ascontiguousarray(chunk.values, dtype="<f8"))
            written += chunk.values.shape[0]
        if written != n_paths:
            raise ValueError(f"field chunks hold {written} paths, the header {n_paths}")
        fh.write(times)
        fh.write(pts)
        if seekable:
            end = fh.tell()
            fh.seek(0)
            fh.write(header)
            fh.seek(end)


def read_field(path) -> FieldSample:
    """Read a field file, checking the header's sizes against the file size
    before any array is allocated."""
    with open(path, "rb") as fh:
        header = fh.read(24)
        if header[:4] != MAGIC:
            raise ValueError(f"not a field file, or one whose write did not finish: "
                             f"bad magic {header[:4]!r}")
        if len(header) != 24:
            raise ValueError(f"field file header is truncated ({len(header)} bytes)")
        version, d, n_times, n_points, n_paths = struct.unpack("<5I", header[4:])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported field file version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = 24 + 8 * (n_paths * n_times * n_points + n_times + n_points * d)
        if size != expected:
            raise ValueError(f"field file is {size} bytes, its header implies {expected}")
        # read-only views of the bytes read, with no copy
        values = np.frombuffer(fh.read(8 * n_paths * n_times * n_points), dtype="<f8")
        values = values.reshape(n_paths, n_times, n_points)
        times = np.frombuffer(fh.read(8 * n_times), dtype="<f8")
        pts = np.frombuffer(fh.read(8 * n_points * d), dtype="<f8").reshape(n_points, d)
    return FieldSample(times=TimeGrid(times), space_points=pts, values=values)


def format_number(x) -> str:
    """An integer as itself; any other number as float64 with 17 significant digits."""
    return str(x) if isinstance(x, (int, np.integer)) else format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """CSV file with the column names `header`, then one line per row of
    numbers; `rows` may be a generator, written as it is consumed. A write
    that does not finish, because the rows raise or the file system fails,
    removes the file and raises on."""
    with _overwrite(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_number, row)) + "\n")


def write_field_csv(path, sample: FieldSample) -> None:
    """One row per (path, time); one column per space point."""
    labels = ("x" + "_".join(map(format_number, p)) for p in sample.space_points)
    write_csv(path, ["path", "time", *labels],
              ((p, t, *sample.values[p, it]) for p in range(sample.values.shape[0])
               for it, t in enumerate(sample.times.points)))
