"""Field sample serialization.

Binary layout (little endian): magic b"STWM", u32 format version, u32 d,
u32 n_times, u32 n_points, u32 n_paths, then the float64 values row-major
as (path, time, point), then the time grid, then the space points (row-major
(n_points, d)).

Every CSV table and printed number of the package goes through
format_number and write_csv: integers as integers, other numbers with '.'
decimals and 17 significant digits, so float64 values round-trip through text.
"""

import os
import struct

import numpy as np

from .kernel import TimeGrid
from .sampler import FieldSample

__all__ = ["write_field", "read_field", "write_field_csv", "write_csv", "format_number",
           "FORMAT_VERSION", "MAGIC"]

MAGIC = b"STWM"
FORMAT_VERSION = 1


def write_field(path, sample: FieldSample) -> None:
    values = np.ascontiguousarray(sample.values, dtype="<f8")
    n_paths, n_times, n_points = values.shape
    pts = np.ascontiguousarray(sample.space_points, dtype="<f8")
    d = pts.shape[1]
    times = np.ascontiguousarray(sample.times.points, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<5I", FORMAT_VERSION, d, n_times, n_points, n_paths))
        for arr in (values, times, pts):  # C-contiguous "<f8": their buffers are the bytes
            fh.write(arr)


def read_field(path) -> FieldSample:
    """Read a field file, checking the header's sizes against the file size
    before any array is allocated."""
    with open(path, "rb") as fh:
        header = fh.read(24)
        if header[:4] != MAGIC:
            raise ValueError(f"not a field file: bad magic {header[:4]!r}")
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
    numbers; `rows` may be a generator, written as it is consumed."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_number, row)) + "\n")


def write_field_csv(path, sample: FieldSample) -> None:
    """One row per (path, time); one column per space point."""
    labels = ("x" + "_".join(map(format_number, p)) for p in sample.space_points)
    write_csv(path, ["path", "time", *labels],
              ((p, t, *sample.values[p, it]) for p in range(sample.values.shape[0])
               for it, t in enumerate(sample.times.points)))
