"""trajectory.csv's header and row formatting, and the helper process that writes
streamed rows.

`csv_header` names trajectory.csv's columns and `format_rows` is its one row
formatter: every value by `repr` (the shortest text that reads back as the same
double), ',' between values and '\\n' after each row.
`attsync.cli.write_trajectory_csv` formats with them in process; `attsync run`
streams each record block of a run to this module run as a script, which builds
the header itself and formats the rows while the run integrates:

    python3 -S csvwriter.py CRAFT TRACKING < stream

CRAFT is the craft count and TRACKING is 1 for a tracking run (a T column), else 0.
The stream, on stdin, is frames: a little-endian (index, byte count) pair of
uint32, then that many bytes.  The first frame holds the paths of the files to
write, each `os.fsencode`d, separated by NUL bytes; its index is their count.
Each later frame holds float64 values, native byte order, whole rows of the
header's width, for the file of its index.  Each file gets the header line,
then the rows of its frames in the order sent.  At end of input the files are
closed and the process exits 0; any error exits non-zero.  The module imports
nothing outside the standard library, and neither json nor numpy, so the
process starts in about the time of a bare interpreter.
"""

from __future__ import annotations

import os
import struct
import sys

FRAME = struct.Struct("<II")  # file index (path count in the first frame), payload bytes


def csv_header(n: int, tracking: bool) -> list:
    """trajectory.csv's column names for `n` craft, with T when `tracking`."""
    cols = ["t"]
    for i in range(1, n + 1):
        cols += ["sigma_%d_%s" % (i, ax) for ax in "xyz"]
        cols += ["omega_%d_%s" % (i, ax) for ax in "xyz"]
        cols += ["u_%d_%s" % (i, ax) for ax in "xyz"]
        cols += ["theta_hat_%d_%d" % (i, k) for k in range(1, 7)]
    cols += ["V", "D"]
    if tracking:
        cols.append("T")
    return cols


def format_rows(rows) -> str:
    """The lines of `rows`, each a sequence of floats."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows])


def _frame(stdin):
    """The next frame's (index, payload), or None at end of input."""
    head = stdin.read(FRAME.size)
    if not head:
        return None
    if len(head) != FRAME.size:
        raise EOFError("stream ends inside a frame")
    index, size = FRAME.unpack(head)
    payload = stdin.read(size)
    if len(payload) != size:
        raise EOFError("stream ends inside a frame")
    return index, payload


def main() -> None:
    header = csv_header(int(sys.argv[1]), sys.argv[2] == "1")
    width = len(header)
    stdin = sys.stdin.buffer
    frame = _frame(stdin)
    if frame is None:
        return
    count, names = frame
    paths = names.split(b"\0")
    if len(paths) != count:
        raise ValueError("the paths frame holds %d paths, not %d" % (len(paths), count))
    files = []
    try:
        for path in paths:
            files.append(open(path, "w", encoding="utf-8", newline=""))
            files[-1].write(",".join(header) + "\n")
        while (frame := _frame(stdin)) is not None:
            index, payload = frame
            rows = memoryview(payload).cast("d", (len(payload) // (8 * width), width)).tolist()
            files[index].write(format_rows(rows))
    finally:
        for fh in files:
            fh.close()


if __name__ == "__main__":
    main()
    # every file is closed: skip the interpreter's teardown, a few ms the run waits for
    os._exit(0)
