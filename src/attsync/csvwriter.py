"""trajectory.csv's one writer: its column schema, its row formatter, and the
helper process that writes a run's trajectory.csv files.

`PER_CRAFT` and `FLEET` state the column layout once: t, then per craft i a
column STEM_i_C for each (log field, STEM, components) and component C, then
the fleet-wide (log field, name) columns, T only in a tracking run.  Both
`csv_header` and `attsync.cli.write_trajectory_csv` read them.  `format_rows`
formats rows: every value by `repr` (the shortest text that reads back as the
same double), ',' between values and '\\n' after each row.  `attsync run`
streams each record block of a run to this module run as a script, which
formats the rows while the run integrates:

    python3 -S csvwriter.py CRAFT TRACKING < stream

CRAFT is the craft count and TRACKING is 1 for a tracking run (a T column), else 0.
The stream, on stdin, is frames: a little-endian (index, byte count) pair of
uint32, then that many bytes.  The first frame holds the paths of the files to
write, each `os.fsencode`d, separated by NUL bytes; its index is their count.
Each file is created with the header line.  Each later frame holds float64
values, native byte order, whole rows of the header's width, appended to the
file of its index, open for that frame only: one file is open at a time, so the
open-file limit does not bound the file count.  At end of input the process
exits 0; any error exits non-zero.  The module imports nothing outside the
standard library, and neither json nor numpy, so the process starts in about
the time of a bare interpreter.
"""

from __future__ import annotations

import os
import struct
import sys

FRAME = struct.Struct("<II")  # file index (path count in the first frame), payload bytes
PER_CRAFT = (("sigma", "sigma", "xyz"), ("omega", "omega", "xyz"), ("torque", "u", "xyz"),
             ("theta_hat", "theta_hat", "123456"))
FLEET = (("lyapunov", "V"), ("disagreement", "D"), ("tracking_error", "T"))


def fleet_columns(tracking: bool) -> tuple:
    """The `FLEET` entries of a run, with T when `tracking`."""
    return FLEET if tracking else FLEET[:-1]


def csv_header(n: int, tracking: bool) -> list:
    """trajectory.csv's column names for `n` craft, with T when `tracking`."""
    per_craft = ["%s_%d_%s" % (stem, i, c) for i in range(1, n + 1)
                 for _, stem, components in PER_CRAFT for c in components]
    return ["t"] + per_craft + [name for _, name in fleet_columns(tracking)]


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
    for path in paths:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
    while (frame := _frame(stdin)) is not None:
        index, payload = frame
        rows = memoryview(payload).cast("d", (len(payload) // (8 * width), width)).tolist()
        with open(paths[index], "a", encoding="utf-8", newline="") as fh:
            fh.write(format_rows(rows))


if __name__ == "__main__":
    main()
    # every file is closed: skip the interpreter's teardown, a few ms the run waits for
    os._exit(0)
