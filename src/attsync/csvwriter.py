"""trajectory.csv row formatting, and the helper process that formats streamed rows.

`format_rows` is the one row formatter of trajectory.csv: every value by `repr`
(the shortest text that reads back as the same double), ',' between values and
'\\n' after each row.  `attsync.cli.write_trajectory_csv` formats with it in
process; `attsync run` streams each record block of a run to this module run
as a script, which formats the rows while the run integrates:

    python3 -S csvwriter.py < stream

The stream, on stdin, is one JSON line, {"paths": [...], "header": "..."}, then
frames: a little-endian (file index, byte count) pair of uint32, then that many
bytes of float64 values, native byte order, whole rows of the header's width.
Each path gets the header line, then the rows of its frames in the order sent.
At end of input the files are closed and the process exits 0; any error exits
non-zero.  The module imports nothing outside the standard library, so the
process starts without numpy.
"""

from __future__ import annotations

import json
import os
import struct
import sys

FRAME = struct.Struct("<II")  # file index, payload bytes


def format_rows(rows) -> str:
    """The lines of `rows`, each a sequence of floats."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows])


def main() -> None:
    stdin = sys.stdin.buffer
    spec = json.loads(stdin.readline())
    header, width = spec["header"], spec["header"].count(",") + 1
    files = []
    try:
        for path in spec["paths"]:
            files.append(open(path, "w", encoding="utf-8", newline=""))
            files[-1].write(header + "\n")
        while True:
            head = stdin.read(FRAME.size)
            if not head:
                return
            index, size = FRAME.unpack(head)
            payload = stdin.read(size)
            if len(payload) != size:
                raise EOFError("stream ends inside a frame")
            rows = memoryview(payload).cast("d", (size // (8 * width), width)).tolist()
            files[index].write(format_rows(rows))
    finally:
        for fh in files:
            fh.close()


if __name__ == "__main__":
    main()
    # every file is closed: skip the interpreter's teardown, a few ms the run waits for
    os._exit(0)
