#!/usr/bin/env python3
"""Print the pivot of an osapd summary as text tables.

    python3 tools/pivot_table.py summary.json

One table per pivot matrix, with the summary's own row and column axes:
the mean, p50 and p99 TH sojourn, the mean makespan and the mean TL
swap-out. A cell without a successful run prints as "-". The last line
is the largest min/max deviation of a group's TH sojourn from the
group's mean, over every group of seed replicates.
"""
import json
import sys

MATRICES = [
    ("values", "TH sojourn, mean (s)", 1),
    ("p50", "TH sojourn, p50 (s)", 1),
    ("p99", "TH sojourn, p99 (s)", 1),
    ("makespan", "makespan, mean (s)", 1),
    ("tl_swapped_out_mib", "TL swapped out, mean (MiB)", 0),
]


def render(headers, rows):
    widths = [max(len(cell) for cell in column) for column in zip(headers, *rows)]
    lines = [headers, ["-" * w for w in widths]] + rows
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in lines)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: pivot_table.py <summary.json>")
    with open(argv[1]) as f:
        summary = json.load(f)
    pivot = summary["pivot"]
    corner = (pivot["row_axis"] or "all") + " \\ " + (pivot["col_axis"] or "all")
    for key, title, digits in MATRICES:
        rows = [[label] + ["-" if v < 0 else "%.*f" % (digits, v) for v in values]
                for label, values in zip(pivot["rows"], pivot[key])]
        print("%s\n%s\n" % (title, render([corner] + pivot["cols"], rows)))

    worst, where = 0.0, None
    for group in summary["groups"]:
        s = group["sojourn_th"]
        if group["runs"] == 0 or s["mean"] == 0:
            continue
        deviation = max(s["max"] - s["mean"], s["mean"] - s["min"]) / abs(s["mean"])
        if where is None or deviation > worst:
            worst, where = deviation, group["cell"]
    if where is not None:
        print("max min/max deviation of TH sojourn from its group mean: %.1f%% (%s)"
              % (100 * worst, where))


if __name__ == "__main__":
    main(sys.argv)
