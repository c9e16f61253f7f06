"""Wall time and peak RSS of full `qhd` runs on a ladder of examples.

    python3 tools/ladder.py [--src DIR] [--out FILE] [--check CHECK ...] [EXAMPLE ...]

Run it from the repository root, where LADDER's file path resolves.  Each
EXAMPLE is a builtin id (`zn:16:1`) or `file:PATH`; without any, the ladder
is LADDER.  zn:32:1 runs only when named: its three runs take about a
minute in all and peak at about 0.8 GB.  Every example runs once with each
CHECK, a suite name of SUITES, the names `qhd --check` takes, or several
joined by commas as `qhd --check` takes them, for one run of those suites
(`--check` may be repeated; default: each of CHECKS), in a fresh
`python -m qhd.cli ... --report json` process whose report is
discarded, with the qhd package imported from DIR (default: this
checkout's `src`).  Each run records its wall time from spawn to exit, the
peak RSS of that child alone (its own `ru_maxrss`, from `os.wait4`) and its
exit code.  The records are written as JSON to FILE or stdout, and a table
of them goes to stderr.  The tool exits 1 if any run exited nonzero, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

LADDER = ("zn:6:1", "zn:8:1", "zn:10:1", "zn:16:1", "zn:24:1", "v4:3",
          "file:tests/data/s3_sign.qhd")
CHECKS = ("axioms", "invertibility", "all")
# the suite names of `qhd --check`: "all" and qhd.cli.SUITE_ORDER
SUITES = ("all", "axioms", "twist", "lemma41", "heisenberg", "theorems", "section5",
          "invertibility")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def command(example: str, check: str) -> list:
    source = (["--input", example[5:]] if example.startswith("file:")
              else ["--example", example])
    return [sys.executable, "-m", "qhd.cli", *source, "--check", check, "--report", "json"]


def run_once(src: str, example: str, check: str) -> dict:
    """One fresh-process run: wall seconds, the child's peak RSS in MB and
    its exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.Popen(command(example, check), env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"{example} {check}: exit {proc.returncode}\n{stderr.decode()[-2000:]}",
              file=sys.stderr)
    return {"example": example, "check": check, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "exit_code": proc.returncode}


def table(records: list) -> str:
    """A markdown table: one row per example, one `wall, RSS` cell per check."""
    checks = list(dict.fromkeys(r["check"] for r in records))
    cells: dict = {}
    for r in records:
        cell = f"{r['wall_s']:.2f} s, {r['peak_rss_mb']:.0f} MB"
        if r["exit_code"] != 0:
            cell += f" (exit {r['exit_code']})"
        cells.setdefault(r["example"], {})[r["check"]] = cell
    lines = ["| example | " + " | ".join(f"`{c}`" for c in checks) + " |",
             "|---|" + "---:|" * len(checks)]
    for example, row in cells.items():
        lines.append(f"| {example} | " + " | ".join(row.get(c, "") for c in checks) + " |")
    return "\n".join(lines)


def suites(check: str) -> str:
    """A --check value: suite names of SUITES joined by commas."""
    if not all(name in SUITES for name in check.split(",")):
        raise argparse.ArgumentTypeError(f"{check!r}: a suite is not one of {', '.join(SUITES)}")
    return check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("examples", nargs="*", metavar="EXAMPLE")
    ap.add_argument("--src", default=SRC, help="directory holding the qhd package")
    ap.add_argument("--out", help="write the JSON records here, not to stdout")
    ap.add_argument("--check", action="append", type=suites, dest="checks",
                    help="run only these suites, comma-separated (repeatable; "
                         "default: each of CHECKS)")
    args = ap.parse_args(argv)
    examples = args.examples or LADDER
    records = []
    for example in examples:
        for check in args.checks or CHECKS:
            records.append(run_once(args.src, example, check))
            print(json.dumps(records[-1]), file=sys.stderr)
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(table(records), file=sys.stderr)
    return 1 if any(r["exit_code"] != 0 for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
