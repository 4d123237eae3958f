"""Compare the command-line outputs of two source trees, query by query.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `threshold_spectra` package, such as
the `src/` of a checkout.  Both trees run the same queries at the same
time, each in its own interpreter with `cli.run` called in-process, and
the outputs are compared byte for byte once the timing fields are
blanked: `timing_seconds` and `elapsed_seconds` in their JSON and human
forms, a criterion's `(N.NNs)` and criterion 9's `scan N.NNNs`.  The
gates:

  energy-info  `energy --json` and `info --json` for every connected
               creation sequence with n <= 12, at 1e-12 and 1e-60
  info-coarse  `info --json` for the same sequences at 1 and 0.5
  hunt         `hunt --n 2..14 --jobs 1 --json` and its `--csv` file,
               and `hunt --n 12 --jobs 2 --json --csv`, whose records
               come from forked worker processes on a host with two or
               more CPUs
  family       `family four|six --i 1..20 --verify --json`
  manyblocks   `energy --json` at 1e-10 and 1e-60 on 25 seeded block
               forms each with B = 14, 18, 24, 26, 32 and 40 blocks of
               1-3 vertices
  float-edge   `energy --json` on the manyblocks forms at 1e-11 to 1e-16
               and `info --json` for the connected sequences with n <= 10
               at 1e-12, 1e-13 and 1e-15: about where refinement turns
               from the float guess to exact QIR, and past it
  selftest     `selftest --json`
  human        the human output, without `--json`, of `info`, `energy`
               and `charpoly --oracle` on 20 seeded sequences with
               n <= 10, `family four|six --i 1..3 --verify`, `hunt --n
               2..10 --jobs 1` with and without `--borderenergetic`, and
               `selftest`

Prints the first query whose exit code, stdout, stderr or csv file
differs, with both outputs, and exits 1; otherwise prints `identical` and
the number of queries in each gate.  Standard library only.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading

TIMING = re.compile(r'("?(?:timing_seconds|elapsed_seconds)"?: )[-+0-9.eE]+'
                    r'|(scan |\()[0-9.]+s\b')
CSV_NAME = "hunt.csv"


def connected_sequences(max_n: int) -> list[str]:
    """Every connected creation sequence with 2 <= n <= max_n: a 0, any
    n - 2 bits, a 1.  Built here, not imported, so that neither tree
    decides which queries run."""
    return ["0" + (format(idx, f"0{n - 2}b") if n > 2 else "") + "1"
            for n in range(2, max_n + 1) for idx in range(1 << (n - 2))]


def block_forms(block_numbers: tuple[int, ...], per_b: int) -> list[str]:
    """`per_b` connected block forms for each number of blocks B, with
    1-3 vertices a block, as block expressions from a fixed seed."""
    rng = random.Random(2013)
    return [" ".join(f"{j % 2}^{rng.randint(1, 3)}" for j in range(b))
            for b in block_numbers for _ in range(per_b)]


def gates() -> list[tuple[str, list[str]]]:
    """(gate, argv) for every query, in the order they run."""
    queries = []
    sequences = connected_sequences(12)
    for precision in ("1e-12", "1e-60"):
        for seq in sequences:
            for command in ("energy", "info"):
                queries.append(("energy-info", [command, seq, "--precision",
                                                precision, "--json"]))
    for precision in ("1", "0.5"):
        for seq in sequences:
            queries.append(("info-coarse", ["info", seq, "--precision",
                                            precision, "--json"]))
    for n in range(2, 15):
        queries.append(("hunt", ["hunt", "--n", str(n), "--jobs", "1",
                                 "--json", "--csv", CSV_NAME]))
    queries.append(("hunt", ["hunt", "--n", "12", "--jobs", "2", "--json",
                             "--csv", CSV_NAME]))
    for family in ("four", "six"):
        for i in range(1, 21):
            queries.append(("family", ["family", family, "--i", str(i),
                                       "--verify", "--json"]))
    forms = block_forms((14, 18, 24, 26, 32, 40), 25)
    for precision in ("1e-10", "1e-60"):
        for form in forms:
            queries.append(("manyblocks", ["energy", form, "--precision",
                                           precision, "--json"]))
    for exponent in range(11, 17):
        for form in forms:
            queries.append(("float-edge", ["energy", form, "--precision",
                                           f"1e-{exponent}", "--json"]))
    for precision in ("1e-12", "1e-13", "1e-15"):
        for seq in connected_sequences(10):
            queries.append(("float-edge", ["info", seq, "--precision",
                                           precision, "--json"]))
    queries.append(("selftest", ["selftest", "--json"]))
    for seq in random.Random(1807).sample(connected_sequences(10), 20):
        for argv in (["info", seq], ["energy", seq],
                     ["charpoly", seq, "--oracle"]):
            queries.append(("human", argv))
    for family in ("four", "six"):
        for i in range(1, 4):
            queries.append(("human", ["family", family, "--i", str(i),
                                      "--verify"]))
    for n in range(2, 11):
        for extra in ([], ["--borderenergetic"]):
            queries.append(("human", ["hunt", "--n", str(n), "--jobs", "1",
                                      *extra]))
    queries.append(("human", ["selftest"]))
    return queries


def worker(src: str) -> None:
    """Run the argv lists read from stdin, one JSON list a line, against
    the package in `src`, and print one JSON record per query."""
    sys.path.insert(0, os.path.abspath(src))
    from threshold_spectra import cli

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        os.chdir(scratch)
        for line in sys.stdin:
            argv = json.loads(line)
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, out=out, err=err)
            record = {"code": code, "err": err.getvalue(),
                      "out": TIMING.sub(r"\1\2-", out.getvalue())}
            if CSV_NAME in argv:
                with open(CSV_NAME) as handle:
                    record["csv"] = handle.read()
                os.remove(CSV_NAME)
            print(json.dumps(record), flush=True)


def first_difference(a: str, b: str) -> str:
    """The first line on which two texts differ, from each side."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k in range(max(len(lines_a), len(lines_b))):
        la = lines_a[k] if k < len(lines_a) else "<end>"
        lb = lines_b[k] if k < len(lines_b) else "<end>"
        if la != lb:
            return f"line {k + 1}:\n  parent: {la}\n  change: {lb}"
    return "texts differ only in line endings"


def compare(parent: str, change: str) -> int:
    queries = gates()
    feed = "".join(json.dumps(argv) + "\n" for _, argv in queries)
    procs = []
    for src in (parent, change):
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        procs.append(proc)
    # one feeding thread per side: the queries overflow a pipe buffer, and
    # a side that is ahead must not block the other
    for proc in procs:
        threading.Thread(target=_feed, args=(proc, feed), daemon=True).start()
    counts: dict[str, int] = {}
    for gate, argv in queries:
        got = [proc.stdout.readline() for proc in procs]
        if not all(got):
            _stop(procs)
            print(f"a worker stopped before {' '.join(argv)}")
            return 1
        a, b = (json.loads(text) for text in got)
        if a != b:
            _stop(procs)
            print(f"differs in gate {gate}: {' '.join(argv)}")
            for key in ("code", "out", "err", "csv"):
                if a.get(key) != b.get(key):
                    print(f"{key}: " + first_difference(
                        str(a.get(key)), str(b.get(key))))
            return 1
        counts[gate] = counts.get(gate, 0) + 1
    for proc in procs:
        proc.wait()
    print("identical")
    for gate, count in counts.items():
        print(f"  {gate}: {count} queries")
    return 0


def _stop(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        proc.kill()
        proc.wait()


def _feed(proc: subprocess.Popen, text: str) -> None:
    try:
        proc.stdin.write(text)
        proc.stdin.close()
    except (BrokenPipeError, ValueError):
        pass


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        worker(sys.argv[2])
        return 0
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return compare(sys.argv[1], sys.argv[2])


if __name__ == "__main__":
    sys.exit(main())
