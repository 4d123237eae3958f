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
  info-coarse  `info --json` for the same sequences at 1 and 0.5, and
               `energy --json` for every connected sequence with n <= 11
               at 3, 16 and 1000: target cells of one vertex unit and
               wider, where isolation alone can decide the output and
               integer roots fall off the target grid
  hunt         `hunt --n 2..14 --jobs 1 --json` and its `--csv` file,
               `hunt --n 12 --jobs 2 --json --csv`, whose enclosures
               come from forked worker processes on a host with two or
               more CPUs, and `hunt --n 12 --precision 1e-2 --jobs 1
               --json --csv`, where 823 of the 1,024 graphs share a
               class, so most members and class ids are rebuilt
  family       `family four|six --i 1..20 --verify --json`
  oracle       `charpoly --oracle --json` for every connected sequence
               with n <= 11, criterion 1's corpus, and on 10 seeded block
               forms with 2-8 blocks and 16-40 vertices, where 0 and -1
               have high multiplicity: the block formula against the
               determinant polynomial
  manyblocks   `energy --json` at 1e-10 and 1e-60 on 25 seeded block
               forms each with B = 14, 18, 24, 26, 32 and 40 blocks of
               1-3 vertices
  deepprec     `energy --json` at 1e-100 and 1e-200 on 20 seeded block
               forms each with B = 4, 6 and 8 blocks and 36-60 vertices:
               targets far beyond floats, where bisection and QIR place
               every root hundreds of halvings deep
  float-edge   `energy --json` on the manyblocks forms at 1e-11 to 1e-16
               and `info --json` for the connected sequences with n <= 10
               at 1e-12, 1e-13 and 1e-15: about where `_float_cells`
               declines (`_FLOAT_BITS`) and bisection and QIR take
               over, and past it
  widecoeff    `info --json` and `energy --json` at 1e-12, 1e-60 and 1 on
               both members of family four and six for i = 1..30 and on
               10 seeded block forms each with B = 4, 6, 8 and 10 blocks
               of 1-60 vertices: Cauchy's bound is 2^4 to 2^46 times
               the largest root, so every bisection of two or more
               roots starts far below it
  largeorder   `family four|six --i 50, 100, 200 --verify --json`, and
               `charpoly --json` and `info --json` on (0^400 1^400),
               (0^1 1^300 0^2 1^300) and 10 seeded block forms with 4-8
               blocks of 50-300 vertices: multiplicities of -1 in the
               hundreds, where (x+1)^m1 dominates the assembly
  selftest     `selftest --json`
  human        the human output, without `--json`, of `info`, `energy`
               and `charpoly --oracle` on 20 seeded sequences with
               n <= 10, `family four|six --i 1..3 --verify`, `hunt --n
               2..10 --jobs 1` with and without `--borderenergetic`, and
               `selftest`; and six input errors, each an exit code and
               one `error:` line: `energy 1`, `energy 01 --precision 0`,
               `hunt --n 1`, `family four --i 0`, `charpoly 01x` and
               `info 01 --precision 1e-1001`

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


def cut_form(rng: random.Random, n: int, b: int) -> str:
    """n vertices cut at random into b alternating blocks, starting with
    0, as a block expression."""
    cuts = [0] + sorted(rng.sample(range(1, n), b - 1)) + [n]
    return " ".join(f"{j % 2}^{cuts[j + 1] - cuts[j]}" for j in range(b))


def deep_forms(block_numbers: tuple[int, ...], per_b: int) -> list[str]:
    """`per_b` connected block forms for each number of blocks B, with
    36-60 vertices in all, as block expressions from a fixed seed."""
    rng = random.Random(2015)
    return [cut_form(rng, rng.randint(36, 60), b)
            for b in block_numbers for _ in range(per_b)]


def oracle_forms() -> list[str]:
    """10 connected block forms with 2, 4, 6 or 8 blocks and 16-40
    vertices, as block expressions from a fixed seed."""
    rng = random.Random(2018)
    return [cut_form(rng, rng.randint(16, 40), 2 * rng.randint(1, 4))
            for _ in range(10)]


def wide_forms() -> list[str]:
    """Both members of family four and six for i = 1..30, and 10 connected
    block forms each with B = 4, 6, 8 and 10 blocks of 1-60 vertices from
    a fixed seed, as block expressions; the family counts are written out
    here, not imported, like every other query."""
    pairs = [((2 * i + 1, 3 * i + 3, 2 * i + 1, 2 * i),
              (2 * i + 2, 3 * i, 2 * i + 1, 2 * i + 2)) for i in range(1, 31)]
    pairs += [((1, 2 * i + 1, i, 2 * i + 2, 2 * i + 1, 2 * i),
               (1, 2 * i, i + 1, 2 * i, 2 * i + 1, 2 * i + 2))
              for i in range(1, 31)]
    rng = random.Random(1916)
    counts = [c for pair in pairs for c in pair]
    counts += [[rng.randint(1, 60) for _ in range(b)]
               for b in (4, 6, 8, 10) for _ in range(10)]
    return [" ".join(f"{j % 2}^{c}" for j, c in enumerate(form))
            for form in counts]


def large_forms() -> list[str]:
    """(0^400 1^400), (0^1 1^300 0^2 1^300) and 10 connected block forms
    with 4, 6 or 8 blocks of 50-300 vertices from a fixed seed, as block
    expressions."""
    rng = random.Random(2015_465)
    counts = [(400, 400), (1, 300, 2, 300)]
    counts += [[rng.randint(50, 300) for _ in range(rng.choice((4, 6, 8)))]
               for _ in range(10)]
    return [" ".join(f"{j % 2}^{c}" for j, c in enumerate(form))
            for form in counts]


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
    for precision in ("3", "16", "1000"):
        for seq in connected_sequences(11):
            queries.append(("info-coarse", ["energy", seq, "--precision",
                                            precision, "--json"]))
    for n in range(2, 15):
        queries.append(("hunt", ["hunt", "--n", str(n), "--jobs", "1",
                                 "--json", "--csv", CSV_NAME]))
    queries.append(("hunt", ["hunt", "--n", "12", "--jobs", "2", "--json",
                             "--csv", CSV_NAME]))
    queries.append(("hunt", ["hunt", "--n", "12", "--precision", "1e-2",
                             "--jobs", "1", "--json", "--csv", CSV_NAME]))
    for family in ("four", "six"):
        for i in range(1, 21):
            queries.append(("family", ["family", family, "--i", str(i),
                                       "--verify", "--json"]))
    for seq in connected_sequences(11) + oracle_forms():
        queries.append(("oracle", ["charpoly", seq, "--oracle", "--json"]))
    forms = block_forms((14, 18, 24, 26, 32, 40), 25)
    for precision in ("1e-10", "1e-60"):
        for form in forms:
            queries.append(("manyblocks", ["energy", form, "--precision",
                                           precision, "--json"]))
    for precision in ("1e-100", "1e-200"):
        for form in deep_forms((4, 6, 8), 20):
            queries.append(("deepprec", ["energy", form, "--precision",
                                         precision, "--json"]))
    for exponent in range(11, 17):
        for form in forms:
            queries.append(("float-edge", ["energy", form, "--precision",
                                           f"1e-{exponent}", "--json"]))
    for precision in ("1e-12", "1e-13", "1e-15"):
        for seq in connected_sequences(10):
            queries.append(("float-edge", ["info", seq, "--precision",
                                           precision, "--json"]))
    for precision in ("1e-12", "1e-60", "1"):
        for form in wide_forms():
            for command in ("info", "energy"):
                queries.append(("widecoeff", [command, form, "--precision",
                                              precision, "--json"]))
    for family in ("four", "six"):
        for i in (50, 100, 200):
            queries.append(("largeorder", ["family", family, "--i", str(i),
                                           "--verify", "--json"]))
    for form in large_forms():
        for command in ("charpoly", "info"):
            queries.append(("largeorder", [command, form, "--json"]))
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
    for argv in (["energy", "1"], ["energy", "01", "--precision", "0"],
                 ["hunt", "--n", "1"], ["family", "four", "--i", "0"],
                 ["charpoly", "01x"],
                 ["info", "01", "--precision", "1e-1001"]):
        queries.append(("human", argv))
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
