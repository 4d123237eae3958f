import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from threshold_spectra import cli, hunt, spectra
from threshold_spectra.sequences import (adjacency_matrix, enumerate_connected,
                                         format_sequence, parse_sequence)


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv, "--json")
    return code, json.loads(out), err


def cli_process(*argv, stdout=subprocess.PIPE, preexec_fn=None, environ=()):
    """`python -m threshold_spectra.cli argv`, stderr piped, stdout
    block-buffered as it is by default on a pipe; `preexec_fn` runs in
    the child before the interpreter starts, and `environ` holds more
    variables for the child's environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, **dict(environ))
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen(
        [sys.executable, "-m", "threshold_spectra.cli", *argv], env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        preexec_fn=preexec_fn)


@pytest.fixture
def default_digit_limit():
    """CPython's default limit on the digits of an int read from or
    turned into text, 4,300, for the length of one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


class TestInfo:
    def test_ten_vertex_example(self):
        code, record, _ = run_json("info", "(0^2 1^3 0^3 1^2)")
        assert code == 0
        results = record["results"]
        assert results["n"] == 10
        assert results["edges"] == 26
        assert results["m0"] == 3
        assert results["m_minus1"] == 3

    def test_roots_ascend_each_with_lo_below_hi(self):
        code, record, _ = run_json("info", "(0^2 1^3 0^3 1^2)")
        assert code == 0
        ends = [(Fraction(root["lo"]), Fraction(root["hi"]))
                for root in record["results"]["roots"]]
        assert any(lo < hi for lo, hi in ends)
        assert all(lo <= hi for lo, hi in ends)
        assert all(a_hi < b_lo for (_, a_hi), (b_lo, _) in zip(ends,
                                                                ends[1:]))

    def test_human_output(self):
        code, out, _ = run_cli("info", "01")
        assert code == 0
        assert "energy" in out

    def test_disconnected_rejected(self):
        code, _, err = run_cli("info", "010")
        assert code == 2
        assert err.startswith("error:")


class TestCharpoly:
    def test_single_edge_with_oracle(self):
        code, record, _ = run_json("charpoly", "01", "--oracle")
        assert code == 0
        results = record["results"]
        assert results["char_poly"] == [-1, 0, 1]
        assert results["determinant_poly"] == [-1, 0, 1]
        assert results["verdict"] == "equal"

    def test_formula_only(self):
        code, record, _ = run_json("charpoly", "(0^2 1^3 0^3 1^2)")
        assert code == 0
        assert len(record["results"]["char_poly"]) == 11


class TestEnergy:
    def test_complete_fourteen(self):
        code, record, _ = run_json("energy", "(0^1 1^13)")
        assert code == 0
        band = record["results"]["energy"]
        assert band["lo"].startswith("25.9999") or band["lo"].startswith("26.0000")
        assert band["hi"].startswith("26.0000")

    def test_custom_precision(self):
        code, record, _ = run_json("energy", "001", "--precision", "1e-3")
        assert code == 0

    def test_bad_precision(self):
        code, _, err = run_cli("energy", "01", "--precision", "0")
        assert code == 2
        assert "error:" in err

    def test_non_finite_precision(self):
        for text in ("inf", "-Infinity"):
            # "=" keeps argparse from reading "-Infinity" as an option
            code, out, err = run_cli("energy", "01", f"--precision={text}")
            assert code == 2
            assert out == ""
            assert err.splitlines() == [err.rstrip("\n")]
            assert err.startswith("error:")

    def test_huge_precision_exponent(self):
        # rejected before 10**999999999 is built
        code, out, err = run_cli("energy", "01", "--precision", "1e-999999999")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error:")

    def test_precision_exponent_limit(self):
        # targets far below float resolution refine without floats
        assert run_cli("energy", "001", "--precision", "1e-1000")[0] == 0
        assert run_cli("info", "001", "--precision", "1e-1000")[0] == 0
        assert run_cli("hunt", "--n", "6", "--jobs", "1", "--json",
                       "--precision", "1e-1000")[0] == 0
        code, _, err = run_cli("energy", "001", "--precision", "1e-1001")
        assert code == 2
        assert err.startswith("error:")

    def test_block_count_beyond_index_range(self):
        # the expansion fails before anything is allocated; counts that
        # fit an index but are only huge would allocate, so none is tried
        code, out, err = run_cli("energy", "0^99999999999999999999")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error: block count")

    @pytest.mark.parametrize("argv", [
        ("energy", f"0^3 1^{sys.maxsize}"),
        ("charpoly", f"0^{sys.maxsize} 1"),
        ("info", f"0 1^{sys.maxsize}")])
    def test_block_count_too_large_to_expand(self, argv):
        # fits an index, but a list of sys.maxsize bits is refused at once
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error: block count")

    def test_block_count_past_the_digit_limit(self, default_digit_limit):
        # 5,000 digits are more than int() reads by default; the count is
        # refused by its length before int() sees it
        nines = "9" * 5000
        code, out, err = run_cli("energy", f"0^{nines} 1^1")
        assert (code, out) == (2, "")
        assert err == f"error: block count {nines} is too large\n"

    def test_block_count_with_leading_zeros(self, default_digit_limit):
        # 5,000 zeros and a 2 are the count 2, past the digit limit too
        code, record, err = run_json("energy", "0^" + "0" * 5000 + "2 1^1")
        assert (code, err) == (0, "")
        assert record["results"] == run_json("energy", "0^2 1^1")[1]["results"]

    def test_bad_sequence(self):
        code, _, err = run_cli("energy", "10")
        assert code == 2
        assert "error:" in err

    def test_sixty_alternating_vertices(self):
        numpy = pytest.importorskip("numpy")
        bits = "01" * 30
        code, record, _ = run_json("energy", bits, "--precision", "1e-10")
        assert code == 0
        band = record["results"]["energy"]
        lo, hi = Fraction(band["lo_fraction"]), Fraction(band["hi_fraction"])
        assert hi - lo <= Fraction(1, 10 ** 10)
        mat = numpy.array(adjacency_matrix(parse_sequence(bits)), dtype=float)
        float_energy = float(numpy.abs(numpy.linalg.eigvalsh(mat)).sum())
        assert float(lo) - 1e-9 <= float_energy <= float(hi) + 1e-9


class TestOneEnergyRoute:
    @pytest.mark.parametrize("sequence", ["01", "(0^1 1^13)",
                                          "(0^2 1^3 0^3 1^2)", "01" * 12])
    def test_info_and_energy_agree(self, sequence):
        _, info, _ = run_json("info", sequence, "--precision", "1e-12")
        _, energy, _ = run_json("energy", sequence, "--precision", "1e-12")
        band = energy["results"]["energy"]
        assert info["results"]["energy"] == {"lo": band["lo"],
                                             "hi": band["hi"]}

    def test_failed_inertia_check_exits_one(self, monkeypatch):
        real = spectra.isolate_real_roots
        monkeypatch.setattr(spectra, "isolate_real_roots",
                            lambda *args, **kw: real(*args, **kw)[:-1])
        for command in ("energy", "info"):
            code, out, err = run_cli(command, "(0^2 1^3 0^3 1^2)")
            assert code == 1
            assert out == ""
            assert err.splitlines() == [err.rstrip("\n")]
            assert err.startswith("error: inertia check failed")

    def test_stuck_root_count_exits_one(self, monkeypatch):
        monkeypatch.setattr(spectra, "_roots_above",
                            lambda counts, num, den: 2 if 3 * num < den
                            else 0)
        for command in ("energy", "info"):
            code, out, err = run_cli(command, "01" * 12)
            assert code == 1
            assert out == ""
            assert err.splitlines() == [err.rstrip("\n")]
            assert err.startswith("error: 2 roots counted in an interval")

    def test_missing_minus_one_factor_exits_one(self, monkeypatch):
        # a leading 0^1 puts the root -1 in Q_B; adding 1 to the constant
        # term takes it out
        real = spectra._q_from_counts
        monkeypatch.setattr(spectra, "_q_from_counts",
                            lambda counts: (real(counts)[0] + 1,)
                            + real(counts)[1:])
        blocks = (1, 3, 2, 2)
        with pytest.raises(ArithmeticError):
            spectra._nontrivial_parts(blocks)
        for command in ("energy", "info"):
            code, out, err = run_cli(command, "(0^1 1^3 0^2 1^2)")
            assert code == 1
            assert out == ""
            assert err.splitlines() == [err.rstrip("\n")]
            assert err.startswith("error: companion factor")


class TestFamily:
    def test_pair_emission(self):
        code, record, _ = run_json("family", "four", "--i", "1")
        assert code == 0
        results = record["results"]
        assert results["n"] == 14
        assert results["g"] == "(0^3 1^6 0^3 1^2)"
        assert results["g_prime"] == "(0^4 1^3 0^3 1^4)"

    def test_verified_pair_passes(self):
        code, record, _ = run_json("family", "four", "--i", "1", "--verify")
        assert code == 0
        assert record["results"]["verification"]["ok"] is True
        assert record["results"]["cubic_roots"]["ok"] is True

    def test_six_block_verify(self):
        code, record, _ = run_json("family", "six", "--i", "1", "--verify")
        assert code == 0
        assert "cubic_roots" not in record["results"]

    def test_bad_parameter(self):
        code, _, err = run_cli("family", "four", "--i", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("tol", ["0", "-1e-3"])
    def test_nonpositive_tolerance_names_the_tolerance(self, tol):
        # "=" keeps argparse from reading "-1e-3" as an option
        code, out, err = run_cli("family", "four", "--i", "1", "--verify",
                                 f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance must be positive, got {tol}\n"

    @pytest.mark.parametrize("tol", ["0", "abc"])
    def test_bad_tolerance_without_verify(self, tol):
        code, out, err = run_cli("family", "four", "--i", "1", "--tol", tol)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert err == run_cli("family", "four", "--i", "1", "--verify",
                              "--tol", tol)[2]


class TestHunt:
    def test_small_order(self):
        code, record, _ = run_json("hunt", "--n", "10")
        assert code == 0
        results = record["results"]
        assert results["stats"]["graphs"] == 256
        for cls in results["classes"]:
            assert len(cls["members"]) >= 2

    def test_borderenergetic_mode(self):
        code, record, _ = run_json("hunt", "--n", "9", "--borderenergetic")
        assert code == 0
        assert record["results"]["borderenergetic"] == [
            "(0^1 1^1 0^1 1^6)", "(0^1 1^4 0^1 1^3)"]

    def test_borderenergetic_is_the_default_without_classes(self):
        _, full, _ = run_json("hunt", "--n", "9")
        _, border, _ = run_json("hunt", "--n", "9", "--borderenergetic")
        want = full["results"]
        del want["classes"]
        for results in (want, border["results"]):
            results["stats"]["elapsed_seconds"] = None
        assert border["results"] == want
        _, full_text, _ = run_cli("hunt", "--n", "9")
        _, border_text, _ = run_cli("hunt", "--n", "9", "--borderenergetic")
        # the human form of the default output less its `classes` section
        want_lines, in_classes = [], False
        for line in full_text.splitlines():
            if not line.startswith(" "):
                in_classes = line.startswith("classes:")
            if not (in_classes or line.startswith("  elapsed_seconds:")):
                want_lines.append(line)
        assert "classes:" in full_text
        assert [line for line in border_text.splitlines()
                if not line.startswith("  elapsed_seconds:")] == want_lines

    def test_csv_export(self, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, _ = run_json("hunt", "--n", "6", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sequence,energy_lo,energy_hi,char_poly,class_id"
        assert len(lines) == 1 + 16

    def test_csv_rows_follow_the_enumeration_with_class_ids(self, tmp_path):
        # at 0.5 the 16 graphs of order 6 fall into fewer, shared classes
        path = tmp_path / "rows.csv"
        code, _, _ = run_json("hunt", "--n", "6", "--precision", "0.5",
                              "--csv", str(path))
        assert code == 0
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        result = hunt.full_scan(6, Fraction(1, 2))
        assert len(result.class_ids) == 16 > len(set(result.class_ids))
        assert [row[0] for row in rows] == [
            format_sequence(bits) for bits in enumerate_connected(6)]
        assert [row[3] for row in rows] == [
            str(list(spectra.char_poly_of_sequence(bits)))
            for bits in enumerate_connected(6)]
        assert [int(row[4]) for row in rows] == list(result.class_ids)

    def test_unwritable_csv_fails_before_the_scan(self, tmp_path,
                                                  monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(hunt, "full_scan", no_scan)
        path = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli("hunt", "--n", "13", "--csv", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_failed_scan_leaves_csv_unchanged(self, tmp_path, monkeypatch):
        def failing_scan(*args, **kwargs):
            raise ValueError("scan failed")

        monkeypatch.setattr(hunt, "full_scan", failing_scan)
        path = tmp_path / "rows.csv"
        path.write_text("kept\n")
        code, _, err = run_cli("hunt", "--n", "6", "--csv", str(path))
        assert code == 2
        assert err == "error: scan failed\n"
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [["--n", "30"],
                                      ["--n", "8", "--jobs", "0"]])
    def test_bad_input_leaves_no_new_csv(self, tmp_path, argv):
        path = tmp_path / "new.csv"
        code, out, err = run_cli("hunt", *argv, "--csv", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not path.exists()

    def test_guard(self):
        code, _, err = run_cli("hunt", "--n", "30")
        assert code == 2
        assert "allow_large" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_fewer_than_one_job_exits_two(self, jobs):
        code, out, err = run_cli("hunt", "--n", "8", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: need at least one process, "
                                    f"got {jobs}"]


class TestSelftest:
    def test_subset_passes(self):
        code, out, _ = run_cli("selftest", "--criteria", "4,11")
        assert code == 0
        assert out.count("PASS") == 2

    def test_corrected_criteria_pass(self):
        # exit code 1 would mean a verification failed
        code, out, _ = run_cli("selftest", "--criteria", "3,8")
        assert code == 0
        assert out.count("PASS") == 2

    def test_unknown_criterion(self):
        # an empty list would check nothing and must not report success
        for criteria in ("99", ",", "", "1,x"):
            code, out, err = run_cli("selftest", "--criteria", criteria)
            assert code == 2
            assert out == ""
            assert err.splitlines() == [err.rstrip("\n")]
            assert err.startswith("error:")


class TestContract:
    def test_json_round_trips_byte_identical(self):
        _, out, _ = run_cli("energy", "0011", "--json")
        record = json.loads(out)
        again = json.dumps(record, indent=2, sort_keys=True) + "\n"
        assert again == out

    def test_deterministic_modulo_timing(self):
        _, first, _ = run_cli("info", "(0^2 1^3 0^3 1^2)", "--json")
        _, second, _ = run_cli("info", "(0^2 1^3 0^3 1^2)", "--json")
        a = json.loads(first)
        b = json.loads(second)
        a.pop("timing_seconds")
        b.pop("timing_seconds")
        assert a == b

    def test_usage_error_exit_code(self):
        code, _, _ = run_cli("definitely-not-a-command")
        assert code == 2

    def test_version_flag(self):
        code, _, _ = run_cli("--version")
        assert code == 0

    def test_module_entry_point(self):
        # `python -m threshold_spectra.cli` runs the command line
        proc = cli_process("energy", "01", "--precision", "0")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error:")

    def test_stdout_closed_early(self):
        # the record is about 470 KB, far more than a pipe holds, so the
        # write is still going on when the reader closes after one line
        proc = cli_process("charpoly", "0^1000 1^1000", "--json")
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error:")

    def test_coefficients_past_the_digit_limit(self):
        # K_2501 has char poly (x + 1)^2500 (x - 2500), whose coefficients
        # run to about 750 digits, past a limit of 640 set for the child
        proc = cli_process("charpoly", "0^1 1^2500", "--json",
                           environ={"PYTHONINTMAXSTRDIGITS": "640"})
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "")
        m = 2500
        # the coefficient of x^k is C(m, k - 1) - m C(m, k)
        want = [(math.comb(m, k - 1) if k else 0) - m * math.comb(m, k)
                for k in range(m + 2)]
        assert max(map(abs, want)) > 10 ** 640
        assert json.loads(out)["results"]["char_poly"] == want

    def test_stdout_closed_before_the_first_write(self):
        # a pipe with no reader: the short record is still buffered when
        # its flush fails, and the exit-time flush must not fail again
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process("energy", "01", "--json", stdout=write_end)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("charpoly", "0^1 1^100000 0^1 1^1"),
        ("energy", "0^60000000 1^1")])
    def test_out_of_memory_exits_two(self, argv):
        # under a 256 MB address-space limit the char poly's binomial row
        # of (x+1)^m1, m1 about 10^5, runs out of memory, and so do the
        # 60,000,001 bits of the sequence
        resource = pytest.importorskip("resource")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 256 << 20
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        proc = cli_process(*argv, preexec_fn=limit_memory)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error:")

    def test_large_sequence_in_little_memory(self):
        # the 18,000,001 bits take one tuple of 144 MB, which fits in a
        # 256 MB address space only if the parse makes no second copy
        resource = pytest.importorskip("resource")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 256 << 20
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        proc = cli_process("energy", "0^18000000 1^1", "--json",
                           preexec_fn=limit_memory)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        band = json.loads(out)["results"]["energy"]
        lo, hi = Fraction(band["lo_fraction"]), Fraction(band["hi_fraction"])
        # (0^a 1^b) has E = (b - 1) + sqrt((b - 1)^2 + 4ab); at b = 1 that
        # is 2 sqrt(a), and lo <= 2 sqrt(a) <= hi compares squares
        a = 18_000_000
        assert 0 < lo and lo * lo <= 4 * a <= hi * hi
