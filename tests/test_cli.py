import io
import json
from fractions import Fraction

import pytest

from threshold_spectra import cli, spectra
from threshold_spectra.sequences import adjacency_matrix, parse_sequence


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv, "--json")
    return code, json.loads(out), err


class TestInfo:
    def test_ten_vertex_example(self):
        code, record, _ = run_json("info", "(0^2 1^3 0^3 1^2)")
        assert code == 0
        results = record["results"]
        assert results["n"] == 10
        assert results["edges"] == 26
        assert results["m0"] == 3
        assert results["m_minus1"] == 3

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
        assert run_cli("energy", "001", "--precision", "1e-1000")[0] == 0
        code, _, err = run_cli("energy", "001", "--precision", "1e-1001")
        assert code == 2
        assert err.startswith("error:")

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
        blocks = ((0, 1), (1, 3), (0, 2), (1, 2))
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

    def test_csv_export(self, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, _ = run_json("hunt", "--n", "6", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sequence,energy_lo,energy_hi,char_poly,class_id"
        assert len(lines) == 1 + 16

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
        for criteria in ("99", ",", ""):
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
