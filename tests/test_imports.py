"""A command imports only the code it runs, and the package's public names
load on first use.

Each check runs in a fresh interpreter, since an import made by any other
test would hide one that a command makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's public names in order, with the submodule attribute each is.
PUBLIC = {
    "CubicRootReport": ("families", "CubicRootReport"),
    "EnergyClass": ("hunt", "EnergyClass"),
    "FamilyId": ("families", "FamilyId"),
    "FamilyPair": ("families", "FamilyPair"),
    "HuntResult": ("hunt", "HuntResult"),
    "RootEnclosure": ("roots", "RootEnclosure"),
    "SequenceRecord": ("hunt", "SequenceRecord"),
    "SpectralSummary": ("spectra", "SpectralSummary"),
    "VerificationReport": ("families", "VerificationReport"),
    "adjacency_matrix": ("sequences", "adjacency_matrix"),
    "bareiss_determinant": ("linalg", "bareiss_determinant"),
    "char_poly": ("spectra", "char_poly"),
    "char_poly_of_sequence": ("spectra", "char_poly_of_sequence"),
    "charpoly_from_matrix": ("linalg", "charpoly"),
    "closed_form_char_poly": ("families", "closed_form_char_poly"),
    "cubic_root_localization": ("families", "cubic_root_localization"),
    "edge_count": ("sequences", "edge_count"),
    "energy": ("spectra", "energy"),
    "enumerate_connected": ("sequences", "enumerate_connected"),
    "exact_energy_equal": ("families", "exact_energy_equal"),
    "family_pair": ("families", "family_pair"),
    "format_blocks": ("sequences", "format_blocks"),
    "format_sequence": ("sequences", "format_sequence"),
    "from_blocks": ("sequences", "from_blocks"),
    "full_scan": ("hunt", "full_scan"),
    "index_sequences": ("spectra", "index_sequences"),
    "isolate_real_roots": ("roots", "isolate_real_roots"),
    "multiplicity_minus_one": ("spectra", "multiplicity_minus_one"),
    "multiplicity_zero": ("spectra", "multiplicity_zero"),
    "parse_sequence": ("sequences", "parse_sequence"),
    "q_polynomial": ("spectra", "q_polynomial"),
    "spectral_summary": ("spectra", "spectral_summary"),
    "to_blocks": ("sequences", "to_blocks"),
    "verify_family": ("families", "verify_family"),
}

# Modules no energy, info or plain charpoly query may load.
NOT_FOR_SINGLE_GRAPHS = ("threshold_spectra.families", "threshold_spectra.hunt",
                         "threshold_spectra.linalg",
                         "threshold_spectra.acceptance", "multiprocessing",
                         "csv")

SINGLE_GRAPH_SCRIPT = """
import io, json, sys
from threshold_spectra import cli
def run(*argv):
    assert cli.run(list(argv), out=io.StringIO(), err=io.StringIO()) == 0
run("energy", "01")
after_energy = sorted(m for m in sys.modules if m.startswith("threshold_spectra"))
run("info", "(0^2 1^3 0^3 1^2)")
run("charpoly", "(0^2 1^3 0^3 1^2)")
print(json.dumps({"after_energy": after_energy, "modules": sorted(sys.modules)}))
"""

HUNT_SCRIPT = """
import io, json, sys
from threshold_spectra import cli
code = cli.run(["hunt", "--n", "8", "--jobs", "1"], out=io.StringIO(),
               err=io.StringIO())
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

PUBLIC_SCRIPT = """
import importlib, json, sys
import threshold_spectra as ts
loaded = sorted(m for m in sys.modules if m.startswith("threshold_spectra."))
public = json.loads(sys.argv[1])
same = {name: getattr(ts, name) is getattr(
            importlib.import_module("threshold_spectra." + module), attr)
        for name, (module, attr) in public.items()}
namespace = {}
exec("from threshold_spectra import *", namespace)
try:
    ts.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded_by_import": loaded, "all": ts.__all__,
                  "same": same, "dir": dir(ts),
                  "star": sorted(k for k in namespace if k != "__builtins__"),
                  "unknown": unknown}))
"""


def run_fresh(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_single_graph_commands_load_only_their_modules():
    report = run_fresh(SINGLE_GRAPH_SCRIPT)
    assert report["after_energy"] == [
        "threshold_spectra", "threshold_spectra.cli",
        "threshold_spectra.intpoly", "threshold_spectra.roots",
        "threshold_spectra.sequences", "threshold_spectra.spectra",
        "threshold_spectra.util"]
    assert [m for m in NOT_FOR_SINGLE_GRAPHS if m in report["modules"]] == []


def test_hunt_without_jobs_loads_no_multiprocessing():
    report = run_fresh(HUNT_SCRIPT)
    assert report["code"] == 0
    assert "threshold_spectra.hunt" in report["modules"]
    assert [m for m in report["modules"]
            if m.split(".")[0] in ("multiprocessing", "csv")] == []


def test_public_names_load_on_first_use():
    report = run_fresh(PUBLIC_SCRIPT, json.dumps(PUBLIC))
    assert report["loaded_by_import"] == []
    assert report["all"] == list(PUBLIC)
    assert [name for name, same in report["same"].items() if not same] == []
    assert set(PUBLIC) <= set(report["dir"])
    assert report["star"] == sorted(PUBLIC)
    assert "no_such_name" in report["unknown"]
