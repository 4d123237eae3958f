"""The runtime stays stdlib-only.

Every command is run through `cli.run` in a fresh interpreter; each module
it imports must come from the standard library or from the package.
Modules that were already loaded before the package (by `site`, for
example) and dunder aliases such as `__mp_main__` are not the package's
imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import io, json, sys
before = set(sys.modules)
from threshold_spectra import cli
commands = [
    ["energy", "(0^2 1^3 0^3 1^2)"],
    ["info", "(0^2 1^3 0^3 1^2)"],
    ["family", "four", "--i", "1", "--verify"],
    ["hunt", "--n", "8", "--jobs", "2"],
    ["selftest", "--criteria", "4"],
]
codes = [cli.run(argv, out=io.StringIO(), err=io.StringIO())
         for argv in commands]
print(json.dumps({"codes": codes,
                  "new": sorted(set(sys.modules) - before)}))
"""


def test_commands_import_only_stdlib_and_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 5
    foreign = [name for name in report["new"]
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "threshold_spectra"
               and not (name.startswith("__") and name.endswith("__"))]
    assert foreign == []
    assert "threshold_spectra.cli" in report["new"]
