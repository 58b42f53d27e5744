"""Check the installed ``dquiver`` console script against bench/reference.json.

Runs ``verify``, ``count`` and ``enumerate`` in a temporary directory and
compares what they write with what bench/reference.json pins; the
reference file is only read.  After ``pip install -e .``, run it from
anywhere as ``python .github/check_console.py``.  It exits 0 when every
check holds, and otherwise with the message of the first that fails.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def dquiver(cwd: str, *argv: str, stdout=None) -> None:
    code = subprocess.run(["dquiver", *argv], cwd=cwd, stdout=stdout).returncode
    if code:
        sys.exit(f"dquiver {' '.join(argv)} exited {code}")


def main() -> None:
    if shutil.which("dquiver") is None:
        sys.exit("the dquiver console script is not installed; run pip install -e .")
    reference = json.loads(REFERENCE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        dquiver(tmp, "verify", "3", "8")
        dquiver(tmp, "verify", "13", "14")

        dquiver(tmp, "verify", "3", "6", "--json", "verify.json")
        reports = json.loads((work / "verify.json").read_text())
        if not (len(reports) == 4 and all(r["status"].startswith("ok") and not r["failures"] for r in reports)):
            sys.exit(f"verify.json should hold four ok reports, got {reports!r}")

        with open(work / "d100000.txt", "w") as out:
            dquiver(tmp, "count", "100000", "--type", "D", stdout=out)
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        want = reference["large_counts"]["D 100000"]["sha256"]
        value = int((work / "d100000.txt").read_text())
        got = hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()
        if got != want:
            sys.exit(f"dquiver count 100000 --type D has SHA-256 {got}, bench/reference.json pins {want}")

        for name, argv, pinned in [
            ("q8.json", ["8", "--what", "quivers"], "quivers 8"),
            ("q8b.json", ["8", "--what", "quivers", "--seed-orientation", "0110101"], "quivers 8"),
            ("t7.json", ["7", "--what", "triangulations"], "triangulations 7"),
        ]:
            dquiver(tmp, "enumerate", *argv, "--out", name)
            want = reference["enumerate_sha256"][pinned]
            got = hashlib.sha256((work / name).read_bytes()).hexdigest()
            if got != want:
                sys.exit(f"{name} has SHA-256 {got}, bench/reference.json pins {want}")


if __name__ == "__main__":
    main()
