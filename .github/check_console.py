"""Check the installed ``dquiver`` console script against bench/reference.json.

Runs ``verify``, ``count`` and ``enumerate`` in a temporary directory and
compares what they write, ``verify 12 12``'s table among them, with what
bench/reference.json pins; the reference file is only read.  That file
pins the triangulation route at n = 7 only, so ``enumerate 9 --what
triangulations``, at the route's enumerate bound, is checked against the
digest ``T9_SHA256`` kept here.  A count whose sieve cannot be allocated
must exit 3 with one ``error:`` line, and ``count 1_000`` must exit 2,
both with no output.  ``convert`` must turn the plain n = 5 fan into the
oriented 5-cycle, in JSON and in DOT, and ``mutate`` must rotate an inner
edge of a star tree and flip a diagonal of that fan into the bytes kept
here as ``ROTATED_STAR`` and ``FLIPPED_FAN5``.  Then it
feeds each JSON reader one malformed file, and the tree reader one more
that is not UTF-8, and asks for DOT from a conversion that gives no
quiver; each must exit 2 with one ``error:`` line and write no output.
After ``pip install -e .``, run it from anywhere as ``python
.github/check_console.py``.  It exits 0 when every check holds, and
otherwise with the message of the first that fails.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
# SHA-256 of what enumerate 9 --what triangulations writes, measured at 7d5b80a
T9_SHA256 = "bc59f2d3d785ec8e319f92262cbdec9e62a2fbabaf6bd2a9e9c2a17e62ed2403"
# what mutate --what tree --at rotate:0:R writes for the beads [["L", ["L", "L"]], "L"],
# and mutate --what triangulation --at 0 for the plain n = 5 fan, measured at 7dd0b06
ROTATED_STAR = (
    b'{\n  "beads": [\n    [\n      [\n        "L",\n        "L"\n      ],\n      "L"\n'
    b'    ],\n    "L"\n  ]\n}\n'
)
FLIPPED_FAN5 = (
    b'{\n  "diagonals": [\n    {\n      "arc": [\n        4,\n        1\n      ]\n    },\n'
    b'    {\n      "radius": 1,\n      "tag": "plain"\n    },\n    {\n      "radius": 2,\n'
    b'      "tag": "plain"\n    },\n    {\n      "radius": 3,\n      "tag": "plain"\n'
    b'    },\n    {\n      "radius": 4,\n      "tag": "plain"\n    }\n  ],\n  "n": 5\n}\n'
)


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

        # default bounds: only the formula and the tree route run at n = 12
        with open(work / "verify12.txt", "wb") as out:
            dquiver(tmp, "verify", "12", "12", stdout=out)
        want = reference["verify_stdout_sha256"]["12 12"]
        got = hashlib.sha256((work / "verify12.txt").read_bytes()).hexdigest()
        if got != want:
            sys.exit(f"dquiver verify 12 12 printed SHA-256 {got}, bench/reference.json pins {want}")

        dquiver(tmp, "verify", "3", "6", "--json", "verify.json")
        reports = json.loads((work / "verify.json").read_text())
        if not (len(reports) == 4 and all(r["status"].startswith("ok") and not r["failures"] for r in reports)):
            sys.exit(f"verify.json should hold four ok reports, got {reports!r}")

        # n = 10 is the triangulation route's verify bound
        dquiver(tmp, "verify", "10", "10", "--quiver-bound", "9", "--json", "verify10.json")
        (report,) = json.loads((work / "verify10.json").read_text())
        if not (report["triangulation_class_count"] == 9252 and report["status"] == "ok"):
            sys.exit(f"verify10.json should report 9252 triangulation classes and ok, got {report!r}")

        # n = 10 is also the quiver route's verify bound: the pair search
        # runs at its largest n
        dquiver(tmp, "verify", "9", "10", "--json", "verify9_10.json")
        reports = json.loads((work / "verify9_10.json").read_text())
        got = [(r["quiver_bfs_count"], r["status"]) for r in reports]
        if got != [(2704, "ok"), (9252, "ok")]:
            sys.exit(f"verify9_10.json should report 2704 and 9252 quiver classes, both ok, got {got!r}")

        # n = 19 is the tree route's verify bound: the count builds bead
        # tables up to 13 leaves and ranks keys among the larger beads;
        # n = 20 is past it
        for n, want in [(15, 5170604), (16, 18784170), (17, 68635478), (18, 252088496), (19, 930138522),
                        (20, "skipped")]:
            dquiver(tmp, "verify", str(n), str(n), "--json", f"verify{n}.json")
            (report,) = json.loads((work / f"verify{n}.json").read_text())
            if not (report["tree_count"] == want and report["status"] == "ok"):
                sys.exit(f"verify{n}.json should report tree count {want!r} and ok, got {report!r}")

        with open(work / "d100000.txt", "w") as out:
            dquiver(tmp, "count", "100000", "--type", "D", stdout=out)
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        want = reference["large_counts"]["D 100000"]["sha256"]
        value = int((work / "d100000.txt").read_text())
        got = hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()
        if got != want:
            sys.exit(f"dquiver count 100000 --type D has SHA-256 {got}, bench/reference.json pins {want}")

        # a sieve of 10^18 bytes cannot be mapped: one error line, exit 3;
        # an integer that is not plain ASCII digits is a usage error, exit 2
        for argv, code in [
            (["count", str(10**18), "--type", "D"], 3),
            (["count", str(10**18), "--type", "A"], 3),
            (["count", "1_000"], 2),
        ]:
            run = subprocess.run(["dquiver", *argv], cwd=tmp, capture_output=True, text=True)
            lines = run.stderr.splitlines()
            if not (run.returncode == code and run.stdout == ""):
                sys.exit(f"dquiver {' '.join(argv)} should exit {code} with no output, "
                         f"got exit {run.returncode} and stdout {run.stdout!r}")
            if code == 3 and not (len(lines) == 1 and lines[0].startswith("error: ")):
                sys.exit(f"dquiver {' '.join(argv)} should print one error: line, got {run.stderr!r}")

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

        with open(work / "t9.txt", "wb") as out:
            dquiver(tmp, "enumerate", "9", "--what", "triangulations", "--out", "t9.json", stdout=out)
        got = (work / "t9.txt").read_text(), hashlib.sha256((work / "t9.json").read_bytes()).hexdigest()
        if got != ("2704\n", T9_SHA256):
            sys.exit(f"enumerate 9 --what triangulations printed {got[0]!r} and wrote SHA-256 {got[1]}, "
                     f"want '2704\\n' and {T9_SHA256}")

        # the plain fan's quiver is the oriented cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0
        cycle = [[i, (i + 1) % 5] for i in range(5)]
        fan = {"n": 5, "diagonals": [{"radius": a, "tag": "plain"} for a in range(5)]}
        (work / "fan5.json").write_text(json.dumps(fan))
        convert = ["convert", "--from", "triangulation", "--to", "quiver", "fan5.json"]
        dquiver(tmp, *convert, "--out", "fan5_quiver.json")
        got = json.loads((work / "fan5_quiver.json").read_text())
        if got != {"rank": 5, "arrows": cycle}:
            sys.exit(f"the n = 5 fan's quiver should be the oriented 5-cycle, got {got!r}")
        dquiver(tmp, *convert, "--format", "dot", "--out", "fan5.dot")
        want = "".join(["digraph quiver {\n", *(f"  {v};\n" for v in range(5)),
                        *(f"  {i} -> {j};\n" for i, j in cycle), "}\n"])
        got = (work / "fan5.dot").read_text()
        if got != want:
            sys.exit(f"the n = 5 fan's quiver in DOT should be the oriented 5-cycle, got {got!r}")

        (work / "star.json").write_text(json.dumps({"beads": [["L", ["L", "L"]], "L"]}))
        for argv, want in [
            (["--what", "tree", "star.json", "--at", "rotate:0:R"], ROTATED_STAR),
            (["--what", "triangulation", "fan5.json", "--at", "0"], FLIPPED_FAN5),
        ]:
            dquiver(tmp, "mutate", *argv, "--out", "mutated.json")
            got = (work / "mutated.json").read_bytes()
            if got != want:
                sys.exit(f"dquiver mutate {' '.join(argv)} wrote {got!r}, want {want!r}")

        radii = [{"radius": a, "tag": "plain"} for a in (1, 2)]
        for name, obj, argv in [
            ("float_vertex.json", {"rank": 2, "arrows": [[0, 1.5]]},
             ["mutate", "--what", "quiver", "--at", "0"]),
            ("unknown_tag.json", {"n": 3, "diagonals": [{"radius": 0, "tag": "tagged"}, *radii]},
             ["convert", "--from", "triangulation", "--to", "tree"]),
            ("three_element_bead.json", {"beads": [["L", "L", "L"]]},
             ["convert", "--from", "tree", "--to", "triangulation"]),
            # bytes: a file that is not UTF-8
            ("not_utf8.json", b"\xff{", ["convert", "--from", "tree", "--to", "triangulation"]),
            # --format applies only to --to quiver
            ("fan5.json", fan, ["convert", "--from", "triangulation", "--to", "tree", "--format", "dot"]),
        ]:
            (work / name).write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
            run = subprocess.run(["dquiver", *argv, name, "--out", "out.json"],
                                 cwd=tmp, capture_output=True, text=True)
            lines = run.stderr.splitlines()
            if not (run.returncode == 2 and len(lines) == 1 and lines[0].startswith("error: ")):
                sys.exit(f"dquiver {' '.join(argv)} {name} should exit 2 with one error: line, "
                         f"got exit {run.returncode} and stderr {run.stderr!r}")
            if (work / "out.json").exists():
                sys.exit(f"dquiver {' '.join(argv)} {name} left its --out file")


if __name__ == "__main__":
    main()
