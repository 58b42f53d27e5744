import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import dquiver
from dquiver import cli, counting, polygon, quiver, trees
from dquiver.cli import main
from dquiver.errors import BoundExceededError
from dquiver.quiver import Quiver, canonical_key, dynkin_d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ---------------------------------------------------------------------


def test_count_d(capsys):
    code, out, _ = run(capsys, "count", "6", "--type", "D")
    assert code == 0 and out.strip() == "80"


def test_count_d4_special(capsys):
    code, out, _ = run(capsys, "count", "4")
    assert code == 0 and out.strip() == "6"


def test_count_a(capsys):
    code, out, _ = run(capsys, "count", "3", "--type", "A")
    assert code == 0 and out.strip() == "4"


def test_count_invalid_n(capsys):
    code, _, err = run(capsys, "count", "1", "--type", "D")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("kind, n", [("D", 7200), ("A", 20000)])
def test_count_prints_values_past_the_str_digit_limit(capsys, kind, n):
    # both values have more than 4300 digits, so compare as Decimal, not str
    code, out, _ = run(capsys, "count", str(n), "--type", kind)
    assert code == 0
    assert out.endswith("\n") and out[:-1].isdigit()
    assert Decimal(out) == (counting.d_count(n) if kind == "D" else counting.a_count(n))


@pytest.mark.parametrize("kind", ["D", "A"])
def test_count_past_the_sieve_reach_exits_3(capsys, kind):
    code, out, err = run(capsys, "count", str(10**19), "--type", kind)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_out_of_memory_exits_3(capsys, monkeypatch):
    def no_memory(m):
        raise MemoryError

    monkeypatch.setattr(counting, "_primes", no_memory)
    code, out, err = run(capsys, "count", "100")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["D", "A"])
def test_count_past_memory_prints_one_error_line(kind):
    # a sieve of 10^18 bytes cannot be mapped on any address space, so the
    # allocation fails at once and touches no memory.  Before the sieve was
    # grown in place, freeing the failed bytearray also printed a stray
    # SystemError in most runs
    for _ in range(4):
        child = cli_process("count", str(10**18), "--type", kind,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = child.communicate(timeout=60)
        assert (child.returncode, out, err) == (3, "", "error: out of memory\n")


def _decimal_cases():
    rng = random.Random(8)
    for k in (0, 1, 10, 1023, 1024, 1025, 4096, 100_000, 200_000):
        yield 2**k
    for k in (1, 308, 309, 4300, 4301, 30_000, 60_198):
        yield 10**k
        yield 10**k - 1
    for bits in (1, 64, 1000, 5000, 50_000, 200_000):
        yield rng.getrandbits(bits)
        yield rng.getrandbits(bits) | (1 << (bits - 1))


def test_decimal_conversion_prints_the_same_digits():
    for value in _decimal_cases():
        assert str(cli._decimal(value)) == str(Decimal(value))


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--type", "Z", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["1_000", " 7 ", "7 ", "+7", "\u0667", "7.0", "1e3", ""])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "{}"],
        ["enumerate", "{}", "--what", "quivers"],
        ["enumerate", "5", "--what", "quivers", "--bound", "{}"],
        ["verify", "{}", "5"],
        ["verify", "3", "{}"],
        ["verify", "3", "3", "--quiver-bound", "{}"],
        ["verify", "3", "3", "--triangulation-bound", "{}"],
        ["verify", "3", "3", "--tree-bound", "{}"],
    ],
)
def test_integer_arguments_take_ascii_digits_only(capsys, argv, value):
    # int() once read "1_000", " 7 ", "+7" and the Arabic-Indic 7 as numbers
    with pytest.raises(SystemExit) as exc:
        main([arg.format(value) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"invalid int value: {value!r}" in captured.err


# -- enumerate -----------------------------------------------------------------


def test_enumerate_quivers(capsys, tmp_path):
    out_file = tmp_path / "q5.json"
    code, out, _ = run(capsys, "enumerate", "5", "--what", "quivers", "--out", str(out_file))
    assert code == 0 and out.strip() == "26"
    data = json.loads(out_file.read_text())
    assert len(data) == 26
    keys = {canonical_key(Quiver.from_json_obj(obj)) for obj in data}
    assert len(keys) == 26


def test_enumerate_trees(capsys):
    code, out, err = run(capsys, "enumerate", "4", "--what", "trees")
    assert code == 0
    assert len(json.loads(out)) == 10
    assert err.strip() == "10"


def test_enumerate_triangulation_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--what", "triangulations")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 10
    keys = {
        polygon.class_key(polygon.triangulation_from_json_obj(obj)) for obj in data
    }
    assert len(keys) == 10


def test_enumerate_respects_bounds(capsys):
    code, _, err = run(capsys, "enumerate", "11", "--what", "quivers")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("what, bound", [("quivers", 10), ("triangulations", 9), ("trees", 12)])
def test_enumerate_checks_the_domain_the_same_way_on_every_route(capsys, what, bound):
    # n < 3 is malformed input (exit 2); past the desk-scale bound is a
    # resource limit (exit 3)
    for n, expected in ((1, 2), (2, 2), (bound + 1, 3)):
        code, out, err = run(capsys, "enumerate", str(n), "--what", what)
        assert (code, out) == (expected, ""), n
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_enumerate_bound_override(capsys):
    code, out, _ = run(capsys, "enumerate", "8", "--what", "triangulations", "--bound", "8")
    assert code == 0
    assert len(json.loads(out)) == 810


def test_enumerate_seed_orientation(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "enumerate", "4", "--what", "quivers", "--out", str(a))[0] == 0
    code, _, _ = run(capsys, "enumerate", "4", "--what", "quivers",
                     "--seed-orientation", "010", "--out", str(b))
    assert code == 0
    assert a.read_text() == b.read_text()


def test_enumerate_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "t1.json", tmp_path / "t2.json"
    run(capsys, "enumerate", "5", "--what", "triangulations", "--out", str(f1))
    run(capsys, "enumerate", "5", "--what", "triangulations", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def _representative_key(what, obj):
    """The class key of an object enumerate wrote; fails unless it is the
    class's canonical representative."""
    if what == "quivers":
        q = Quiver.from_json_obj(obj)
        assert quiver.canonical_form(q) == q
        return canonical_key(q)
    if what == "triangulations":
        key, rep = polygon.class_representative(polygon.triangulation_from_json_obj(obj))
        assert polygon.triangulation_to_json_obj(rep) == obj
        return key
    star = trees.star_from_json_obj(obj)
    assert trees.canonical_star(star) == star
    return trees.tree_key(star)


def test_enumerate_writes_the_classes_verify_counts(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    assert run(capsys, "verify", "3", "7", "--json", str(report_file))[0] == 0
    reports = {r["n"]: r for r in json.loads(report_file.read_text())}
    routes = {
        "quivers": "quiver_bfs_count",
        "triangulations": "triangulation_class_count",
        "trees": "tree_count",
    }
    for what, field in routes.items():
        for n in range(3, 8):
            out_file = tmp_path / f"{what}{n}.json"
            code, out, _ = run(capsys, "enumerate", str(n), "--what", what, "--out", str(out_file))
            assert code == 0
            keys = [_representative_key(what, obj) for obj in json.loads(out_file.read_text())]
            # one representative per class, in key order
            assert keys == sorted(set(keys))
            assert int(out) == reports[n][field] == len(keys)


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "4", "--what", "trees", "--out"], ["verify", "3", "3", "--json"]],
)
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "8", "--what", "quivers", "--out"], ["verify", "3", "8", "--json"]],
)
def test_unwritable_output_path_fails_before_the_work(capsys, monkeypatch, tmp_path, argv):
    # both commands reach the quiver BFS first
    def no_work(*args):
        raise AssertionError("a class map was built before the output path was opened")

    monkeypatch.setattr(quiver, "mutation_class_representatives", no_work)
    code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "x.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _raising(error):
    def fail(*args):
        raise error("the work failed")

    return fail


@pytest.mark.parametrize(
    "argv, expected",
    [(["enumerate", "5", "--what", "quivers", "--out"], 3),
     (["enumerate", "5", "--what", "quivers", "--out"], 2),
     (["verify", "5", "5", "--seed-orientation", "01", "--json"], 2),
     (["verify", "5", "5", "--json"], 3)],
)
def test_a_failed_command_leaves_no_output_file(capsys, monkeypatch, tmp_path, argv, expected):
    # all but the bad --seed-orientation fail inside the output block, after
    # the file was opened: a bound error exits 3, an input error 2
    error = {3: BoundExceededError, 2: ValueError}[expected]
    monkeypatch.setattr(quiver, "mutation_class_representatives", _raising(error))
    out_file = tmp_path / "x.json"
    code, _, err = run(capsys, *argv, str(out_file))
    assert code == expected and err.startswith("error: ")
    assert not out_file.exists()


def test_a_failed_command_keeps_a_symlinked_output_path(capsys, monkeypatch, tmp_path):
    # only a regular file opened at the path itself is removed, so a link
    # such as /dev/stdout survives a failed command
    monkeypatch.setattr(quiver, "mutation_class_representatives", _raising(BoundExceededError))
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run(capsys, "enumerate", "5", "--what", "quivers", "--out", str(link))
    assert code == 3
    assert link.is_symlink() and target.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [(["enumerate", "2", "--what", "trees"], 2),
     (["enumerate", "5", "--what", "quivers", "--seed-orientation", "zz"], 2),
     (["enumerate", "11", "--what", "quivers"], 3)],
)
def test_an_enumerate_input_error_keeps_the_existing_output_file(capsys, tmp_path, argv, expected):
    # n and --seed-orientation are checked before --out is opened, so the
    # file is neither truncated nor removed
    out_file = tmp_path / "keep.json"
    out_file.write_text("old\n")
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert out_file.read_text() == "old\n"


@pytest.mark.parametrize(
    "what, orientation", [("trees", "zz"), ("triangulations", "01"), ("triangulations", "0110")]
)
def test_enumerate_rejects_seed_orientation_off_the_quiver_route(capsys, what, orientation):
    code, out, err = run(capsys, "enumerate", "5", "--what", what, "--seed-orientation", orientation)
    assert code == 2 and out == ""
    assert err == "error: --seed-orientation applies only to --what quivers\n"


@pytest.mark.parametrize("orientation", ["011", "01101", "01x0"])
def test_enumerate_rejects_a_malformed_seed_orientation(capsys, orientation):
    code, out, err = run(capsys, "enumerate", "5", "--what", "quivers", "--seed-orientation", orientation)
    assert code == 2 and out == ""
    assert err == f"error: --seed-orientation needs 4 characters of 0/1, got {orientation!r}\n"


# -- convert -------------------------------------------------------------------


def write_fan(tmp_path, n):
    path = tmp_path / f"s{n}.json"
    path.write_text(
        json.dumps(polygon.triangulation_to_json_obj(polygon.fan_triangulation(n)))
    )
    return path


def write_leaf_star(tmp_path, n):
    path = tmp_path / f"r{n}.json"
    path.write_text(json.dumps(trees.star_to_json_obj(trees.leaf_star(n))))
    return path


def test_convert_fan_to_dot_cycle(capsys, tmp_path):
    src = write_fan(tmp_path, 5)
    code, out, _ = run(capsys, "convert", "--from", "triangulation", "--to", "quiver",
                       str(src), "--format", "dot")
    assert code == 0
    for i in range(5):
        assert f"{i} -> {(i + 1) % 5};" in out


def test_convert_leaf_star_to_fan(capsys, tmp_path):
    src = write_leaf_star(tmp_path, 5)
    code, out, _ = run(capsys, "convert", "--from", "tree", "--to", "triangulation", str(src))
    assert code == 0
    t = polygon.triangulation_from_json_obj(json.loads(out))
    assert t == polygon.fan_triangulation(5)


def test_convert_round_trip_preserves_class(capsys, tmp_path):
    t = polygon.flip(polygon.fan_triangulation(6), polygon.Radius(2, polygon.PLAIN))
    src = tmp_path / "t.json"
    src.write_text(json.dumps(polygon.triangulation_to_json_obj(t)))
    code, tree_out, _ = run(capsys, "convert", "--from", "triangulation", "--to", "tree", str(src))
    assert code == 0
    mid = tmp_path / "tree.json"
    mid.write_text(tree_out)
    code, tri_out, _ = run(capsys, "convert", "--from", "tree", "--to", "triangulation", str(mid))
    assert code == 0
    back = polygon.triangulation_from_json_obj(json.loads(tri_out))
    assert polygon.class_key(back) == polygon.class_key(t)


def test_convert_rejects_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "diagonals": [')
    code, _, err = run(capsys, "convert", "--from", "triangulation", "--to", "tree", str(bad))
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "source, to, fixture",
    [("triangulation", "tree", write_fan), ("tree", "triangulation", write_leaf_star)],
)
def test_convert_takes_format_dot_only_for_a_quiver(capsys, tmp_path, source, to, fixture):
    src = fixture(tmp_path, 4)
    out_file = tmp_path / "out.json"
    argv = ["convert", "--from", source, "--to", to, str(src)]
    code, out, err = run(capsys, *argv, "--format", "dot", "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: --format dot applies only to --to quiver\n"
    assert not out_file.exists()
    # an explicit --format json writes what the default does
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--format", "json") == default


def test_convert_rejects_unsupported_pair(capsys, tmp_path):
    src = write_fan(tmp_path, 4)
    code, _, err = run(capsys, "convert", "--from", "triangulation", "--to", "triangulation", str(src))
    assert code == 2 and "not defined" in err


# -- mutate --------------------------------------------------------------------


def test_mutate_quiver(capsys, tmp_path):
    src = tmp_path / "d4.json"
    src.write_text(json.dumps(dynkin_d(4).to_json_obj()))
    code, out, _ = run(capsys, "mutate", "--what", "quiver", str(src), "--at", "1")
    assert code == 0
    q = Quiver.from_json_obj(json.loads(out))
    assert q == Quiver.from_arrows(4, [(1, 0), (2, 1), (3, 1), (0, 2), (0, 3)])


def test_mutate_triangulation(capsys, tmp_path):
    src = write_fan(tmp_path, 5)
    t = polygon.fan_triangulation(5)
    code, out, _ = run(capsys, "mutate", "--what", "triangulation", str(src), "--at", "0")
    assert code == 0
    flipped = polygon.triangulation_from_json_obj(json.loads(out))
    assert flipped == polygon.flip(t, t.sorted_diagonals[0])


def test_mutate_tree(capsys, tmp_path):
    src = tmp_path / "r3.json"
    src.write_text(json.dumps(trees.star_to_json_obj(trees.leaf_star(3))))
    code, out, _ = run(capsys, "mutate", "--what", "tree", str(src), "--at", "merge:0")
    assert code == 0
    assert trees.star_from_json_obj(json.loads(out)) == (("L", "L"), "L")


@pytest.mark.parametrize(
    "at, index",
    [("split:-1", -1), ("split:3", 3), ("merge:-1", -1), ("merge:7", 7),
     ("rotate:-1:R", -1), ("rotate:3:L", 3)],
)
def test_mutate_tree_rejects_out_of_range_beads(capsys, tmp_path, at, index):
    src = tmp_path / "s.json"
    src.write_text(json.dumps(trees.star_to_json_obj((trees.LEAF, trees.LEAF, (trees.LEAF, trees.LEAF)))))
    code, out, err = run(capsys, "mutate", "--what", "tree", str(src), "--at", at)
    assert code == 2 and out == ""
    assert err == f"error: bead {index} out of range for 3 beads (0..2)\n"


@pytest.mark.parametrize("at", ["-1", "5"])
def test_mutate_triangulation_rejects_out_of_range_diagonals(capsys, tmp_path, at):
    src = write_fan(tmp_path, 5)
    code, out, err = run(capsys, "mutate", "--what", "triangulation", str(src), "--at", at)
    assert code == 2 and out == ""
    assert err == f"error: diagonal {at} out of range for 5 diagonals (0..4)\n"


def test_mutate_quiver_rejects_out_of_range_vertex(capsys, tmp_path):
    src = tmp_path / "d4.json"
    src.write_text(json.dumps(dynkin_d(4).to_json_obj()))
    code, _, err = run(capsys, "mutate", "--what", "quiver", str(src), "--at", "-1")
    assert code == 2 and err == "error: vertex -1 out of range for rank 4\n"


@pytest.mark.parametrize(
    "argv",
    [("convert", "--from", "tree", "--to", "triangulation"),
     ("mutate", "--what", "tree", "--at", "split:0")],
)
def test_deeply_nested_input_exits_2(capsys, tmp_path, argv):
    depth = 5000
    src = tmp_path / "deep.json"
    src.write_text('{"beads": [' + "[" * depth + '"L"' + ', "L"]' * depth + "]}")
    code, out, err = run(capsys, *argv, str(src))
    assert code == 2 and out == ""
    assert err == f"error: {src}: JSON nested too deeply to read\n"


@pytest.mark.parametrize(
    "argv",
    [("convert", "--from", "triangulation", "--to", "quiver"),
     ("convert", "--from", "tree", "--to", "triangulation"),
     ("mutate", "--what", "quiver", "--at", "0"),
     ("mutate", "--what", "triangulation", "--at", "0"),
     ("mutate", "--what", "tree", "--at", "split:0")],
)
def test_input_that_is_not_utf8_names_its_file(capsys, tmp_path, argv):
    # the decoder's message alone would not say which file it could not read
    src, dst = tmp_path / "bad.json", tmp_path / "out.json"
    src.write_bytes(b"\xff{")
    code, out, err = run(capsys, *argv, str(src), "--out", str(dst))
    assert code == 2 and out == "" and not dst.exists()
    assert err == f"error: {src}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


@pytest.mark.parametrize(
    "what, obj",
    [("triangulation", {"n": 4, "diagonals": [
        {"radius": 0.0, "tag": "plain"}, {"radius": 1, "tag": "plain"},
        {"radius": 2, "tag": "plain"}, {"radius": 3, "tag": "plain"}]}),
     ("triangulation", {"n": 4, "diagonals": [
        {"radius": True, "tag": "plain"}, {"radius": 2, "tag": "plain"},
        {"radius": 3, "tag": "plain"}, {"radius": 0, "tag": "plain"}]}),
     ("quiver", {"rank": True, "arrows": []})],
)
def test_mutate_rejects_bool_and_float_numbers(capsys, tmp_path, what, obj):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(obj))
    code, out, err = run(capsys, "mutate", "--what", what, str(src), "--at", "0")
    assert code == 2 and out == "" and err.startswith("error: ")


def _triangle(first):
    """The plain fan of the triangle with its first radius replaced."""
    return {"n": 3, "diagonals": [first] + [{"radius": a, "tag": "plain"} for a in (1, 2)]}


_MUTATE_TRIANGULATION = ("mutate", "--what", "triangulation", "--at", "0")
_CONVERT_TRIANGULATION = ("convert", "--from", "triangulation", "--to", "tree")
_MUTATE_QUIVER = ("mutate", "--what", "quiver", "--at", "0")


@pytest.mark.parametrize(
    "argv, obj, code, message",
    [
        (_MUTATE_TRIANGULATION, _triangle({"radius": 5, "tag": "plain"}), 2,
         "Radius(a=5, tag='plain') base out of range for n=3"),
        (_CONVERT_TRIANGULATION, _triangle({"radius": 0, "tag": "tagged"}), 2,
         "Radius(a=0, tag='tagged') has unknown tag"),
        (_MUTATE_TRIANGULATION, _triangle({"arc": [0, 2.0]}), 2,
         "Arc(a=0, b=2.0) endpoints must be integers"),
        # an unhashable endpoint is checked before the diagonals are hashed
        (_CONVERT_TRIANGULATION, _triangle({"arc": [[0], 2]}), 2,
         "Arc(a=[0], b=2) endpoints must be integers"),
        (_MUTATE_QUIVER, {"rank": 2, "arrows": [[0, 1.5]]}, 2,
         "arrow (0,1.5) has a vertex that is not an integer"),
        # a size past the JSON limit exits 3 whatever else is wrong
        (_MUTATE_QUIVER, {"rank": 2000, "arrows": [[0, 1.5]]}, 3,
         f"rank 2000 exceeds the JSON rank limit {quiver.MAX_JSON_RANK}"),
    ],
)
def test_json_input_gets_the_constructors_one_line_error(capsys, tmp_path, argv, obj, code, message):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(obj))
    assert run(capsys, *argv, str(src)) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("source, to", [("tree", "quiver"), ("triangulation", "triangulation")])
def test_convert_names_a_pair_it_does_not_define(capsys, tmp_path, source, to):
    src = _leaf_star_file(tmp_path, 3) if source == "tree" else write_fan(tmp_path, 3)
    code, out, err = run(capsys, "convert", "--from", source, "--to", to, str(src))
    assert (code, out, err) == (2, "", f"error: conversion {source} -> {to} is not defined\n")


def test_mutate_bad_position(capsys, tmp_path):
    src = tmp_path / "r3.json"
    src.write_text(json.dumps(trees.star_to_json_obj(trees.leaf_star(3))))
    code, _, err = run(capsys, "mutate", "--what", "tree", str(src), "--at", "frob:1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "at", ["split:x", "merge:1.5", "rotate:x:L", "merge:1_0", "merge: 2", "merge:\u0663", "merge:+1"]
)
def test_mutate_tree_rejects_a_non_integer_bead_index(capsys, tmp_path, at):
    # int() once read the last four as beads 10, 2, 3 and 1 and merged them
    src = tmp_path / "r12.json"
    src.write_text(json.dumps(trees.star_to_json_obj(trees.leaf_star(12))))
    code, out, err = run(capsys, "mutate", "--what", "tree", str(src), "--at", at)
    assert code == 2 and out == ""
    assert err == f"error: bad tree position {at!r}; use split:I, merge:I or rotate:I:PATH\n"


@pytest.mark.parametrize("what", ["quiver", "triangulation"])
@pytest.mark.parametrize("at", ["x", "1_0", " 2", "2 ", "\u0663", "+1", "1.0", ""])
def test_mutate_rejects_an_index_that_is_not_ascii_digits(capsys, tmp_path, what, at):
    # int() once read "1_0", " 2", "2 ", the Arabic-Indic 3 and "+1" as valid indices
    if what == "quiver":
        src = tmp_path / "d12.json"
        src.write_text(json.dumps(dynkin_d(12).to_json_obj()))
    else:
        src = write_fan(tmp_path, 12)
    code, out, err = run(capsys, "mutate", "--what", what, str(src), "--at", at)
    assert code == 2 and out == ""
    assert err == f"error: --at needs an integer index, got {at!r}\n"


@pytest.mark.parametrize("rank", [quiver.MAX_JSON_RANK + 1, 10**9])
def test_mutate_quiver_rejects_a_rank_past_the_json_limit(capsys, monkeypatch, tmp_path, rank):
    def no_matrix(*args):
        raise AssertionError("a rank x rank matrix was allocated before the rank was checked")

    monkeypatch.setattr(Quiver, "from_arrows", no_matrix)
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"rank": rank, "arrows": []}))
    code, out, err = run(capsys, "mutate", "--what", "quiver", str(src), "--at", "0")
    assert code == 3 and out == ""
    assert err == f"error: rank {rank} exceeds the JSON rank limit {quiver.MAX_JSON_RANK}\n"


def _plain_fan_file(tmp_path, n):
    src = tmp_path / f"fan{n}.json"
    src.write_text(json.dumps({"n": n, "diagonals": [{"radius": a, "tag": "plain"} for a in range(n)]}))
    return str(src)


def test_convert_rejects_a_triangulation_past_the_json_limit(capsys, monkeypatch, tmp_path):
    def no_table(n):
        raise AssertionError("the diagonal table was built before n was checked")

    n = polygon.MAX_JSON_N + 1
    src = _plain_fan_file(tmp_path, n)
    monkeypatch.setattr(polygon, "_diagonal_table", no_table)
    code, out, err = run(capsys, "convert", "--from", "triangulation", "--to", "tree", src)
    assert code == 3 and out == ""
    assert err == f"error: n = {n} exceeds the JSON triangulation limit {polygon.MAX_JSON_N}\n"


def test_convert_takes_a_triangulation_at_the_json_limit(capsys, tmp_path):
    n = polygon.MAX_JSON_N
    code, out, _ = run(capsys, "convert", "--from", "triangulation", "--to", "tree",
                       _plain_fan_file(tmp_path, n))
    assert code == 0
    assert json.loads(out) == {"beads": ["L"] * n}


def _leaf_star_file(tmp_path, n):
    src = tmp_path / f"star{n}.json"
    src.write_text(json.dumps(trees.star_to_json_obj(trees.leaf_star(n))))
    return str(src)


def test_convert_rejects_a_tree_past_the_json_limit(capsys, monkeypatch, tmp_path):
    def no_table(n):
        raise AssertionError("the diagonal table was built before n was checked")

    n = polygon.MAX_JSON_N + 1
    src = _leaf_star_file(tmp_path, n)
    monkeypatch.setattr(polygon, "_diagonal_table", no_table)
    code, out, err = run(capsys, "convert", "--from", "tree", "--to", "triangulation", src)
    assert code == 3 and out == ""
    assert err == f"error: n = {n} exceeds the JSON triangulation limit {polygon.MAX_JSON_N}\n"


def test_convert_takes_a_tree_at_the_json_limit(capsys, tmp_path):
    n = polygon.MAX_JSON_N
    code, out, _ = run(capsys, "convert", "--from", "tree", "--to", "triangulation",
                       _leaf_star_file(tmp_path, n))
    assert code == 0
    assert out == dumps(polygon.triangulation_to_json_obj(polygon.fan_triangulation(n)))


# -- JSON text against json.dumps ------------------------------------------------
#
# The writers in cli replace json.dumps(obj, indent=2, sort_keys=True) of each
# type's to_json_obj form, which stays as the oracle.


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cli_process(*argv, **kwargs):
    """Run ``python -m dquiver.cli`` in a child interpreter that imports this
    checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(dquiver.__file__).parents[1]))
    # stdout is block-buffered, as for a user who has not set this
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "dquiver.cli", *argv], env=env, **kwargs)


def test_mutate_writes_a_double_arrow_twice(capsys, tmp_path):
    # mutating the acyclic triangle at its middle vertex doubles 0 -> 2
    q = Quiver.from_arrows(3, [(0, 1), (1, 2), (0, 2)])
    src = tmp_path / "q.json"
    src.write_text(json.dumps(q.to_json_obj()))
    code, out, _ = run(capsys, "mutate", "--what", "quiver", str(src), "--at", "1")
    mutated = quiver.mutate(q, 1)
    assert code == 0 and mutated.b[0][2] == 2
    assert out == dumps(mutated.to_json_obj())
    assert json.loads(out)["arrows"].count([0, 2]) == 2


def test_mutate_writes_a_rank_one_quiver(capsys, tmp_path):
    src = tmp_path / "q.json"
    src.write_text('{"rank": 1, "arrows": []}')
    code, out, _ = run(capsys, "mutate", "--what", "quiver", str(src), "--at", "0")
    assert code == 0
    assert out == dumps({"arrows": [], "rank": 1})


def test_triangulation_text_matches_json_dumps_in_both_configurations(capsys, tmp_path):
    ts = polygon.enumerate_triangulations(5)
    assert {t.config for t in ts} == {"A", "B"}
    texts = list(cli._triangulation_texts(ts, 0))
    assert [text + "\n" for text in texts] == [dumps(polygon.triangulation_to_json_obj(t)) for t in ts]
    # and a config-B triangulation flipped through the command
    t = next(t for t in ts if t.config == "B")
    src = tmp_path / "b.json"
    src.write_text(json.dumps(polygon.triangulation_to_json_obj(t)))
    code, out, _ = run(capsys, "mutate", "--what", "triangulation", str(src), "--at", "0")
    assert code == 0
    assert out == dumps(polygon.triangulation_to_json_obj(polygon.flip(t, t.sorted_diagonals[0])))


@pytest.mark.parametrize("star", [("L",), (("L", "L"),), ((("L", "L"), ("L", ("L", "L"))),)])
def test_star_text_of_one_bead_matches_json_dumps(star):
    assert cli._json_text(cli._star_texts, star) == dumps(trees.star_to_json_obj(star))


def test_star_text_at_every_depth_matches_json_dumps():
    stars = list(trees.star_tree_classes(7).values())
    for depth in range(4):
        pad = "\n" + "  " * depth
        texts = list(cli._star_texts(stars, depth))
        # json.dumps at depth 0, indented as one nesting level per depth
        assert texts == [dumps(trees.star_to_json_obj(s))[:-1].replace("\n", pad) for s in stars]


def test_mutate_writes_a_bead_nested_985_deep(tmp_path):
    # the deepest bead the JSON reader takes in a fresh Python 3.10 or 3.11
    # interpreter; the oracle encoder needs a recursion limit above it
    depth = 985
    src = tmp_path / "deep.json"
    src.write_text('{"beads": [' + "[" * depth + '"L"' + ', "L"]' * depth + ', "L"]}')
    out_file = tmp_path / "out.json"
    proc = cli_process("mutate", "--what", "tree", str(src), "--at", "merge:0",
                       "--out", str(out_file), stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    bead = "L"
    for _ in range(depth):
        bead = (bead, "L")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * depth)
    try:
        expected = dumps(trees.star_to_json_obj(((bead, "L"),)))
    finally:
        sys.setrecursionlimit(limit)
    assert out_file.read_text() == expected


@pytest.mark.parametrize(
    "argv",
    [("convert", "--from", "tree", "--to", "triangulation"),
     ("mutate", "--what", "tree", "--at", "split:0")],
)
def test_a_bead_past_the_recursion_limit_exits_2_with_one_error_line(tmp_path, argv):
    # Python 3.10 and 3.11 stop reading JSON this deep; 3.12 and 3.13 read
    # it, and the bead parser refuses it
    depth = 1200
    src = tmp_path / "deep.json"
    src.write_text('{"beads": [' + "[" * depth + '"L"' + ', "L"]' * depth + "]}")
    proc = cli_process(*argv, str(src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err.startswith(b"error: ") and err.count(b"\n") == 1 and b"nested too deeply" in err


def _route_sha256(what, n):
    """SHA-256 of json.dumps over the to_json_obj form of one route's classes."""
    to_json = {
        "quivers": Quiver.to_json_obj,
        "triangulations": polygon.triangulation_to_json_obj,
        "trees": trees.star_to_json_obj,
    }[what]
    classes = cli._ROUTES[what].classes(n, None)
    objs = [to_json(classes[key]) for key in sorted(classes)]
    return hashlib.sha256(dumps(objs).encode()).hexdigest()


# SHA-256 of ``enumerate N --what quivers``, pinned while a Quiver still
# stored its dense matrix; n = 8 is also "quivers 8" in bench/reference.json
QUIVERS_SHA256 = {
    3: "0ff3985a75563802c080708746708cf2bb92c666f5af9d2fbd7c864ecb00d5f3",
    4: "fc21aa334cc2dcc4982bcc22ea9d7a0978235459f0627fa2fbd5e599a666e1ad",
    5: "123f1dae4d30020f792f1f2dde4665b5338f9caf553799f37eecb2e34ae54b40",
    6: "2709934f7c18ff8a251cfc5fce978ff4dee20b3c1216f157208c79b960e818c8",
    7: "0d9bbbce4904a7ac30c328b7e3db86fb32349123bd5d4e959505279e8c4ac005",
    8: "ea7c5a3b9217804c53c70821eb8f345822463c909fa8ad853a7cedefe70016a9",
    9: "10307759bf739a3c429bb3d28d8b17042fd06aecea494b1323abb5a7fc41d74d",
}

# SHA-256 of ``enumerate N --what triangulations``; n = 7 is also
# "triangulations 7" in bench/reference.json
TRIANGULATIONS_SHA256 = {
    3: "9a9ac2c1f616d75f7311ad26649779d31a866b5136fe432120bbf81204eab35f",
    4: "95439ee11b5bb253fa93bd02b075f4f9fdf55a0259b972b393febb38c24600b7",
    5: "306323bd60a8f5cf7c9dc08d01a6e3c97f7d24933d9b703b6fac8c81df0dadc4",
    6: "48427d46a41a0026af17f7ff8f81aeb57ee52efa75ca5c7945e8dfb8f652fd2a",
    7: "c11d5c4396dc3b5f1fd656a769a68e2298b4f6486d3103f1ee86d13d0e3383ba",
    8: "7f47ac8547ed3690956b60338e5ddecd2da365341c50700f9621e4d7b6d65e35",
    9: "bc59f2d3d785ec8e319f92262cbdec9e62a2fbabaf6bd2a9e9c2a17e62ed2403",
}


@pytest.mark.parametrize(
    "what, n",
    [("quivers", n) for n in range(3, 10)]
    + [("triangulations", n) for n in range(3, 10)]
    + [("trees", n) for n in range(3, 12)],
)
def test_enumerate_writes_what_json_dumps_writes(capsys, tmp_path, what, n):
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, "enumerate", str(n), "--what", what, "--out", str(out_file))
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == _route_sha256(what, n)
    # the writer and to_json_obj both read arrows(), so the line above cannot
    # see a change in what a Quiver stores; the pinned digest can
    if what == "quivers":
        assert digest == QUIVERS_SHA256[n]
    # both read the same class map, so only the pinned digest sees a change
    # in which image class_representative picks
    if what == "triangulations":
        assert digest == TRIANGULATIONS_SHA256[n]


# what main prints when stdout's reader has gone
BROKEN_PIPE = f"error: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n"


def test_a_stdout_closed_early_exits_2_with_one_error_line():
    # the reader stops after 100 bytes, as ``| head -c 100`` does; the output
    # is megabytes, so a later write finds the pipe closed
    proc = cli_process("enumerate", "10", "--what", "trees",
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (2, BROKEN_PIPE)


@pytest.mark.parametrize(
    "argv", [("count", "5"), ("verify", "3", "3"), ("enumerate", "3", "--what", "trees")]
)
def test_a_stdout_closed_before_a_short_output_exits_2(argv):
    # the output fits stdout's buffer, so no write fails before main ends;
    # enumerate must not print its class count to stderr either
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (2, BROKEN_PIPE)


@pytest.mark.parametrize("argv", [("enumerate", "9", "--what", "trees"), ("enumerate", "7", "--what", "quivers")])
def test_a_pipe_closed_under_stdout_and_stderr_alike_exits_2(argv):
    # as ``2>&1 | head -1``: the error line's own write fails too.  Each
    # output is larger than a 64 KiB pipe, so a write finds the pipe closed
    read_end, write_end = os.pipe()
    try:
        proc = cli_process(*argv, stdout=write_end, stderr=write_end)
    finally:
        os.close(write_end)
    try:
        assert os.read(read_end, 16)
    finally:
        os.close(read_end)
    assert proc.wait(timeout=120) == 2


# -- verify --------------------------------------------------------------------


def test_verify_range(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "5", "6", "--json", str(report_file))
    assert code == 0
    assert "26" in out and "80" in out
    reports = json.loads(report_file.read_text())
    assert [r["n"] for r in reports] == [5, 6]
    for r in reports:
        assert r["formula_count"] == r["quiver_bfs_count"]
        assert r["formula_count"] == r["triangulation_class_count"]
        assert r["formula_count"] == r["tree_count"]
        assert all(r["agreement"].values())
        assert "quiver_bfs" in r["wall_time"]


def test_verify_at_twelve_prints_the_table_the_benchmark_pins(capsys):
    # bench/reference.json is only read
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    pinned = json.loads(reference.read_text(encoding="utf-8"))["verify_stdout_sha256"]["12 12"]
    code, out, err = run(capsys, "verify", "12", "12")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


def test_verify_reports_expected_divergence_at_four(capsys):
    code, out, _ = run(capsys, "verify", "4", "4")
    assert code == 0
    assert "expected divergence" in out
    assert "10" in out and "6" in out


def test_verify_prints_one_row_per_n_under_its_header(capsys):
    code, out, err = run(capsys, "verify", "3", "6")
    assert (code, err) == (0, "")
    assert out == (
        "  n    formula quiver_bfs   triang    trees  status\n"
        "---------------------------------------------------\n"
        "  3          4          4        4        4  ok\n"
        "  4          6          6       10       10  ok (expected divergence at n=4)\n"
        "  5         26         26       26       26  ok\n"
        "  6         80         80       80       80  ok\n"
    )


def test_verify_skips_out_of_bound_methods(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "11", "11", "--json", str(report_file))
    assert code == 0
    (report,) = json.loads(report_file.read_text())
    assert report["quiver_bfs_count"] == "skipped"
    assert report["triangulation_class_count"] == "skipped"
    assert report["tree_count"] == 32066
    assert "skipped" in out


def test_verify_rejects_bad_range(capsys):
    assert run(capsys, "verify", "6", "5")[0] == 2
    assert run(capsys, "verify", "1", "5")[0] == 2


def test_verify_with_a_seed_orientation(capsys):
    code, out, err = run(capsys, "verify", "5", "5", "--seed-orientation", "0110")
    assert code == 0 and err == ""
    assert out == run(capsys, "verify", "5", "5")[1]


@pytest.mark.parametrize(
    "argv, message",
    [(["5", "5", "--seed-orientation", "01x0"],
      "--seed-orientation needs 4 characters of 0/1, got '01x0'"),
     (["3", "4", "--seed-orientation", "01"],
      "--seed-orientation needs a single n, got the range 3..4"),
     (["11", "11", "--seed-orientation", "0000000000"],
      "--seed-orientation is for the quiver route, which skips n = 11 (quiver bound 10)"),
     (["6", "6", "--quiver-bound", "5", "--seed-orientation", "01010"],
      "--seed-orientation is for the quiver route, which skips n = 6 (quiver bound 5)")],
)
def test_verify_rejects_a_seed_orientation_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args):
        raise AssertionError("verify did work before checking --seed-orientation")

    monkeypatch.setattr(cli, "_verify_one", no_work)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_catches_a_wrong_formula(capsys, monkeypatch):
    # the tree route agrees with the necklace sum, so only trees_vs_formula
    # can see that the closed form is off by one
    real = counting.d_count
    monkeypatch.setattr(counting, "d_count", lambda n: real(n) + 1)
    code, out, _ = run(capsys, "verify", "11", "12")
    assert code == 1
    assert out.splitlines()[2:] == [
        " 11      32067    skipped  skipped    32066  FAIL: trees",
        " 12     112721    skipped  skipped   112720  FAIL: trees",
    ]


def _one_fewer(real):
    return lambda *args, **kwargs: set(sorted(real(*args, **kwargs))[1:])


def _accept_every_image(real):
    return lambda table: lambda images: 0


def _first_dropped(real):
    """``_least_rotations`` with the first star of its first nonempty run lost."""

    def fake(n, visit, tables):
        dropped = False

        def shortened(prefix, table, lo, tails):
            nonlocal dropped
            if not dropped and lo < len(table):
                dropped = True
                lo += 1
            visit(prefix, table, lo, tails)

        real(n, shortened, tables)

    return fake


@pytest.mark.parametrize(
    "n, module, name, fake, route",
    [
        (5, quiver, "mutation_class_representatives", _one_fewer, "quiver_bfs"),
        # with no image test failing, every triangulation is kept, not one per
        # class: 182 and 50 instead of 26 and 10
        (5, polygon, "_beaten", _accept_every_image, "triangulations"),
        (4, polygon, "_beaten", _accept_every_image, "triangulations"),
        # one recursion feeds both the class map and the count, so the lost
        # class reaches enumerate and verify alike
        (5, trees, "_least_rotations", _first_dropped, "trees"),
        (4, trees, "_least_rotations", _first_dropped, "trees"),
    ],
)
def test_verify_fails_each_route_on_its_own_disagreement(capsys, monkeypatch, n, module, name, fake, route):
    # at n = 4 this also checks that the allowed divergence covers only the
    # documented count 10
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    code, out, _ = run(capsys, "verify", str(n), str(n))
    assert code == 1
    assert out.splitlines()[2].endswith(f"FAIL: {route}")


@pytest.mark.parametrize(
    "n, module, name, ten, row",
    [
        # the quiver route's check allows nothing at n = 4
        (4, quiver, "mutation_class_representatives", dict.fromkeys(range(10)),
         "  4          6         10       10       10  FAIL: quiver_bfs"),
        # the triangulation route's allowance holds at n = 4 only
        (5, polygon, "triangulation_class_count", 10,
         "  5         26         26       10       26  FAIL: triangulations"),
    ],
    ids=["quivers", "triangulations"],
)
def test_verify_allows_ten_classes_only_where_a_check_says_so(capsys, monkeypatch, n, module, name, ten, row):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: ten)
    code, out, _ = run(capsys, "verify", str(n), str(n))
    assert code == 1
    assert out.splitlines()[2:] == [row]


def test_a_tree_class_lost_in_generation_reaches_enumerate_too(capsys, monkeypatch):
    monkeypatch.setattr(trees, "_least_rotations", _first_dropped(trees._least_rotations))
    code, out, err = run(capsys, "enumerate", "5", "--what", "trees")
    assert code == 0 and err == "25\n"
    assert len(json.loads(out)) == 25


@pytest.mark.parametrize(
    "n, row",
    [
        (5, "  5         26         26       26       26  ok"),
        (12, " 12     112720    skipped  skipped   112720  ok"),
        # verify counts trees past enumerate's tree bound 12, up to 16
        (13, " 13     400024    skipped  skipped   400024  ok"),
        (15, " 15    5170604    skipped  skipped  5170604  ok"),
    ],
)
def test_verify_counts_the_tree_route_without_its_class_map(capsys, monkeypatch, n, row):
    def no_map(n):
        raise AssertionError("verify built a class map")

    monkeypatch.setattr(trees, "star_tree_classes", no_map)
    monkeypatch.setattr(polygon, "triangulation_classes", no_map)
    code, out, err = run(capsys, "verify", str(n), str(n))
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [row]


@pytest.mark.parametrize("n", [34, 40])
def test_verify_refuses_a_tree_count_past_64_bit_bead_keys(capsys, monkeypatch, n):
    def no_tables(*args):
        raise AssertionError("bead tables were built before n was checked")

    monkeypatch.setattr(trees, "_bead_tables", no_tables)
    code, out, err = run(capsys, "verify", str(n), str(n), "--tree-bound", str(n))
    assert code == 3 and out == ""
    assert err == f"error: star_tree_class_count supports n <= 33, got {n}\n"


# the routes stay independent: each route's count and class map run in
# cli, errors (the int checks) and the route's own module, and nowhere else
@pytest.mark.parametrize(
    "what, module",
    [("quivers", "dquiver.quiver"), ("triangulations", "dquiver.polygon"), ("trees", "dquiver.trees")],
)
@pytest.mark.parametrize("build", ["count", "classes"], ids=["count", "map"])
def test_each_route_runs_only_in_its_own_module(what, module, build):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_globals.get("__name__"))

    sys.setprofile(profile)
    try:
        getattr(cli._ROUTES[what], build)(7, None)
    finally:
        sys.setprofile(None)
    ours = {name for name in entered if isinstance(name, str) and name.split(".")[0] == "dquiver"}
    assert {"dquiver.cli", module} <= ours <= {"dquiver.cli", "dquiver.errors", module}
