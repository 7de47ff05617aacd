import json
from itertools import combinations

import pytest

from ringpoints.cache import ResultCache, ResultRecord
from ringpoints.cli import main
from ringpoints.geometry import is_collinear, is_integral


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_value_basic(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    code, out, _ = run(["value", "--n", "9", "--m", "2", "--cache", cache], capsys)
    assert code == 0
    assert out.strip() == "27"


def test_value_semi_general(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    code, out, _ = run(
        ["value", "--n", "18", "--m", "2", "--mode", "semi-general", "--cache", cache], capsys
    )
    assert code == 0
    assert out.strip() == "10"


def test_value_trivial(tmp_path, capsys):
    code, out, _ = run(["value", "--n", "1", "--m", "5", "--cache", str(tmp_path / "c.json")], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_value_json_schema(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    code, out, _ = run(
        ["value", "--n", "5", "--m", "2", "--json", "--cache", cache], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "m", "mode", "value", "exact", "witness", "elapsed_ms", "variant", "version"}
    assert payload["value"] == 5 and payload["exact"] is True


def test_value_invalid_input(tmp_path, capsys):
    code, _, err = run(["value", "--n", "0", "--m", "2", "--cache", str(tmp_path / "c.json")], capsys)
    assert code == 1
    assert "error" in err


def test_value_timeout_exit_code(tmp_path, capsys):
    # the search for I(3, 6) takes seconds, far past the budget
    code, out, err = run(
        ["value", "--n", "3", "--m", "6", "--budget", "0.05", "--cache", str(tmp_path / "c.json")],
        capsys,
    )
    assert code == 2
    assert "lower bound" in err


def test_value_timeout_json_carries_incumbent(tmp_path, capsys):
    # semi-general n = 50 is open after hundreds of seconds; the record is the
    # incumbent, a lower bound with its points, and is not cached
    cache = tmp_path / "c.json"
    code, out, err = run(
        ["value", "--n", "50", "--m", "2", "--mode", "semi-general", "--budget", "0.5", "--json",
         "--cache", str(cache)],
        capsys,
    )
    assert code == 2 and "lower bound" in err
    payload = json.loads(out)
    assert payload["exact"] is False and payload["mode"] == "semi-general"
    points = [tuple(p) for p in payload["witness"]]
    assert len(points) == len(set(points)) == payload["value"] >= 3
    for a, b in combinations(points, 2):
        assert is_integral(a, b, 50)
    for tri in combinations(points, 3):
        assert not is_collinear(*tri, 50)
    assert ResultCache(str(cache)).get(50, 2, "semi-general") is None


def test_value_has_one_dispatch():
    # I(n, m) has one code path; the graph-variant cross-checks live in the tests
    for flags in (["--variant", "full"], ["--no-cartesian"]):
        with pytest.raises(SystemExit):
            main(["value", "--n", "9", "--m", "2", *flags])


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = ResultCache(path)
    rec = ResultRecord(n=9, m=2, mode="I", value=27, exact=True, witness=None, elapsed_ms=5)
    cache.put(rec)
    cache.save()
    reloaded = ResultCache(path)
    got = reloaded.get(9, 2, "I")
    assert got is not None
    assert got.payload() == rec.payload()
    assert not reloaded.corrupt


def test_cache_detects_corruption(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = ResultCache(path)
    cache.put(ResultRecord(n=9, m=2, mode="I", value=27, exact=True))
    cache.save()
    with open(path) as fh:
        raw = json.load(fh)
    raw["9,2,I"]["value"] = 28  # tamper
    with open(path, "w") as fh:
        json.dump(raw, fh)
    reloaded = ResultCache(path)
    assert reloaded.get(9, 2, "I") is None
    assert reloaded.corrupt == ["9,2,I"]


def test_cache_file_not_an_object(tmp_path, capsys):
    # valid JSON whose top level is not an object reads as an unreadable file:
    # the value is computed and the save rewrites the file
    path = tmp_path / "cache.json"
    path.write_text("[]")
    assert ResultCache(str(path)).corrupt == ["<file unreadable>"]
    code, out, _ = run(["value", "--n", "3", "--m", "2", "--cache", str(path)], capsys)
    assert code == 0 and out.strip() == "3"
    assert ResultCache(str(path)).get(3, 2, "I").value == 3


def test_cache_exact_immutable(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = ResultCache(path)
    cache.put(ResultRecord(n=9, m=2, mode="I", value=27, exact=True))
    cache.put(ResultRecord(n=9, m=2, mode="I", value=20, exact=False))
    assert cache.get(9, 2, "I").value == 27


def test_value_uses_cache(tmp_path, capsys):
    path = str(tmp_path / "cache.json")
    cache = ResultCache(path)
    # a deliberately wrong exact record must be returned untouched: cached
    # exact values are authoritative
    cache.put(ResultRecord(n=3, m=2, mode="I", value=99, exact=True))
    cache.save()
    code, out, _ = run(["value", "--n", "3", "--m", "2", "--cache", path], capsys)
    assert code == 0
    assert out.strip() == "99"


def test_inexact_cache_record_is_recomputed(tmp_path, capsys):
    # a cache file comes from outside the program: an inexact record, here a
    # wrong one, is computed again and replaced by the exact record
    path = str(tmp_path / "cache.json")
    cache = ResultCache(path)
    cache.put(ResultRecord(n=9, m=2, mode="I", value=20, exact=False))
    cache.save()
    code, out, _ = run(["value", "--n", "9", "--m", "2", "--cache", path], capsys)
    assert code == 0
    assert out.strip() == "27"
    rec = ResultCache(path).get(9, 2, "I")
    assert rec.exact and rec.value == 27


def test_table2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["table", "--which", "2", "--max-n", "12"], capsys)
    assert code == 0
    assert "MISMATCH" not in out
    assert len([l for l in out.splitlines() if l.startswith("semi(")]) == 12


def test_table1_small(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["table", "--which", "1", "--max-n", "5", "--max-m", "3"], capsys)
    assert code == 0
    assert "I(3,2) = 3" in out and "I(5,3) = 25" in out


def test_table3_small(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["table", "--which", "3", "--max-n", "10"], capsys)
    assert code == 0
    values = [int(l.split()[-1]) for l in out.splitlines() if l.startswith("general(")]
    assert values == [1, 4, 2, 4, 4, 4, 3, 4, 4, 6]


def test_verify_conjecture(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["verify", "--conjecture", "--max-n", "20"], capsys)
    assert code == 0
    assert "tight for 19 of 19" in out


def test_verify_theorems(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["verify", "--theorems"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "I(2,3) * I(4,3) = 128 > I(8,3) = 64" in out


def test_verify_without_a_check_is_invalid(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == 1
    assert out == ""
    assert "--conjecture or --theorems" in err


def parse_dimacs(path):
    edges = set()
    v = e = 0
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[0] == "p":
                v, e = int(parts[2]), int(parts[3])
            elif parts[0] == "e":
                i, j = int(parts[1]), int(parts[2])
                assert 1 <= i < j <= v
                edges.add((i, j))
    return v, edges


def test_export_dimacs(tmp_path, capsys):
    out_path = str(tmp_path / "g.dimacs")
    code, out, _ = run(["export-dimacs", "--n", "3", "--m", "2", "--out", out_path], capsys)
    assert code == 0
    v, edges = parse_dimacs(out_path)
    assert v == 9
    # recount edges against the integrality predicate
    pts = [(x, y) for x in range(3) for y in range(3)]
    expect = sum(
        1
        for i in range(9)
        for j in range(i + 1, 9)
        if is_integral(pts[i], pts[j], 3)
    )
    assert len(edges) == expect
    # degree multiset survives the round trip
    with open(out_path + ".map") as fh:
        assert len(fh.readlines()) == 9
    degrees = [0] * (v + 1)
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    graph_degrees = sorted(
        sum(1 for j in range(9) if j != i and is_integral(pts[i], pts[j], 3)) for i in range(9)
    )
    assert sorted(degrees[1:]) == graph_degrees


def test_export_dimacs_k4(tmp_path, capsys):
    out_path = str(tmp_path / "k4.dimacs")
    code, _, _ = run(["export-dimacs", "--n", "2", "--m", "2", "--out", out_path], capsys)
    assert code == 0
    v, edges = parse_dimacs(out_path)
    assert v == 4 and len(edges) == 6


def test_export_dimacs_single_vertex(tmp_path, capsys):
    out_path = str(tmp_path / "one.dimacs")
    code, _, _ = run(["export-dimacs", "--n", "1", "--m", "2", "--out", out_path], capsys)
    assert code == 0
    v, edges = parse_dimacs(out_path)
    assert v == 1 and not edges


def test_construct_lemma1(capsys):
    code, out, _ = run(["construct", "--n", "12", "--lemma", "1"], capsys)
    assert code == 0
    assert out.startswith("24 points")


def test_construct_auto_picks_best(capsys):
    code, out, _ = run(["construct", "--n", "6"], capsys)
    assert code == 0
    assert out.startswith("12 points (bound 12, best construction bound 12)")


def test_construct_ilig(capsys):
    code, out, _ = run(["construct", "--n", "13", "--lemma", "ilig", "--grid"], capsys)
    assert code == 0
    assert out.startswith("13 points")
    assert out.count("*") == 13


def test_construct_not_applicable(capsys):
    code, _, err = run(["construct", "--n", "7", "--lemma", "2"], capsys)
    assert code == 1
    assert "2 mod 4" in err
