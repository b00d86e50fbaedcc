import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from multifan import polygon, tables
from multifan.cli import main
from multifan.rays import RayAssignment, build_rays, format_ray_file, parse_ray_file
from multifan.words import format_word, multiassociahedron_word

from conftest import double_cover_rays, in_dimension, wrap


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_facets_word(capsys):
    rc, out, _ = run(capsys, "facets", "--word", "c^2 w0(2)")
    assert rc == 0
    assert out.splitlines()[0].endswith("facets: 14")


def test_facets_kn(capsys):
    rc, out, _ = run(capsys, "facets", "--kn", "2,3")
    assert rc == 0
    assert "facets: 84" in out.splitlines()[0]


def test_manifest_command_reruns_as_written(tmp_path, capsys):
    # an argument with a space must come back as one argument
    argv = ["facets", "--word", "c^2 w0(2)", "--out", str(tmp_path / "f.txt")]
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    manifest = json.loads((tmp_path / "f.txt.manifest.json").read_text())
    assert shlex.split(manifest["command"]) == argv
    assert sorted(manifest) == ["command", "construction", "k", "n", "outputs", "seed",
                                "timestamp", "version"]


def _written_manifest(tmp_path, capsys, command, *spec):
    """The manifest of ``command`` on the word of ``spec``, with the
    pattern n=3 rays for ``check``."""
    rays = tmp_path / "p3.rays"
    run(capsys, "rays", "--construction", "pattern", "--n", "3", "--out", str(rays))
    extra = ["--rays", str(rays)] if command == "check" else []
    rc, _, _ = run(capsys, command, *spec, *extra, "--out", str(tmp_path / "out"))
    assert rc == 0
    return json.loads((tmp_path / "out.manifest.json").read_text())


@pytest.mark.parametrize("command", ["facets", "check"])
def test_manifest_records_the_k_of_kn(tmp_path, capsys, command):
    # every command that reads --kn records its k with what it writes
    manifest = _written_manifest(tmp_path, capsys, command, "--kn", "2,3")
    assert (manifest["k"], manifest["n"]) == (2, 3)


@pytest.mark.parametrize("spec,k", [
    ("c^2 w0(3)", 2),
    (format_word(multiassociahedron_word(2, 3)), None),
], ids=["shorthand", "explicit"])
@pytest.mark.parametrize("command", ["facets", "check"])
def test_manifest_records_the_k_of_a_word_spec(tmp_path, capsys, command, spec, k):
    # a shorthand --word names its k as --kn does; an explicit word has none
    manifest = _written_manifest(tmp_path, capsys, command, "--word", spec)
    assert (manifest["k"], manifest["n"]) == (k, 3)


def test_facets_trivial_word(capsys):
    rc, out, _ = run(capsys, "facets", "--word", "w0(3)")
    assert rc == 0
    assert "facets: 1" in out.splitlines()[0]


def test_facets_rejects_short_word(capsys):
    rc, _, err = run(capsys, "facets", "--word", "n=2; 1 2")
    assert rc == 2
    assert "reduced expression" in err


@pytest.mark.parametrize("argv,message", [
    (["--word", ""], "bad word spec ''"),
    (["--word", "  "], "bad word spec ''"),
    ([], "pass --word or --kn"),
], ids=["empty", "blank", "neither"])
def test_facets_word_spec_present_but_empty(capsys, argv, message):
    # an empty --word is a bad spec, not a missing one
    rc, out, err = run(capsys, "facets", *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [
    ["facets"],
    ["check", "--rays", "unused.rays"],
], ids=["facets", "check"])
def test_word_and_kn_together_are_a_usage_error(capsys, command):
    # each names a word: given both, neither wins
    rc, out, err = _exit(capsys, *command, "--word", "n=1; 1 1", "--kn", "2,2")
    assert (rc, out) == (2, "")
    assert "argument --kn: not allowed with argument --word" in err and "Traceback" not in err


def test_rays_and_check_roundtrip(tmp_path, capsys):
    rays = tmp_path / "p3.rays"
    argv = ["rays", "--construction", "pattern", "--n", "3", "--out", str(rays)]
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    manifest = json.loads((tmp_path / "p3.rays.manifest.json").read_text())
    assert manifest["construction"] == "pattern" and manifest["n"] == 3
    assert manifest["command"] == " ".join(argv)
    assert str(rays) in manifest["outputs"]

    report = tmp_path / "p3.json"
    rc, out, _ = run(capsys, "check", "--rays", str(rays), "--word", "c^2 w0(3)",
                     "--out", str(report))
    assert rc == 0
    assert "certified: complete simplicial fan" in out
    doc = json.loads(report.read_text())
    assert doc["certified"] is True
    assert doc["stats"]["cones"] == 84

    # one process only: any worker count but 1 is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["check", "--rays", str(rays), "--word", "c^2 w0(3)", "--threads", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--threads" in err and "Traceback" not in err


def test_check_failure_exit_code(tmp_path, capsys):
    rays = tmp_path / "n4.rays"
    run(capsys, "rays", "--construction", "naive", "--n", "4", "--out", str(rays))
    rc, out, _ = run(capsys, "check", "--rays", str(rays), "--kn", "2,4")
    assert rc == 1
    assert "not certified" in out
    assert any(ln.startswith("# degenerate ridges") and ln.split()[-1] == "282"
               for ln in out.splitlines())


def test_check_linear_n4(tmp_path, capsys):
    rays = tmp_path / "l4.rays"
    run(capsys, "rays", "--construction", "linear", "--n", "4", "--out", str(rays))
    rc, out, _ = run(capsys, "check", "--rays", str(rays), "--kn", "2,4")
    assert rc == 1
    assert "39" in out and "minimal dimension" in out


def test_check_dimension_mismatch(tmp_path, capsys):
    rays = tmp_path / "p2.rays"
    run(capsys, "rays", "--construction", "pattern", "--n", "2", "--out", str(rays))
    rc, _, err = run(capsys, "check", "--rays", str(rays), "--word", "c^2 w0(3)")
    assert rc == 2
    assert "ray file is for" in err


def test_rays_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.rays", tmp_path / "b.rays"
    run(capsys, "rays", "--construction", "perturbed", "--n", "4", "--seed", "42",
        "--out", str(a))
    run(capsys, "rays", "--construction", "perturbed", "--n", "4", "--seed", "42",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_rays_perturbed_needs_seed(capsys):
    rc, _, err = run(capsys, "rays", "--construction", "perturbed", "--n", "3")
    assert rc == 2 and "--seed" in err


def test_rays_unknown_construction(capsys):
    rc, _, err = run(capsys, "rays", "--construction", "bogus", "--n", "2")
    assert rc == 2 and "unknown construction" in err


@pytest.mark.parametrize("construction, message", [
    ("fixed:1e99999999,1", "bad rational '1e99999999'"),
    ("fixedXYZ", "unknown construction"),
])
def test_rays_malformed_construction(capsys, construction, message):
    rc, out, err = run(capsys, "rays", "--construction", construction, "--n", "2")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_reproduce_t3(capsys):
    rc, out, _ = run(capsys, "reproduce", "T3")
    assert rc == 0
    assert "T3: 72/72 cells match" in out


def test_reproduce_t2_range(capsys):
    rc, out, _ = run(capsys, "reproduce", "T2", "--n", "1..3")
    assert rc == 0
    assert "24/24 cells match" in out
    assert "PASS T2[n=3, degenerate_ridges] = 11" in out


def test_reproduce_mismatch_is_a_verified_failure(capsys, monkeypatch):
    # T2's golden column n=3 against the linear rays, which have no
    # degenerate ridge or cone there: five cells differ, and the command
    # says so and exits 1
    monkeypatch.setitem(tables._STATS_SPECS, "T2", ("t2.txt", "linear"))
    rc, out, _ = run(capsys, "reproduce", "T2", "--n", "3")
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert rc == 1 and len(lines) == 9 and lines[-1] == "T2: 3/8 cells match"
    assert len(fails) == 5 and all(line.startswith("FAIL T2[n=3, ") for line in fails)
    assert "FAIL T2[n=3, degenerate_ridges]: expected 11, got 0" in fails


def test_reproduce_f12(capsys):
    rc, out, _ = run(capsys, "reproduce", "F12", "--n", "5")
    assert rc == 0
    assert "F12: 250/250 cells match" in out


def test_reproduce_matrix_rejects_other_n(capsys):
    rc, _, err = run(capsys, "reproduce", "T1", "--n", "3")
    assert rc == 2 and "n=4" in err


def test_reproduce_table_refuses_an_unknown_id():
    # the command line offers only the known ids; the library names them
    with pytest.raises(ValueError) as exc:
        tables.reproduce_table("T9")
    assert str(exc.value) == f"unknown table id 'T9'; know {tables.TABLE_IDS}"


def test_reproduce_empty_range(capsys):
    # empty or malformed: each names --n and the range it read
    for spec in ("3..1", "1..x", "2,y"):
        rc, out, err = run(capsys, "reproduce", "T2", "--n", spec)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "--n" in err and repr(spec) in err


def test_reproduce_tier_gate(capsys):
    rc, _, err = run(capsys, "reproduce", "T2", "--n", "1..7")
    assert rc == 2 and "tier" in err
    # the cap is applied to the largest column before the range is built
    rc, out, err = run(capsys, "reproduce", "T2", "--n", "1..2000000")
    assert rc == 2 and out == ""
    assert err == "error: n=2000000 exceeds the desk tier cap (5); pass --tier full for n up to 8\n"


def test_reproduce_rejects_repeated_or_nonpositive_columns(capsys):
    # a repeated column would be computed and counted twice
    for spec in ("1,1", "2,1,2", "0..2", "0,1"):
        rc, out, err = run(capsys, "reproduce", "T2", "--n", spec)
        assert rc == 2 and out == ""
        assert err == f"error: --n takes a column range like 1..5 or 1,3, got {spec!r}\n"


def test_oracle(capsys):
    rc, out, _ = run(capsys, "oracle", "--kn", "2,2")
    assert rc == 0
    assert "PASS k=2 n=2: 14 facets" in out


def test_oracle_mismatch_is_a_verified_failure(capsys, monkeypatch):
    # one triangulation dropped from the polygon backtracker: the walk's
    # facets hold one that the oracle lacks
    wrap(monkeypatch, polygon, "enumerate_k_triangulations", after=lambda tris, k, n: tris[1:])
    rc, out, _ = run(capsys, "oracle", "--kn", "2,2")
    assert rc == 1 and out == "FAIL k=2 n=2: 0 oracle-only, 1 subword-only\n"


def test_oracle_writes_the_triangulations(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    rc, out, _ = run(capsys, "oracle", "--kn", "2,2", "--out", str(path))
    assert rc == 0 and out == "PASS k=2 n=2: 14 facets on both routes\n"
    lines = path.read_text().splitlines()
    assert len(lines) == 14 and lines[0] == "1-4 1-5 2-5 2-6"
    manifest = json.loads((tmp_path / "tri.txt.manifest.json").read_text())
    assert manifest["outputs"] == {str(path): "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()}
    assert (manifest["k"], manifest["n"]) == (2, 2)


def test_oracle_guard(capsys):
    rc, _, err = run(capsys, "oracle", "--kn", "2,8", "--tier", "full")
    assert rc == 2 and "too large" in err


def test_oracle_tier_gate(capsys):
    rc, out, err = run(capsys, "oracle", "--kn", "2,6")
    assert rc == 2 and out == "" and "tier" in err


def test_tier_quick_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["facets", "--kn", "2,2", "--tier", "quick"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--tier" in err and "Traceback" not in err


def test_trace(capsys):
    rc, out, _ = run(capsys, "trace", "--n", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "D 1"
    assert sum(1 for ln in lines if ln.startswith("B ")) == 3
    rc, out, _ = run(capsys, "trace", "--n", "2", "--verbose")
    assert "n=2;" in out


def test_trace_tier_gate(capsys):
    rc, out, err = run(capsys, "trace", "--n", "6")
    assert rc == 2 and out == "" and "tier" in err
    rc, out, _ = run(capsys, "trace", "--n", "6", "--tier", "full")
    assert rc == 0 and out.startswith("D 1")
    # the k-prefix word c^4 w0(3) has facet size 12
    rc, out, err = run(capsys, "trace", "--n", "3", "--k-prefix", "4")
    assert rc == 2 and out == ""
    assert err == ("error: facet size 12 exceeds the desk tier cap (10); "
                   "pass --tier full for facet size up to 16\n")
    rc, out, _ = run(capsys, "trace", "--n", "3", "--k-prefix", "4", "--tier", "full")
    assert rc == 0 and out.startswith("D 13")


def test_check_report_empty_base_facet(tmp_path, capsys):
    # the one facet of w0(1) is empty, and so is its cone in dimension 0
    rays = tmp_path / "w0.rays"
    rays.write_text("# n=1 d=0 construction=x seed=none\n1 s1\n")
    report = tmp_path / "w0.json"
    rc, out, _ = run(capsys, "check", "--rays", str(rays), "--word", "w0(1)",
                     "--out", str(report))
    assert rc == 0 and "certified: complete simplicial fan" in out
    doc = json.loads(report.read_text())
    assert doc["condition1"] == "full"
    assert doc["base_facet"] == []


def test_check_degenerate_only_cone(tmp_path, capsys):
    # w0(1) is reduced: its one facet is empty, a rank 0 cone in dimension 1
    rays = tmp_path / "w0.rays"
    rays.write_text("# n=1 d=1 construction=x seed=none\n1 s1 5\n")
    report = tmp_path / "w0.json"
    rc, out, err = run(capsys, "check", "--rays", str(rays), "--word", "w0(1)",
                       "--out", str(report))
    assert rc == 1 and err == ""
    assert "not certified: degenerate cone ()" in out
    doc = json.loads(report.read_text())
    assert doc["condition1"] == "skipped" and doc["certified"] is False


@pytest.mark.parametrize("dim,min_dimension", [(3, 3), (5, 4)])
def test_check_rays_of_another_dimension_than_the_facets(tmp_path, capsys, dim, min_dimension):
    # the pattern rays at n = 2 with the last coordinate dropped, or a zero
    # one appended: the four rays of each facet span at most a 3- or 4-space
    path = tmp_path / "other.rays"
    path.write_text(format_ray_file(in_dimension(build_rays("pattern", 2), dim)))
    report = tmp_path / "other.json"
    rc, out, err = run(capsys, "check", "--rays", str(path), "--kn", "2,2", "--out", str(report))
    assert rc == 1 and err == ""
    assert "not certified: degenerate ridge" in out
    doc = json.loads(report.read_text())
    assert doc["condition1"] == "skipped" and doc["certified"] is False
    stats = doc["stats"]
    assert (stats["cones"], stats["degenerate_cones"]) == (14, 14)
    assert (stats["ridges"], stats["degenerate_ridges"], stats["bad_ridges"]) == (28, 28, 0)
    assert stats["min_dimension"] == min_dimension


@pytest.mark.parametrize("dim", [3, 5])
def test_check_rays_of_another_dimension_catches_a_wrong_rank(tmp_path, capsys, monkeypatch, dim):
    # the same rays, each cone's rank read one too low from its route:
    # unchecked, the minimal dimension would be one too low, and the
    # self-check at every facet fails the run at the base, exit 2 without
    # a report
    from multifan import fan

    other = in_dimension(build_rays("pattern", 2), dim)
    path = tmp_path / "other.rays"
    path.write_text(format_ray_file(other))
    report = tmp_path / "other.json"
    route_rank = fan._Cone.route_rank
    monkeypatch.setattr(fan._Cone, "route_rank", lambda cone: route_rank(cone) - 1)
    with monkeypatch.context() as m:
        m.setattr(fan, "_self_check", lambda rays, cone, point: None)
        assert fan._stats(other)[0].min_dimension == min(dim, 4) - 1
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    rc, out, err = run(capsys, "check", "--rays", str(path), "--kn", "2,2", "--out", str(report))
    assert (rc, out) == (2, "")
    assert err.startswith("error: carried rank of cone (") and "Traceback" not in err
    assert not report.exists() and not Path(f"{report}.manifest.json").exists()


def test_tier_hint_only_below_the_top_tier(capsys):
    rc, out, err = run(capsys, "facets", "--kn", "2,9", "--tier", "full")
    assert rc == 2 and out == ""
    assert err == "error: n=9 exceeds the full tier cap (8)\n"
    rc, out, err = run(capsys, "facets", "--kn", "2,6")
    assert rc == 2 and out == ""
    assert err == "error: n=6 exceeds the desk tier cap (5); pass --tier full for n up to 8\n"


@pytest.mark.parametrize("source", [["--kn", "6,5"], ["--word", "c^99999 w0(3)"]])
def test_tier_caps_the_facet_size(capsys, source):
    # within the rank cap, but far beyond Delta(2, 5)'s facet size of 10:
    # rejected before any enumeration starts, which would not end
    rc, out, err = run(capsys, "facets", *source)
    assert rc == 2 and out == ""
    assert err.startswith("error: facet size ")
    assert err.endswith(" exceeds the desk tier cap (10); pass --tier full for facet size up to 16\n")


@pytest.mark.parametrize("kn,message", [
    ("2,2000", "n=2000 exceeds the desk tier cap (5)"),
    ("400,5", "facet size 2000 exceeds the desk tier cap (10)"),
])
def test_tier_caps_kn_before_building_the_word(capsys, monkeypatch, kn, message):
    # the word of --kn 2,2000 has 2M letters: the cap is applied to n and
    # k n before it is built
    def unbuilt(k, n):
        raise AssertionError(f"word built for k={k}, n={n}")

    monkeypatch.setattr("multifan.cli.multiassociahedron_word", unbuilt)
    rc, out, err = run(capsys, "facets", "--kn", kn)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}")


def _exit(capsys, *argv):
    """``run``, with argparse's usage errors as their exit code."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("argv,token", [
    (["facets", "--kn", "+2,\u0663"], "+2,\u0663"),
    (["reproduce", "T2", "--n", "1_0..1_1"], "1_0..1_1"),
    (["reproduce", "T2", "--n", "+1,2"], "+1,2"),
    (["rays", "--construction", "naive", "--n", " 3"], " 3"),
    (["rays", "--construction", "perturbed", "--n", "2", "--seed", "+5"], "+5"),
    (["trace", "--n", "3", "--k-prefix", "1_0"], "1_0"),
    (["trace", "--n", "\u0663"], "\u0663"),
    (["facets", "--kn", "2,2", "--threads", "+1"], "+1"),
], ids=["kn", "n-range", "n-list", "rays-n", "seed", "k-prefix", "trace-n", "threads"])
def test_option_integers_are_plain_decimals(capsys, argv, token):
    # int() would take each of these, as it would in a word spec
    rc, out, err = _exit(capsys, *argv)
    assert (rc, out) == (2, ""), err
    assert repr(token) in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["trace", "--n", "-3", "--k-prefix", "-5"], "n must be >= 1, got -3"),
    (["trace", "--n", "3", "--k-prefix", "-5"], "k must be >= 0"),
    (["facets", "--kn=-2,-3"], "n must be >= 1, got -3"),
    (["facets", "--kn=-2,3"], "k must be >= 0"),
    (["facets", "--word", "c^-4 w0(2)"], "k must be >= 0"),
    (["rays", "--construction", "naive", "--n", "0"], "n must be >= 1, got 0"),
], ids=["trace-k-and-n", "trace-k", "kn-k-and-n", "kn-k", "word-k", "rays-n"])
def test_negative_specs_are_refused_before_the_tier_cap(capsys, argv, message):
    # k n of two negative numbers is positive: the signs come first, so
    # the message names the sign, not a cap
    rc, out, err = _exit(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("argv,message", [
    (["facets", "--word", "w0(100000)"], "n=100000 exceeds the desk tier cap (5)"),
    (["facets", "--word", "c^30000000 w0(2)"], "facet size 60000000 exceeds the desk tier cap (10)"),
    (["trace", "--n", "3", "--k-prefix", "30000000"],
     "facet size 90000000 exceeds the desk tier cap (10)"),
], ids=["w0", "c^k-w0", "k-prefix"])
def test_oversized_word_specs_exit_2_in_bounded_memory(argv, message):
    # none of these words fits in 512 MB of address space: the cap comes
    # before the word, so the exit code is 2, not a MemoryError's 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-m", "multifan", *argv], env=env, capture_output=True,
                         text=True, preexec_fn=_limit_address_space, timeout=120)
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert out.stderr.startswith(f"error: {message}")


def test_check_double_cover_exit_code(tmp_path, capsys):
    rays = tmp_path / "double.rays"
    rays.write_text(format_ray_file(double_cover_rays()))
    rc, out, _ = run(capsys, "check", "--rays", str(rays), "--kn", "1,2")
    assert rc == 1
    assert "not certified: open cones of base and" in out


def test_failed_self_check_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    # a self-check that fails leaves the run without a verdict: exit 2, not
    # the 1 of a verified failure, an error line and no report; here the
    # walk's fields are one bit too narrow and every facet is checked
    from multifan import fan

    rays = tmp_path / "p4.rays"
    report = tmp_path / "report.json"
    run(capsys, "rays", "--construction", "pattern", "--n", "4", "--out", str(rays))
    monkeypatch.setattr(fan, "SELF_CHECK_EVERY", 1)
    monkeypatch.setattr(fan, "_width", lambda rays, d: 4)
    rc, out, err = run(capsys, "check", "--rays", str(rays), "--kn", "2,4", "--out", str(report))
    assert (rc, out) == (2, "")
    assert err.startswith("error: carried ") and "Traceback" not in err
    assert not report.exists() and not Path(f"{report}.manifest.json").exists()


# the pattern rays at n = 1, which certify against c^2 w0(1)
PATTERN1 = format_ray_file(build_rays("pattern", 1))


@pytest.mark.parametrize("text, message", [
    ("", "empty ray file"),
    ("# d=2 construction=naive seed=none\n1 s1 1 0\n", "line 1"),
    ("# n=1 d=2 construction=naive seed=none\n1 s1 1/0 0\n", "line 2"),
    ("# n=1 d=2 construction=naive seed=none\n1 s1 1e99999999 0\n",
     "line 2: bad rational '1e99999999'"),
    ("# n=1 d=2 construction=naive seed=none\n1 s1 1.5 0\n", "line 2: bad rational"),
    ("# n=1 d=2 construction=naive seed=none\n1 s1 1_000 0\n", "line 2: bad rational"),
    (PATTERN1.replace("n=1", "n=+1"), "line 1: bad integer '+1'"),
    (PATTERN1.replace("n=1", "n=0_1"), "line 1: bad integer '0_1'"),
    (PATTERN1.replace("seed=none", "seed=+7"), "line 1: bad integer '+7'"),
    (PATTERN1.replace("\n1 s1", "\n+1 s1"), "line 2: bad integer '+1'"),
    (PATTERN1.replace("\n1 s1", "\n1 s+1"), "line 2: bad integer '+1'"),
    (PATTERN1.replace("\n1 s1", "\n1 s\u0661"), "line 2: bad integer"),
    (PATTERN1.replace("n=1", "n=0"), "line 1: rank must be >= 1, got 0"),
    (PATTERN1.replace("\n2 s1", "\n2 s9"), "line 3: letter s_9 out of range for rank 1"),
    (PATTERN1.replace("d=2", "d=2 foo"), "ray file line 1: bad header field 'foo'"),
    (PATTERN1.replace("d=2", "d=-1"), "ray file line 1: dimension must be >= 0"),
    (PATTERN1.replace("d=2", "d=2 n=2"), "ray file line 1: repeated header field 'n'"),
], ids=["empty", "header-without-n", "zero-denominator", "exponent", "decimal-point",
        "underscore", "plus-n", "underscore-n", "plus-seed", "plus-position", "plus-letter",
        "arabic-indic-letter", "zero-rank", "letter-out-of-range", "header-field-without-value",
        "negative-dimension", "repeated-header-field"])
def test_check_malformed_ray_file(tmp_path, capsys, text, message):
    rays = tmp_path / "bad.rays"
    rays.write_text(text)
    rc, _, err = run(capsys, "check", "--rays", str(rays), "--kn", "2,1")
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["check", "--rays", "{rays}", "--kn", "2,1", "--out", "{missing}/r.json"],
    ["facets", "--kn", "2,2", "--out", "{missing}/f.txt"],
    ["check", "--rays", "{missing}/p1.rays", "--kn", "2,1"],
], ids=["check-out", "facets-out", "check-rays"])
def test_io_error_exit_code(tmp_path, capsys, command):
    rays = tmp_path / "p1.rays"
    rays.write_text(PATTERN1)
    missing = tmp_path / "missing"
    argv = [a.format(rays=rays, missing=missing) for a in command]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("construction, seed, recorded", [
    ("pattern", "5", None),
    ("perturbed", "42", 42),
])
def test_rays_manifest_records_used_seed(tmp_path, capsys, construction, seed, recorded):
    rays = tmp_path / "r.rays"
    rc, _, _ = run(capsys, "rays", "--construction", construction, "--n", "2",
                   "--seed", seed, "--out", str(rays))
    assert rc == 0
    manifest = json.loads((tmp_path / "r.rays.manifest.json").read_text())
    header_seed = rays.read_text().splitlines()[0].split("seed=")[1]
    assert manifest["seed"] == recorded
    assert header_seed == ("none" if recorded is None else str(recorded))


@pytest.mark.parametrize("command", [
    ["facets"],
    ["check", "--rays", "unused.rays"],
    ["oracle"],
], ids=["facets", "check", "oracle"])
@pytest.mark.parametrize("kn", ["2", "2,3,4", "x,2", ""],
                         ids=["one", "three", "not-int", "empty"])
def test_malformed_kn_is_a_usage_error(capsys, command, kn):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--kn", kn])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--kn" in err and "Traceback" not in err


PATTERN2 = format_ray_file(build_rays("pattern", 2))


# tokens that are malformed, out of range or merely unusual in a ray file
FUZZ_TOKENS = ("0", "-1", "12", "3/4", "1/0", "-2/0", "1.5", "1e3", "x", "", "s0", "s1",
               "s9", "#", "n=2", "n=3", "d=4", "d=x", "seed=7", "=", "/", "-", "1_0",
               "1e99999999", "+1", "s+1")


@st.composite
def mutated_ray_files(draw):
    """The pattern n=2 ray file with a few token, character or line edits."""
    lines = [ln.split(" ") for ln in PATTERN2.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines = [[""]]
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        op = draw(st.sampled_from(["replace", "insert", "delete", "chars",
                                   "drop-line", "dup-line"]))
        if op == "drop-line":
            del lines[i]
        elif op == "dup-line":
            lines.insert(i, list(toks))
        elif op == "chars":
            text = " ".join(toks)
            j = draw(st.integers(0, len(text)))
            end = draw(st.integers(j, min(len(text), j + 4)))
            chunk = draw(st.text(alphabet="0123456789 -+/=.#nsdex_", max_size=4))
            lines[i] = (text[:j] + chunk + text[end:]).split(" ")
        else:
            t = draw(st.integers(0, len(toks) - (op != "insert")))
            if op == "delete":
                del toks[t]
            else:
                toks[t:t + (op == "replace")] = [draw(st.sampled_from(FUZZ_TOKENS))]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_ray_files())
def test_check_fuzzed_ray_file(tmp_path, capsys, text):
    try:
        parse_ray_file(text)
        parsed = True
    except ValueError:
        parsed = False
    rays = tmp_path / "fuzz.rays"
    rays.write_text(text)
    rc, _, err = run(capsys, "check", "--rays", str(rays), "--kn", "2,2")
    assert rc in (0, 1, 2)
    assert parsed or rc == 2
    assert "Traceback" not in err


def test_cli_import_loads_only_what_check_runs():
    # the construction, enumeration-oracle and table modules, and hashlib,
    # load only in the commands that use them; the records are NamedTuples,
    # so no command pays for dataclasses and the inspect it imports.
    # multifan.rays is the import of the rays command and the ray writers.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for module in ("multifan.cli", "multifan.rays"):
        code = (f"import sys, {module}; print(' '.join(sorted(m for m in sys.modules if m in "
                "('multifan.moves', 'multifan.polygon', 'multifan.tables', 'hashlib', "
                "'dataclasses', 'inspect'))))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "", module
    # replaying a construction's moves needs no face test: only
    # classify_braid loads multifan.subword
    code = ("import sys; from multifan.rays import build_rays; build_rays('linear', 3); "
            "print('multifan.subword' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
