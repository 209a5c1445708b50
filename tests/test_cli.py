"""Command-line interface: payload schemas, exit codes, determinism."""

import csv
import io
import json
import os
import resource
import subprocess
import sys

import pytest

from bchlab import cli
from bchlab import cyclotomic as cy
from bchlab import oracle as orc
from bchlab.errors import ClassTooLarge

from grid_utils import checkout_env


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "bchlab.cli", *args],
                          capture_output=True, text=True, env=checkout_env(),
                          **kwargs)


def run_json(*args, expect_code=0):
    proc = run_cli(*args)
    assert proc.returncode == expect_code, proc.stderr
    return json.loads(proc.stdout)


def test_cosets_payload():
    payload = run_json("cosets", "3", "10")
    assert payload["schema"] == 1
    assert payload["command"] == "cosets"
    assert payload["q"] == 3
    assert payload["modulus"] == "10"
    assert payload["odd"] is False
    assert payload["count"] == 4
    assert [c["leader"] for c in payload["cosets"]] == ["0", "1", "2", "5"]
    assert payload["cosets"][1]["elements"] == ["1", "3", "7", "9"]
    assert payload["cosets"][1]["size"] == 4


def test_cosets_odd_class():
    payload = run_json("cosets", "3", "28", "--odd")
    assert payload["odd"] is True
    assert [c["leader"] for c in payload["cosets"]] == ["1", "5", "7"]


def test_cosets_noncoprime_is_an_error():
    # a modulus below 1 has no cosets either
    for args in (("2", "10"), ("3", "0"), ("3", "-4")):
        proc = run_cli("cosets", *args)
        assert proc.returncode == 1, args
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "NotCoprime"
        assert proc.stdout == ""


def _limit_address_space():
    # a size guard that stopped working then fails fast with a MemoryError
    # instead of filling the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))


def test_large_class_is_a_json_error():
    for args in [("cosets", "3", "1000000000000"), ("leaders", "3", "30"),
                 ("sweep", "3", "30", "negacyclic")]:
        proc = run_cli(*args, timeout=120, preexec_fn=_limit_address_space)
        assert proc.returncode == 1, args
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == "ClassTooLarge"
        assert proc.stdout == "", args  # no header-only CSV from sweep


def test_leaders_agreement_and_unsupported():
    payload = run_json("leaders", "3", "4", "--odd")
    rows = {r["k"]: r for r in payload["rows"]}
    assert rows[1]["formula"] == rows[1]["sweep"] == "41"
    assert rows[2]["formula"] == rows[2]["sweep"] == "13"
    assert rows[3]["formula"] == rows[3]["sweep"] == "11"
    assert all(rows[k]["agree"] is True for k in rows)
    payload = run_json("leaders", "5", "4")
    rows = {r["k"]: r for r in payload["rows"]}
    assert rows[1]["agree"] is True
    assert rows[2]["formula"].startswith("unsupported")
    assert rows[2]["sweep"] == "192"
    assert rows[2]["agree"] is None


def test_leaders_count(capsys):
    for count in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["leaders", "3", "2", "--count", count])
        assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["leaders", "3", "3", "--count", "5"]) == 0
    assert [r["sweep"] for r in json.loads(capsys.readouterr().out)["rows"]] \
        == ["14", "7", "5", "4", "2"]
    assert cli.main(["leaders", "3", "3", "--count", "40"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "NotEnoughCosets", "message": "only 7 cosets, asked for k=8"}


def test_non_prime_power_q_is_a_json_error(capsys):
    for argv in (["code-info", "15", "2", "cyclic", "2"],
                 ["code-info", "21", "2", "cyclic", "3"],
                 ["code-info", "35", "2", "negacyclic", "2"],
                 ["code-info", "15", "3", "negacyclic", "2"],
                 ["bound", "15", "2", "cyclic", "2"],
                 ["dually", "15", "2", "cyclic", "--delta-range", "2..4"],
                 ["dually", "15", "2", "cyclic", "--delta-range", "2..4",
                  "--no-oracle"],
                 ["leaders", "15", "2"], ["leaders", "15", "2", "--odd"]):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "BadFamilyParams",
            "message": f"q must be an odd prime power >= 3, got {argv[1]}"}
    # sweep skips the cell, as it skips an undefined family
    assert cli.main(["sweep", "15,3,21", "2", "cyclic"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and {r["q"] for r in rows} == {"3"}


def test_one_leader_map_per_call(monkeypatch, capsys):
    # gap edges, dually verdicts and the run bound all read one map, and
    # a negacyclic cell reads the cyclic map of its (q, m)
    calls = []
    leader_map = cy.leader_map

    def counted(*args):
        calls.append(args)
        return leader_map(*args)

    monkeypatch.setattr(cy, "leader_map", counted)
    for argv, maps in [
            (["dually", "3", "4", "negacyclic", "--delta-range", "1..30"], 1),
            (["dually", "5", "2", "cyclic", "--delta-range", "2..3"], 1),
            (["dually", "3", "4", "negacyclic", "--delta-range", "2..3",
              "--no-oracle"], 0),
            (["bound", "3", "5", "negacyclic", "8"], 1),
            (["bound", "3", "2", "cyclic", "2"], 1),
            (["leaders", "3", "4", "--odd", "--count", "5"], 1),
            # one map per (q, m): 3 x 2 cyclic cells, whose maps the
            # 2 x 2 negacyclic cells share
            (["sweep", "3,5,7", "2,3", "both"], 6)]:
        calls.clear()
        orc._last_full_map.clear()  # the counts must not depend on order
        assert cli.main(argv) == 0, argv
        assert len(calls) == maps, argv
    capsys.readouterr()


def test_code_info_payload():
    payload = run_json("code-info", "3", "3", "negacyclic", "2")
    assert payload["n"] == "14"
    assert payload["modulus"] == "28"
    assert payload["r"] == 2
    assert payload["defining_size"] == "6"
    assert payload["dimension"] == "8"
    assert payload["bch_bound"] == "5"
    assert payload["extension_degree"] == 6
    assert payload["realized"] is True
    assert payload["generator_poly"] == ["1", "1", "0", "1", "0", "1", "1"]
    assert payload["lcd"] is True
    assert payload["note"] is None


def test_code_info_builds_the_defining_set_once(monkeypatch, capsys):
    # |T|, the dimension, the bound and realize read one cached array
    calls = []
    defining_set = cy.defining_set

    def counted(*args):
        calls.append(args)
        return defining_set(*args)

    monkeypatch.setattr(cy, "defining_set", counted)
    assert cli.main(["code-info", "3", "3", "negacyclic", "4"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["dimension"] == "2"


def test_code_info_class_positions_past_int64(capsys):
    # class positions run to n - 1: n > 2^63 is a ClassTooLarge error,
    # and n just below it still prints, even with residues past 2^63
    for argv in (["11", "20", "cyclic", "2"],
                 ["3", "40", "cyclic", "2"],
                 ["3", "41", "negacyclic", "2"],
                 ["7", "23", "negacyclic", "2"]):
        assert cli.main(["code-info", *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert json.loads(err)["error"]["type"] == "ClassTooLarge", argv
    for argv, n, size, bound in (
            (["3", "39", "cyclic", "2"], 3 ** 39 + 1, 78, 2),
            (["3", "40", "negacyclic", "2"], (3 ** 40 + 1) // 2, 80, 5)):
        assert cli.main(["code-info", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == str(n)
        assert payload["defining_size"] == str(size)
        assert payload["dimension"] == str(n - size)
        assert payload["bch_bound"] == str(bound)
        assert payload["realized"] is False


def test_code_info_extension_cap(capsys):
    # the extension cap of code-info is TABLE_CAP on q^ext alone: no option
    # sets it, and past it the combinatorial view is printed, not an error
    with pytest.raises(SystemExit) as exc:
        cli.main(["code-info", "3", "5", "cyclic", "2", "--max-ext", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-ext" in capsys.readouterr().err
    for m, ext, realized in ((6, 12, True), (7, 14, False)):
        assert cli.main(["code-info", "3", str(m), "cyclic", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert payload["extension_degree"] == ext
        assert payload["realized"] is realized
    assert payload["note"] == ("extension field of order 3^14 is above "
                               "TABLE_CAP = 2097152 elements; combinatorial "
                               "view only")


def test_code_info_large_m_is_combinatorial():
    # n = 3^30 + 1 and ext = 60: far past TABLE_CAP, so no field is built,
    # and the designed bound must not allocate per class position
    proc = run_cli("code-info", "3", "30", "cyclic", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["n"] == str(3 ** 30 + 1)
    assert payload["extension_degree"] == 60
    assert payload["defining_size"] == "60"
    assert payload["realized"] is False and payload["generator_poly"] is None
    assert payload["note"] == ("extension field of order 3^60 is above "
                               "TABLE_CAP = 2097152 elements; combinatorial "
                               "view only")


def test_code_info_checks_parameters_before_building_t(monkeypatch, capsys):
    # the checks need only q, m, family, delta and b, so T is never built
    # for an input they refuse
    calls = []
    monkeypatch.setattr(cy, "defining_set", lambda *args: calls.append(args))
    for argv, kind in ((["3", "30", "cyclic", "1"], "BadDelta"),
                       (["3", "31", "negacyclic", "2", "2"],
                        "BadFamilyParams"),
                       (["11", "20", "cyclic", "2"], "ClassTooLarge")):
        assert cli.main(["code-info", *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert json.loads(err)["error"]["type"] == kind, argv
    assert calls == []


def test_code_info_caps_the_size_of_t_before_building_it(monkeypatch,
                                                         capsys):
    # at delta 4 * 10^13, T of 3^30 + 1 could hold all n = 2.06 * 10^14
    # positions: the size guard refuses it before any residue is stored
    real, calls = cy.defining_set, []
    monkeypatch.setattr(cy, "defining_set",
                        lambda *args: calls.append(args) or real(*args))
    argv = ["code-info", "3", "30", "cyclic", "40000000000000"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    err = json.loads(err)["error"]
    assert err["type"] == "ClassTooLarge"
    assert "205891132094650 residues" in err["message"]
    # at delta 20000, |T| <= 2m (delta - 1) = 1,199,940 passes and T is built
    argv[4] = "20000"
    assert cli.main(argv) == 0
    assert len(calls) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["defining_size"] == "799980"
    assert payload["realized"] is False


def test_code_info_caps_t_by_an_eighth_on_the_object_route(monkeypatch,
                                                           capsys):
    # where rn q >= 2^63 the residues are Python ints of about 70 bytes,
    # not 8, so T may hold an eighth of MAX_CLASS_RESIDUES there:
    # 2m (delta - 1) = 67,079,922 at (3, 39, cyclic, 860000) is refused
    # before any residue is stored, while (3, 38) keeps the full cap
    real, calls = cy.defining_set, []

    def counted(*args):
        calls.append(args)
        assert args[3] <= 50, "T is built only for the small delta"
        return real(*args)

    monkeypatch.setattr(cy, "defining_set", counted)
    cap = cy.MAX_CLASS_RESIDUES // 8
    assert 2 * 39 * 107_546 <= cap < 2 * 39 * 107_547
    cy.defining_set_parameters(3, 39, "cyclic", 107_547)
    with pytest.raises(ClassTooLarge, match=f"above the cap of {cap}$"):
        cy.defining_set_parameters(3, 39, "cyclic", 107_548)
    cy.defining_set_parameters(3, 38, "cyclic", 107_548)
    assert cli.main(["code-info", "3", "39", "cyclic", "860000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    err = json.loads(err)["error"]
    assert err["type"] == "ClassTooLarge"
    assert "67079922 residues" in err["message"]
    assert cli.main(["code-info", "3", "39", "cyclic", "50"]) == 0
    assert len(calls) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == str(3 ** 39 + 1)
    assert payload["defining_size"] == "2574"
    assert payload["dimension"] == str(3 ** 39 + 1 - 2574)
    assert payload["bch_bound"] == "50"
    assert payload["realized"] is False


def test_code_info_builds_t_in_arrays():
    # |T| = 2,181,816 at 8 bytes a residue in int64 arrays: a fresh
    # process measures the peak of its one child, the CLI (a Python set
    # of the residues peaked near 272 MB)
    code = """
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "bchlab.cli", "code-info",
                       "11", "12", "cyclic", "100000"],
                      capture_output=True, text=True)
assert proc.returncode == 0, proc.stderr
assert json.loads(proc.stdout)["defining_size"] == "2181816"
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 150


def test_bound_defect_is_flagged():
    payload = run_json("bound", "3", "5", "negacyclic", "8")
    assert payload["lower_bound"] == "7"
    assert payload["agrees"] is False
    assert "replaced" in payload["warning"]
    assert [c["row"] for c in payload["cases"]] == ["band-c", "band", "wide"]
    assert payload["cases"][2]["value"] == "13"  # the formula's claim
    assert (payload["gap_low"], payload["gap_high"]) == ("55", "63")
    assert (payload["oracle_gap_low"], payload["oracle_gap_high"]) == \
        ("55", "63")


def test_bound_agreeing_case():
    payload = run_json("bound", "3", "2", "cyclic", "2")
    assert payload["lower_bound"] == "4"
    assert payload["agrees"] is True
    assert payload["warning"] is None


def test_bound_no_oracle():
    payload = run_json("bound", "3", "2", "cyclic", "2", "--no-oracle")
    assert payload["lower_bound"] == "4"
    assert payload["oracle_gap_low"] is None
    assert payload["agrees"] is None


def test_dually_rows():
    payload = run_json("dually", "7", "2", "negacyclic",
                       "--delta-range", "2..13")
    true_deltas = {int(r["delta"]) for r in payload["rows"] if r["oracle"]}
    assert true_deltas == {2} | set(range(10, 14))
    assert all(r["agree"] is True for r in payload["rows"])
    assert all((int(r["delta"]) in true_deltas) == r["formula"]
               for r in payload["rows"])


def test_dually_unsupported_formula_still_reports_oracle():
    payload = run_json("dually", "3", "2", "negacyclic",
                       "--delta-range", "2..3")
    for row in payload["rows"]:
        assert row["formula"] == "unsupported (UnsupportedM)"
        assert row["oracle"] is True
        assert row["agree"] is None


def test_dually_even_like_flags():
    payload = run_json("dually", "5", "2", "cyclic", "--delta-range", "2..13")
    assert payload["even_like"] is True  # implied for cyclic
    true_deltas = {int(r["delta"]) for r in payload["rows"] if r["formula"]}
    assert true_deltas == {2} | set(range(8, 14))


def test_dually_rows_outside_the_domain(capsys):
    # an undefined delta gets a row of its own instead of aborting the range
    inside = run_json("dually", "7", "2", "negacyclic",
                      "--delta-range", "2..13")["rows"]
    rows = run_json("dually", "7", "2", "negacyclic",
                    "--delta-range", "1..14")["rows"]
    assert rows[1:-1] == inside
    assert rows[0] == {"delta": "1", "formula": "undefined (DeltaOutOfRange)",
                       "oracle": "undefined (BadDelta)", "agree": None}
    assert rows[-1] == {"delta": "14",
                        "formula": "undefined (DeltaOutOfRange)",
                        "oracle": "undefined (EmptySet)", "agree": None}
    assert cli.main(["dually", "7", "2", "negacyclic", "--delta-range",
                     "2..20", "--no-oracle", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    assert lines[-1] == "  delta=    20  formula=undefined (DeltaOutOfRange)"
    # cyclic: the dual is empty past delta1 = 14 at (3, 3)
    assert cli.main(["dually", "3", "3", "cyclic", "--delta-range",
                     "14..15", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  delta=    14  formula=True  oracle=True  agree=True",
        "  delta=    15  formula=undefined (DeltaOutOfRange)  "
        "oracle=undefined (EmptySet)  agree=None"]


def test_dually_requires_delta_range():
    assert run_cli("dually", "3", "2", "negacyclic").returncode == 2
    assert run_cli("dually", "3", "2", "negacyclic",
                   "--delta-range", "5").returncode == 2


def test_verify_single_pass():
    payload = run_json("verify", "cyclic-q3-m2")
    assert payload["passed"] is True
    assert payload["checked"] == 1
    example = payload["examples"][0]
    assert example["id"] == "cyclic-q3-m2"
    assert example["passed"] is True
    names = [c["name"] for c in example["claims"]]
    assert "bound(delta=2)" in names


def test_verify_known_failure_exits_one():
    proc = run_cli("verify", "negacyclic-q3-m4")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["passed"] is False
    example = payload["examples"][0]
    bad = {c["name"] for c in example["claims"] if not c["ok"]}
    assert bad == {"bound(delta=2)", "dual-distance(delta=2)"}


def test_verify_unknown_id():
    proc = run_cli("verify", "nope")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["type"] == "UnknownExample"


def test_verify_usage_errors():
    assert run_cli("verify").returncode == 2
    assert run_cli("verify", "cyclic-q3-m2", "--all").returncode == 2


def test_removed_options_are_usage_errors(capsys):
    # verify has no worker count, and the cyclic dually rows are always on
    # the even-like subcode: neither option selects anything
    for argv, flag in ((["verify", "--all", "--workers", "2"], "--workers"),
                       (["dually", "5", "2", "cyclic", "--delta-range",
                         "2..4", "--even-like"], "--even-like")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


SWEEP_HEADER = ("family,q,m,delta,n,mode,formula_gap_low,oracle_gap_low,"
                "formula_gap_high,oracle_gap_high,formula_bound,gaps_agree,"
                "dually_formula,dually_oracle,dually_agree")


def test_sweep_csv():
    proc = run_cli("sweep", "3", "2,3", "both")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert all(len(r) == 15 for r in rows)
    families = {(r["family"], r["q"], r["m"]) for r in rows}
    assert families == {("cyclic", "3", "2"), ("cyclic", "3", "3"),
                        ("negacyclic", "3", "2"), ("negacyclic", "3", "3")}
    for r in rows:
        assert r["mode"] in ("full", "sampled")
        assert r["gaps_agree"] in ("true", "false", "")
        if r["gaps_agree"] == "true":
            assert r["formula_gap_low"] == r["oracle_gap_low"]
    # the (3,2) cyclic table from the pinned vectors
    c32 = [r for r in rows if r["family"] == "cyclic" and r["m"] == "2"]
    assert [(r["delta"], r["formula_bound"]) for r in c32] == \
        [("2", "4"), ("3", "2"), ("4", "2"), ("5", "2")]


RECORDED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "reference.json")


def test_sweep_matches_recorded_reference(capsys):
    # the benchmark's sweep jobs, against the stdout recorded on the seed
    # commit (the file is only read)
    with open(RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for job, args in [("sweep-grid", ("3,5,7,11", "2,3,4,5", "both")),
                      ("sweep-q3-m10-11", ("3", "10,11", "both")),
                      ("sweep-q7-m6", ("7", "6", "both"))]:
        assert cli.main(["sweep", *args]) == recorded[job]["exit"] == 0
        assert capsys.readouterr().out == recorded[job]["stdout"], job


def test_sweep_prints_each_family_in_turn(capsys):
    # the cells are computed (q, m) first, then printed family first: the
    # header once, then the cyclic sweep, then the negacyclic one
    outs = {}
    for family in ("cyclic", "negacyclic", "both"):
        assert cli.main(["sweep", "3,7", "2,3,4", family]) == 0
        outs[family] = capsys.readouterr().out
    header = SWEEP_HEADER + "\n"
    assert outs["cyclic"].startswith(header)
    assert outs["both"] == outs["cyclic"] + outs["negacyclic"][len(header):]


def test_sweep_skips_invalid_family_combo():
    # q = 5 has no negacyclic family; 'both' must emit cyclic rows only
    proc = run_cli("sweep", "5", "2", "both")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert rows and all(r["family"] == "cyclic" for r in rows)


def test_closed_pipe_ends_without_a_traceback():
    # the reader is gone before the first write, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "bchlab.cli", "sweep", "3", "5,6,7",
             "both"], stdout=sink, stderr=subprocess.PIPE, text=True,
            env=checkout_env())
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_verify_loads_no_numpy_module_after_import():
    # a numpy module imported lazily (numpy.ma, by np.unique and the other
    # set routines) costs every fresh CLI process its import time; the
    # code-info call builds a T of 21,816 residues
    code = """
import contextlib, io, json, sys
from bchlab import cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    for argv in (["verify", "negacyclic-q3-m4"],
                 ["code-info", "11", "12", "cyclic", "1000"]):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True,
                              env=checkout_env())
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert [m for m in loaded if m.split(".")[0] == "numpy"] == [], \
            (argv, loaded)


def test_python_dash_m_bchlab_is_the_cli():
    for args, code in [(("cosets", "3", "10"), 0),
                       (("bound", "4", "2", "cyclic", "2"), 1)]:
        proc = subprocess.run([sys.executable, "-m", "bchlab", *args],
                              capture_output=True, text=True,
                              env=checkout_env())
        want = run_cli(*args)
        assert proc.returncode == want.returncode == code
        assert (proc.stdout, proc.stderr) == (want.stdout, want.stderr)


def test_byte_determinism_of_reports():
    for args in [("bound", "7", "3", "negacyclic", "9"),
                 ("cosets", "3", "28", "--odd"),
                 ("code-info", "5", "2", "cyclic", "8")]:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_usage_error_exit_codes():
    assert run_cli().returncode == 2
    assert run_cli("bound", "3", "2", "cyclic").returncode == 2
    assert run_cli("bound", "4", "2", "cyclic", "2").returncode == 1
