"""Command-line interface: payload schemas, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from bchlab import cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bchlab.cli", *args],
                          capture_output=True, text=True)


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


def test_code_info_extension_cap():
    proc = run_cli("code-info", "3", "5", "cyclic", "2", "--max-ext", "4")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["schema"] == 1
    assert err["error"]["type"] == "ExtensionTooLarge"
    assert proc.stdout == ""


def test_code_info_large_m_is_an_extension_error():
    # n = 3^30 + 1: the designed bound must not allocate per class position
    proc = run_cli("code-info", "3", "30", "cyclic", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "ExtensionTooLarge"
    assert "extension degree 60" in err["message"]


def test_code_info_bad_extension_env(monkeypatch, capsys):
    monkeypatch.setenv("BCHLAB_MAX_EXT_DEGREE", "abc")
    assert cli.main(["code-info", "3", "2", "cyclic", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"]["type"] == "BCHLabError"
    assert "BCHLAB_MAX_EXT_DEGREE" in err["error"]["message"]


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
    proc = run_cli("dually", "3", "3", "negacyclic",
                   "--delta-range", "2..4", "--even-like")
    assert proc.returncode == 1  # even-like subcode is a cyclic notion
    assert json.loads(proc.stderr)["error"]["type"] == "BCHLabError"


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


def test_verify_workers_must_be_positive(capsys):
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "cyclic-q3-m2", "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


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


def test_sweep_skips_invalid_family_combo():
    # q = 5 has no negacyclic family; 'both' must emit cyclic rows only
    proc = run_cli("sweep", "5", "2", "both")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert rows and all(r["family"] == "cyclic" for r in rows)


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
