import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cp2genus
from cp2genus import classdata, iso
from cp2genus.cli import main
from cp2genus.errors import ConfigError, InternalError

from conftest import MALFORMED_CONFIGS, trivial_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_count_text(capsys):
    code, out, err = run(capsys, "genus-count", "--p", "3", "Z + c(0)")
    assert code == 0
    assert "genus size: 1" in out
    assert "SoCs" in out


def test_genus_count_json(capsys):
    code, out, _ = run(capsys, "genus-count", "--p", "3", "--json", "Z + c(0)")
    obj = json.loads(out)
    assert obj["closed_form"] == {"value": 1, "case": "SoCs"}
    assert obj["enumeration"] == 1
    assert obj["agree"] is True


def test_iso_pair(capsys):
    code, out, _ = run(capsys, "iso", "--p", "5", "C(0,0;1,1)", "D(0,0;1,1)")
    assert code == 0 and out.strip() == "not isomorphic"
    code, out, _ = run(capsys, "profinite-iso", "--p", "5", "C(0,0;1,1)", "D(0,0;1,1)")
    assert code == 0 and out.strip() == "profinitely isomorphic"


def test_quiet_exit_codes(capsys):
    code, out, _ = run(capsys, "iso", "--p", "5", "--quiet", "C(0,0;1,1)", "D(0,0;1,1)")
    assert code == 1 and out == ""
    code, out, _ = run(capsys, "iso", "--p", "5", "--quiet", "C(0,0;1,1)", "C(0,0;1,1)")
    assert code == 0 and out == ""
    code, _, _ = run(capsys, "genus-eq", "--p", "5", "--quiet", "C(0,0;1,1)", "D(0,0;1,1)")
    assert code == 0
    code, _, _ = run(capsys, "group-iso", "--p", "5", "--quiet", "C(0,0;1,1)", "D(0,0;1,1)")
    assert code == 1


def test_um_reports_trivial(capsys):
    code, out, _ = run(capsys, "um", "--p", "2", "--m", "2")
    assert code == 0
    assert "order 1 (trivial)" in out and "U_2 = U_p" in out


def test_um_json_stable(capsys):
    code, out, _ = run(capsys, "um", "--p", "5", "--m", "5", "--json")
    obj = json.loads(out)
    assert obj == {
        "p": 5,
        "m": 5,
        "order": 5,
        "subgroup_order": 500,
        "reps": [[1, 0, 0, 0, 0], [1, 0, 0, 1, 0], [1, 0, 0, 2, 0],
                 [1, 0, 0, 3, 0], [1, 0, 0, 4, 0]],
    }


def test_twist_command(capsys):
    code, out, _ = run(capsys, "twist", "--p", "3", "--k", "2", "E(0,0;1) + c(0)")
    assert code == 0 and out.strip() == "c(0) + E(0,0;1)"
    code, out, _ = run(capsys, "twist", "--p", "3", "--k", "3", "Z")
    assert code == 2  # 3 is not a unit mod 9


def test_materialize_json(capsys):
    code, out, _ = run(capsys, "materialize", "--p", "2", "c(0)")
    assert code == 0
    assert json.loads(out) == {"p": 2, "n": 2, "matrix": [[0, -1], [1, 0]]}
    code, out, _ = run(capsys, "materialize", "--p", "2", "--validate", "Ec(0)")
    obj = json.loads(out)
    assert obj["validation"]["passed"] is True


def test_check_and_invariants(capsys):
    code, out, _ = run(capsys, "check", "--p", "5", "Z + D(0,0;1)")
    assert code == 0 and "rank: 27" in out and "Faithful" in out
    code, out, _ = run(capsys, "invariants", "--p", "5", "--json", "D(0,0;1)")
    obj = json.loads(out)
    assert obj["quad_char"] == -1


def test_padic_command(capsys):
    code, out, _ = run(capsys, "padic", "--p", "5", "--json", "C(0,0;1) + D(0,0;2)")
    obj = json.loads(out)
    assert obj["CD"] == [1, 1, 0]


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "iso", "--p", "3", "Z +", "Z")
    assert code == 2 and "position" in err


def test_internal_error_exit_2(capsys, monkeypatch):
    def broken(D1, D2):
        raise InternalError("consistency check failed")

    monkeypatch.setattr(iso, "isomorphic", broken)
    code, out, err = run(capsys, "iso", "--p", "3", "Z", "Z")
    assert code == 2 and out == ""
    assert err.strip() == "internal error: consistency check failed"


def test_unsupported_prime_exit_3(capsys):
    code, _, err = run(capsys, "genus-count", "--p", "11", "Z + c(0)")
    assert code == 3 and "no built-in class data" in err
    code, _, err = run(capsys, "genus-count", "--p", "7", "Z + c(0)")
    assert code == 3


def test_classdata_file(capsys, c43_config_file):
    code, out, _ = run(
        capsys, "genus-count", "--p", "7", "--classdata", str(c43_config_file),
        "Z + c(0)",
    )
    assert code == 0
    assert "genus size: 2" in out
    code, out, _ = run(
        capsys, "orbits", "--p", "7", "--classdata", str(c43_config_file), "--m", "1",
    )
    assert code == 0 and "= 2" in out and "= 1" in out


def test_classdata_wrong_prime(capsys, c43_config_file):
    code, _, err = run(
        capsys, "genus-count", "--p", "5", "--classdata", str(c43_config_file), "Z",
    )
    assert code == 2 and "p=7" in err


def test_bad_classdata_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, out, err = run(capsys, "genus-count", "--p", "7", "--classdata", str(path), "Z")
    assert code == 3 and out == "" and err.startswith("error: ") and "invalid JSON" in err
    path.write_text(json.dumps(trivial_config(7, extra_R_unit_gens=[[1, 0, 0, 1, 2, 1]])))
    code, out, err = run(capsys, "orbits", "--p", "7", "--classdata", str(path))
    assert code == 3 and out == "" and err.startswith("error: ") and "m=6" in err


def test_classdata_matrix_of_the_wrong_shape_exit_3(capsys, tmp_path):
    # a 1 x 2 generator matrix on the cyclic C_43: the shape check must
    # reject it, so orbits never answers with it
    config = json.loads((Path(__file__).resolve().parent.parent
                         / "perfbench" / "data" / "c43.json").read_text())
    config["H_p2"]["generator_matrix"] = [[3, 5]]
    path = tmp_path / "c43_wide.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match="H_p2"):
        classdata.load_config(path)
    code, out, err = run(capsys, "orbits", "--p", "7", "--classdata", str(path))
    assert code == 3 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("name", ["residue-1e400", "not-utf8", "nested-100000",
                                  "factors-string"])
def test_malformed_classdata_exit_3_without_traceback(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_CONFIGS[name][0])
    src = str(Path(cp2genus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "cp2genus.cli", "orbits", "--p", "7", "--classdata", str(path)],
        capture_output=True, text=True, env=env, timeout=30)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["iso", "B(0,0;1)", "B(0,0;2)"],
    ["group-iso", "B(0,0;1)", "B(0,0;2)"],
    ["genus-count", "B(0,0;1)"],
], ids=["iso", "group-iso", "genus-count"])
def test_class_data_loaded_once_per_call(capsys, monkeypatch, c43_config_file, argv):
    calls = []
    for name in ("load_config", "builtin"):
        def counted(*args, _load=getattr(classdata, name), _name=name):
            calls.append(_name)
            return _load(*args)
        monkeypatch.setattr(classdata, name, counted)
    code, _, _ = run(capsys, *argv[:1], "--p", "7", "--classdata", str(c43_config_file),
                     *argv[1:])
    assert code == 0 and calls == ["load_config"]
    calls.clear()
    code, _, _ = run(capsys, *argv[:1], "--p", "5", *argv[1:])
    assert code == 0 and calls == ["builtin"]


def test_oversized_classdata_prime_exit_3(tmp_path):
    # a prime near 10^18: trial division alone would take minutes, so the
    # bound must reject it before any per-p work; the timeout enforces that
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 10**18 + 3, "H_p": {}, "H_p2": {}}))
    src = str(Path(cp2genus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "cp2genus.cli", "orbits", "--p", "7", "--classdata", str(path)],
        capture_output=True, text=True, env=env, timeout=10)
    assert out.returncode == 3 and out.stdout == ""
    assert out.stderr == "error: p: 1000000000000000003 exceeds the supported bound 200\n"


def test_genus_count_p13_counts_ut_in_closed_form(capsys, tmp_path):
    # t = 13: U_13 has 13^5 cosets, and neither engine lists them
    path = tmp_path / "p13.json"
    path.write_text(json.dumps(trivial_config(13)))
    code, out, _ = run(capsys, "genus-count", "--p", "13", "--classdata", str(path),
                       "--json", "B(0,0;0)")
    assert code == 0
    obj = json.loads(out)
    assert obj["closed_form"] == {"value": 30970, "case": "MaisSimples"}
    assert obj["enumeration"] == 30970 and obj["agree"] is True


def test_lenient_units_flag(capsys):
    code, _, err = run(capsys, "check", "--p", "3", "B(0,0;0,1+l)")
    assert code == 2
    code, out, _ = run(capsys, "check", "--p", "3", "--lenient-units", "B(0,0;0,1+l)")
    assert code == 0 and "B(0,0;0)" in out


def test_max_enum_flag_removed(capsys):
    code, out, _ = run(capsys, "genus-count", "--p", "5", "--json", "B(0,0;0)")
    obj = json.loads(out)
    assert code == 0 and obj["enumeration"] == 2
    assert not any("enumeration skipped" in n for n in obj["notes"])
    with pytest.raises(SystemExit) as exc:
        main(["genus-count", "--p", "5", "--max-enum", "2", "B(0,0;0)"])
    assert exc.value.code == 2


def big_class_config(factor: int, mult: int) -> dict:
    """p = 7 class data with H(Z[zeta_49]) = C_factor, the generator 3
    acting as multiplication by mult."""
    return {**trivial_config(7), "H_p2": {"invariant_factors": [factor],
                                          "generator_residue": 3,
                                          "generator_matrix": [[mult]]}}


@pytest.mark.parametrize("factor, mult, orbits", [
    # the trivial action: every class is its own orbit
    (2000003, 1, 2000003),
    # multiplication by 499502, of order 6 mod the prime 1000003: M^d fixes
    # all q classes when 6 | d (7 of the 42 powers) and only 0 otherwise,
    # so Burnside gives (7q + 35)/42 = (q + 5)/6
    (1000003, 499502, 166668),
])
def test_class_group_beyond_listing_guard(capsys, tmp_path, factor, mult, orbits):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big_class_config(factor, mult)))
    code, out, _ = run(capsys, "orbits", "--p", "7", "--json", "--classdata", str(path))
    assert code == 0 and json.loads(out)["H_p2_orbits"] == orbits
    code, out, _ = run(capsys, "genus-count", "--p", "7", "--json", "--classdata", str(path),
                       "c(0)")
    obj = json.loads(out)
    assert code == 0 and obj["closed_form"] == {"value": orbits, "case": "SoCs"}
    assert obj["enumeration"] == orbits and obj["agree"] is True


def test_orbits_command(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "3", "--m", "3")
    assert code == 0
    assert out.count("= 1") == 3


def test_huge_multiplicity_is_answered(capsys):
    # a descriptor keeps each summand once with its multiplicity, so no
    # count grows with it: the genus of 10^12 copies of Z next to B(0,0;1)
    # is that of one copy
    code, out, err = run(capsys, "genus-count", "--p", "5", "--json",
                         "1000000000000*Z + B(0,0;1)")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["enumeration"] == 2
    assert obj["closed_form"] == {"value": 2, "case": "MaisSimples"}


def test_huge_multiplicity_exit_2(capsys):
    # check --json lists every copy of a summand, and refuses more than
    # lattice.MAX_LISTED_COPIES of them before listing any; the text
    # outputs of check and twist list no copies, so they answer
    code, out, err = run(capsys, "check", "--p", "5", "--json", "999999999999999*Z")
    assert code == 2 and out == ""
    assert err == ("error: input too large: 999999999999999 summand copies to list, "
                   "at most 100000\n")
    code, out, err = run(capsys, "check", "--p", "5", "999999999999999*Z")
    assert (code, err) == (0, "")
    assert out == ("descriptor: 999999999999999*Z\nrank: 999999999999999\n"
                   "action: TrivialAction\nt: 4  sigma: 1  u0: 1\nR class: ()  S class: ()\n")
    assert run(capsys, "twist", "--p", "2", "--k", "3", "100001*Z") == (0, "100001*Z\n", "")


@pytest.mark.parametrize("argv, err", [
    (("materialize", "--p", "2", "100000*Z"),
     "error: input too large: a matrix model of lattice rank 100000, at most 2000\n"),
    (("check", "--p", "2", "--json", "1000000*Z"),
     "error: input too large: 1000000 summand copies to list, at most 100000\n"),
    (("twist", "--p", "2", "--k", "3", "--json", "100001*Z"),
     "error: input too large: 100001 summand copies to list, at most 100000\n"),
], ids=["materialize", "check", "twist"])
def test_oversized_output_exit_2_before_allocating(capsys, argv, err):
    # a dense model of 100000*Z would take about 80 GB, and the summand
    # list of a million copies took 2.9 s and 369 MB as indented JSON
    code, out, got = run(capsys, *argv)
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("descriptor",
                         ["9" * 5000 + "*Z", "\u00b2*Z", "Z + q(0)", "99999999999999999999*Z"],
                         ids=["5000-digits", "superscript-two", "unknown-kind",
                              "multiplicity-above-maxsize"])
def test_malformed_descriptor_exit_2(descriptor):
    src = str(Path(cp2genus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "cp2genus.cli", "check", "--p", "3", descriptor],
        capture_output=True, text=True, env=env, timeout=30)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("parse error: ") and "Traceback" not in out.stderr


@pytest.mark.parametrize("body", [
    "import cp2genus.cli",
    # what python -m cp2genus.cli check --p 2 Z runs
    "sys.argv = ['cp2genus', 'check', '--p', '2', 'Z']\n"
    "try:\n"
    "    runpy.run_module('cp2genus.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code",
], ids=["import", "run-check"])
def test_cold_cli_does_not_import_dataclasses(body):
    """A one-shot CLI call pays for every import; dataclasses alone pulls in
    inspect, ast, dis and tokenize."""
    script = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        f"{body}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(cp2genus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["um", "--p", "5", "--m", "5", "--json"],
    ["iso", "--p", "3", "Z + Z", "2*Z"],
], ids=["um-json", "iso-verdict"])
def test_closed_stdout_exits_2_without_traceback(argv):
    # the read end of stdout's pipe is closed before the CLI starts, as
    # when the reader of `| head -c 10` has already exited
    src = str(Path(cp2genus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "cp2genus.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=30)
    finally:
        os.close(write)
    assert out.returncode == 2
    assert out.stderr == "error: stdout was closed before the output was written\n"
