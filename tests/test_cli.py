import json

from cp2genus import iso
from cp2genus.cli import main
from cp2genus.errors import InternalError

from conftest import trivial_config


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


def test_max_enum_guard(capsys):
    code, out, _ = run(capsys, "genus-count", "--p", "5", "--max-enum", "2", "B(0,0;0)")
    assert code == 0
    assert "enumeration skipped" in out


def test_orbits_command(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "3", "--m", "3")
    assert code == 0
    assert out.count("= 1") == 3


def test_huge_multiplicity_exit_2(capsys):
    # the parser expands the multiplicity into a list, which cannot be allocated
    code, out, err = run(capsys, "check", "--p", "5", "999999999999999*Z")
    assert code == 2 and out == ""
    assert err == "error: input too large\n"
