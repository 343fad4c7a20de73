import json

from crystalk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report ------------------------------------------------------------------

def test_report_json_contains_headline(capsys):
    code, out, err = run(capsys, "report", "--p", "3", "--k", "1",
                         "--format", "json")
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["groups"]["K_*(Cstar)"]["0"] == "Z^8"
    assert data["groups"]["K_*(Cstar)"]["1"] == "0"
    assert data["scalars"]["d_ev"] == 8


def test_report_json_roundtrip_bytes(capsys):
    code, out, _ = run(capsys, "report", "--p", "3", "--k", "1",
                       "--format", "json")
    assert code == 0
    rerendered = json.dumps(json.loads(out), indent=2) + "\n"
    assert rerendered == out


def test_report_p2_text(capsys):
    code, out, err = run(capsys, "report", "--p", "2", "--k", "1")
    assert code == 0
    assert "Z^3" in out
    assert "p odd required" in out
    assert "KO^*(BGamma)" not in out


def test_report_no_floats_anywhere(capsys):
    _, out, _ = run(capsys, "report", "--p", "5", "--k", "1",
                    "--format", "json")
    def no_floats(x):
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return not isinstance(x, float)
    assert no_floats(json.loads(out))


def test_report_matrix_file(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[0, -1], [1, -1]]}))
    code, out, err = run(capsys, "report", "--matrix", str(path),
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["descriptor"]["canonical"] is True


def test_report_matrix_identity_exit2(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[1, 0], [0, 1]]}))
    code, out, err = run(capsys, "report", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert "WrongOrder" in err


def test_report_notfree_names_vector(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 2, "matrix": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 2
    assert "NotFree" in err and "fixed vector" in err


def test_report_missing_file_exit3(capsys):
    code, out, err = run(capsys, "report", "--matrix", "/nonexistent/rho.json")
    assert code == 3
    assert "input/output error" in err


def test_report_bad_json_exit3(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 3


def test_report_float_entries_exit3(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 2, "matrix": [[-1.0]]}))
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 3
    assert "not an integer" in err


def test_report_nonlist_matrix_exit3(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": "nonsense"}))
    code, _, _ = run(capsys, "report", "--matrix", str(path))
    assert code == 3


def test_report_k_and_matrix_conflict(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[0, -1], [1, -1]]}))
    code, _, err = run(capsys, "report", "--p", "3", "--k", "1",
                       "--matrix", str(path))
    assert code == 2
    code, _, err = run(capsys, "report", "--p", "3")
    assert code == 2


def test_report_p_mismatch_with_file(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[0, -1], [1, -1]]}))
    code, _, err = run(capsys, "report", "--p", "5", "--matrix", str(path))
    assert code == 2
    assert "disagrees" in err


def test_report_window(capsys):
    code, out, _ = run(capsys, "report", "--p", "3", "--k", "1",
                       "--degree-window", "0", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["groups"]["H^*(BGamma)"]) == ["0", "1", "2", "3", "4"]


def test_report_inverted_window_exit2(capsys):
    code, _, err = run(capsys, "report", "--p", "3", "--k", "1",
                       "--degree-window", "3", "1")
    assert code == 2
    assert "empty degree window" in err


def test_report_negative_window(capsys):
    # periodic families may dip below zero; graded ones clamp at zero
    code, out, _ = run(capsys, "report", "--p", "3", "--k", "1",
                       "--degree-window", "-2", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["groups"]["K_*(Cstar)"]) == ["-1", "-2", "0", "1"]
    assert data["groups"]["K_*(Cstar)"]["-2"] == "Z^8"
    assert sorted(data["groups"]["H^*(BGamma)"]) == ["0", "1"]
    assert sorted(data["groups"]["ko_*(BGamma)"]) == ["0", "1"]


# -- verify ------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "1")
    assert code == 0
    assert "[PASS]" in out
    assert "0 failed" in out


def test_verify_matrix_runs_on_the_supplied_action(tmp_path, capsys,
                                                   monkeypatch):
    from crystalk import crystal

    # a (3,1) conjugate g rho g^-1 with g = [[1, 2], [0, 1]]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[2, -7], [1, -3]]}))

    def refuse(p, k):
        raise AssertionError("verify --matrix built the canonical action")
    monkeypatch.setattr(crystal, "canonical_gamma", refuse)
    code, out, err = run(capsys, "verify", "--matrix", str(path),
                         "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert (data["p"], data["k"], data["failed"]) == (3, 1, 0)
    assert data["passed"] == len(data["checks"]) > 0


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--k", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert all(c["ok"] for c in data["checks"])


def test_verify_internal_error_exit4(capsys, monkeypatch):
    from crystalk import verify as verify_mod

    def boom(p, k, seed=0, gamma=None):
        raise verify_mod.HardError("division broke", "p=3 k=1 m=2 i=1")
    monkeypatch.setattr(verify_mod, "run_all", boom)
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "1")
    assert code == 4
    assert "p=3 k=1 m=2 i=1" in err


# -- oracle ------------------------------------------------------------------

def test_oracle_text(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "3", "--k", "1")
    assert code == 0
    assert "1 0 1" in out
    assert "wedge^1: 0 , Z/3" in out


def test_oracle_p2_sum(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "2", "--k", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sum(data["r_closed_form"]) == 2 ** (2 - 1)
    assert data["r_closed_form"] == data["r_fixed_rank_oracle"]


def test_oracle_matrix_echoes_descriptor(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 2, "matrix": [[-1]]}))
    code, out, _ = run(capsys, "oracle", "--matrix", str(path),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["descriptor"] == {"p": 2, "n": 1, "k": 1, "canonical": True,
                                  "rho": [[-1]]}
