import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpnkit
from cpnkit import (CPnMap, compression_map, cpn_distance, depolarizing_map,
                    identity_map, images_of, make_algebra)
from cpnkit import serialize as ser
from cpnkit.acceptance import run_all
from cpnkit.cli import build_parser, main
from cpnkit.dilation import DilationReport
from cpnkit.errors import ValidationError


def write_map(path, rho):
    path.write_text(json.dumps(ser.cpn_map_to_json(rho)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_files(tmp_path):
    alg = make_algebra((2,))
    ident = identity_map(alg)
    good = CPnMap(((ident, 0.5 * ident), (0.5 * ident, ident)))
    bad = CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident)))
    return (write_map(tmp_path / "good.json", good),
            write_map(tmp_path / "bad.json", bad))


def test_check_exit_codes(tmp_path, capsys):
    good, bad = make_files(tmp_path)
    code, out, _ = run(capsys, "check", good)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["certificates"]["hermitian_symmetric"] is True
    assert report["version"]

    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_check_schema_error(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{不valid json")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "SchemaError"

    g = tmp_path / "schema.json"
    g.write_text(json.dumps({"n": 1}))
    code, _, err = run(capsys, "check", str(g))
    assert code == 2

    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


def test_dilate_report(tmp_path, capsys):
    good, bad = make_files(tmp_path)
    out_file = tmp_path / "dil.json"
    code, out, _ = run(capsys, "dilate", good, "-o", str(out_file))
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text())
    assert report["verdict"] is True
    assert report["certificates"]["minimal"] is True
    assert report["space_dim"] == report["dilation"]["space_dim"]

    code, _, err = run(capsys, "dilate", bad)
    assert code == 1
    payload = json.loads(err)["error"]
    assert payload["type"] == "PositivityError"
    assert payload["min_eig"] < 0


def test_dilate_failed_certificate_exit_2(tmp_path, capsys, monkeypatch):
    # a dilation whose factorization or minimality fails is no verdict
    from cpnkit import cli
    good, _ = make_files(tmp_path)
    for failing in (DilationReport(1.45, 2, 2, True, 7.48),
                    DilationReport(0.0, 1, 2, False, 1.0)):
        monkeypatch.setattr(cli, "verify_dilation", lambda rho, dil, tol: failing)
        code, out, err = run(capsys, "dilate", good)
        assert_json_error(code, out, err)
        assert json.loads(err)["error"]["type"] == "CertificationError"


def test_rn_command(tmp_path, capsys):
    alg = make_algebra((2,))
    ident = identity_map(alg)
    rho = CPnMap(((ident,),))
    half = CPnMap(((0.5 * ident,),))
    rho_f = write_map(tmp_path / "rho.json", rho)
    half_f = write_map(tmp_path / "half.json", half)
    code, out, _ = run(capsys, "rn", rho_f, half_f)
    assert code == 0
    report = json.loads(out)
    mat = ser.json_to_matrix(report["operator"]["matrix"], (2, 2))
    assert np.allclose(mat, 0.5 * np.eye(2), atol=1e-9)

    # reversing the roles breaks domination
    code, _, err = run(capsys, "rn", half_f, rho_f)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DominationError"


def test_pure_and_extreme_commands(tmp_path, capsys):
    alg = make_algebra((2,))
    ident = CPnMap(((identity_map(alg),),))
    id_f = write_map(tmp_path / "id.json", ident)
    dep = CPnMap(((depolarizing_map(2),),))
    dep_f = write_map(tmp_path / "dep.json", dep)

    assert run(capsys, "pure", id_f)[0] == 0
    code, out, _ = run(capsys, "pure", dep_f)
    assert code == 1
    assert json.loads(out)["certificates"]["commutant_dimension"] == 16

    assert run(capsys, "extreme", id_f)[0] == 0
    code, out, _ = run(capsys, "extreme", dep_f)
    assert code == 1
    report = json.loads(out)
    part1 = ser.cpn_map_from_json(report["decomposition"]["part1"])
    part2 = ser.cpn_map_from_json(report["decomposition"]["part2"])
    beta = report["decomposition"]["beta"]
    avg = beta * part1 + (1.0 - beta) * part2
    assert cpn_distance(avg, dep) <= 1e-8


def test_extreme_builds_the_compressed_commutant_once(tmp_path, capsys, monkeypatch):
    # the decomposition reuses the matrix the verdict was read from
    import cpnkit.structure as structure
    real = structure._compressed_commutant
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structure, "_compressed_commutant", counted)
    dep_f = write_map(tmp_path / "dep.json", CPnMap(((depolarizing_map(2),),)))
    code, out, _ = run(capsys, "extreme", dep_f)
    assert code == 1
    assert "decomposition" in json.loads(out)
    assert len(calls) == 1


def test_disjoint_command(tmp_path, capsys):
    a22 = make_algebra((2, 2))
    b1 = CPnMap(((compression_map(a22, 0),),))
    b2 = CPnMap(((compression_map(a22, 1),),))
    f1 = write_map(tmp_path / "b1.json", b1)
    f2 = write_map(tmp_path / "b2.json", b2)
    code, out, _ = run(capsys, "disjoint", f1, f2)
    assert code == 0
    assert json.loads(out)["verdict"] is True

    alg = make_algebra((2,))
    idm = CPnMap(((identity_map(alg),),))
    id_f = write_map(tmp_path / "id.json", idm)
    code, out, _ = run(capsys, "disjoint", id_f, id_f)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["certificates"]["witness_offdiagonal_norm"] > 1e-6
    wit = ser.cpn_map_from_json(report["witness"])
    assert wit.n == 2


def test_random_determinism(tmp_path, capsys):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    b = tmp_path / "b.json"
    assert main(["random", "--d", "2", "--m", "2", "--n", "2", "--rank", "2",
                 "--seed", "5", "-o", str(a1)]) == 0
    assert main(["random", "--d", "2", "--m", "2", "--n", "2", "--rank", "2",
                 "--seed", "5", "-o", str(a2)]) == 0
    assert main(["random", "--d", "2", "--m", "2", "--n", "2", "--rank", "2",
                 "--seed", "6", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a1.read_bytes() == a2.read_bytes()
    assert a1.read_bytes() != b.read_bytes()
    rho = ser.cpn_map_from_json(json.loads(a1.read_text()))
    assert rho.n == 2 and rho.codomain_dim == 2

    # generated instances always pass the positivity check
    assert main(["check", str(a1)]) == 0
    capsys.readouterr()

    code, _, err = run(capsys, "random", "--d", "0")
    assert code == 2
    code, _, err = run(capsys, "random", "--rank", "-1")
    assert code == 2


def test_random_rank_zero_is_zero_map(tmp_path, capsys):
    f = tmp_path / "zero.json"
    assert main(["random", "--rank", "0", "-o", str(f)]) == 0
    capsys.readouterr()
    rho = ser.cpn_map_from_json(json.loads(f.read_text()))
    assert all(not img.any()
               for row in rho.entries for phi in row for img in images_of(phi))
    assert main(["check", str(f)]) == 0
    capsys.readouterr()


def test_usage_errors(capsys):
    for argv in ([], ["not-a-command"]):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert json.loads(err)["error"]["type"] == "SchemaError"


# per command: an unknown flag, a missing positional where the command has
# one, and a malformed number; MAP stands for a valid map file
USAGE_ERRORS = [
    ["check", "MAP", "--bogus"], ["check"], ["check", "MAP", "--tol", "abc"],
    ["dilate", "MAP", "--bogus"], ["dilate"], ["dilate", "MAP", "--tol", "1e-9x"],
    ["rn", "MAP", "MAP", "--bogus"], ["rn", "MAP"], ["rn", "MAP", "MAP", "--tol", ""],
    ["pure", "MAP", "--bogus"], ["pure"], ["pure", "MAP", "--tol", "abc"],
    ["extreme", "MAP", "--bogus"], ["extreme"], ["extreme", "MAP", "--tol", "abc"],
    ["disjoint", "MAP", "MAP", "--bogus"], ["disjoint", "MAP"],
    ["disjoint", "MAP", "MAP", "--tol", "abc"],
    ["random", "--bogus"], ["random", "--d", "two"], ["random", "--seed", "1.5"],
    ["suite", "--bogus"], ["suite", "--count", "x"], ["suite", "--tol", "abc"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_json(tmp_path, capsys, argv):
    good, _ = make_files(tmp_path)
    code, out, err = run(capsys, *(good if a == "MAP" else a for a in argv))
    assert_json_error(code, out, err)
    assert json.loads(err)["error"]["type"] == "SchemaError"


def test_unwritable_output_exit_2(tmp_path, capsys):
    good, _ = make_files(tmp_path)
    target = tmp_path / "missing" / "x.json"
    for argv in (["check", good], ["random"]):
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert_json_error(code, out, err)
        assert json.loads(err)["error"]["type"] == "SchemaError"
        assert not target.parent.exists()


def test_negative_seed_exit_2(capsys):
    # numpy generators take no negative seed; both seeded commands refuse it
    for argv in (["random", "--seed", "-1"], ["suite", "--seed", "-1", "--count", "1"]):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert json.loads(err)["error"]["type"] == "SchemaError"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "cpnkit" in out


def test_tol_validation(tmp_path, capsys, monkeypatch):
    good, _ = make_files(tmp_path)
    code, _, err = run(capsys, "check", good, "--tol", "-1")
    assert code == 2
    monkeypatch.setenv("CPN_TOL", "not-a-number")
    code, _, err = run(capsys, "check", good)
    assert code == 2
    monkeypatch.setenv("CPN_TOL", "1e-7")
    code, out, _ = run(capsys, "check", good)
    assert code == 0
    assert json.loads(out)["tol"] == 1e-7


def test_suite_count_below_one(capsys):
    for count in (0, -1):
        with pytest.raises(ValidationError):
            run_all(0, 1e-9, count)
        code, out, err = run(capsys, "suite", "--count", str(count))
        assert_json_error(code, out, err)
        assert json.loads(err)["error"]["type"] == "ValidationError"


def test_suite_command(capsys):
    code, out, _ = run(capsys, "suite", "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all("PASS" in line for line in lines[:10])
    assert lines[-1].startswith("suite: PASS")


def assert_json_error(code, out, err):
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"]


def test_nonfinite_tolerances_exit_2(tmp_path, capsys, monkeypatch):
    good, _ = make_files(tmp_path)
    assert_json_error(*run(capsys, "check", good, "--tol", "1e400"))
    assert_json_error(*run(capsys, "check", good, "--tol", "nan"))
    code, out, err = run(capsys, "dilate", good, "--rank-tol", "1e-9")
    assert_json_error(code, out, err)
    assert "unrecognized arguments: --rank-tol" in json.loads(err)["error"]["message"]
    monkeypatch.setenv("CPN_TOL", "inf")
    assert_json_error(*run(capsys, "check", good))


def test_nonfinite_matrix_entry_exit_2(tmp_path, capsys):
    good, _ = make_files(tmp_path)
    payload = json.loads(Path(good).read_text())
    for bad in (float("nan"), float("inf")):
        payload["entries"][0][0]["choi_blocks"][0][0][0] = [bad, 0.0]
        f = tmp_path / "nonfinite.json"
        f.write_text(json.dumps(payload))  # writes NaN / Infinity literals
        code, out, err = run(capsys, "check", str(f))
        assert_json_error(code, out, err)
        assert json.loads(err)["error"]["type"] == "SchemaError"
    text = json.dumps(payload).replace("Infinity", "1" + "0" * 400)
    f.write_text(text)  # an integer beyond float range
    assert_json_error(*run(capsys, "dilate", str(f)))


def test_linalg_failure_exit_2(tmp_path, capsys):
    # finite entries whose Hermitian part overflows to inf reach eigvalsh
    good, _ = make_files(tmp_path)
    payload = json.loads(Path(good).read_text())
    block = payload["entries"][0][0]["choi_blocks"][0]
    for row in block:
        for z in row:
            z[:] = [1.7e308, 0.0]
    f = tmp_path / "overflow.json"
    f.write_text(json.dumps(payload))
    with np.errstate(all="ignore"):
        for command in ("check", "dilate", "pure"):
            assert_json_error(*run(capsys, command, str(f)))


def test_nonfinite_report_exit_2(tmp_path, capsys, monkeypatch):
    # a report that would need NaN is refused rather than printed
    from cpnkit import cli
    from cpnkit.maps import CpnVerdict
    good, _ = make_files(tmp_path)
    monkeypatch.setattr(cli, "is_completely_n_positive",
                        lambda rho, tol: CpnVerdict(True, float("nan"), True))
    code, out, err = run(capsys, "check", good)
    assert_json_error(code, out, err)
    assert json.loads(err)["error"]["type"] == "CertificationError"


def run_module(*argv):
    """python -m cpnkit in a fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cpnkit.__file__)))
    return subprocess.run([sys.executable, "-m", "cpnkit", *argv],
                          capture_output=True, text=True, env=env)


def test_overflow_stderr_is_one_json_object(tmp_path):
    # in a fresh interpreter numpy would print RuntimeWarning lines before
    # the error; the CLI raises them instead, so stderr stays one object
    good, _ = make_files(tmp_path)
    payload = json.loads(Path(good).read_text())
    for row in payload["entries"][0][0]["choi_blocks"][0]:
        for z in row:
            z[:] = [1.7e308, 0.0]
    f = tmp_path / "overflow.json"
    f.write_text(json.dumps(payload))
    for command in ("check", "dilate", "pure", "extreme"):
        proc = run_module(command, str(f))
        assert proc.returncode == 2, command
        assert proc.stdout == ""
        report = json.loads(proc.stderr)  # raises unless exactly one object
        assert report["error"]["type"] == "FloatingPointError"


def test_usage_error_stderr_is_one_json_object(tmp_path):
    # argparse prints no usage text of its own
    good, _ = make_files(tmp_path)
    proc = run_module("dilate", good, "--bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "SchemaError"


def test_readme_cli_lines_parse():
    # every documented invocation must still parse; parsing opens no file
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    commands = set()
    for line in block.splitlines():
        if line.startswith("cpnkit "):
            argv = shlex.split(line.split("#", 1)[0])[1:]
            commands.add(build_parser().parse_args(argv).command)
    assert commands == {"check", "dilate", "rn", "pure", "extreme", "disjoint",
                        "random", "suite"}
