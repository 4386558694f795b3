import contextlib
import copy
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cpnkit
from cpnkit import (CPnMap, LinearMap, apply_map, canonicalize, compression_map, cpn_distance,
                    depolarizing_map, dilate, dilate_from_gram, flatten, identity_map,
                    images_of, make_algebra, random_cpn_map, unflatten)
from cpnkit import serialize as ser
from cpnkit.acceptance import run_all
from cpnkit.cli import build_parser, main
from cpnkit.dilation import DilationReport, Representation
from cpnkit.errors import ValidationError
from cpnkit.linalg import spectral_norm
from cpnkit.maps import subblocks

from test_properties import DETERMINISTIC


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
    # the factor residual carries its value and bound; minimality has neither
    for failing, fields in ((DilationReport(1.45, 2, 2, True, 7.48),
                             {"value": 1.45, "bound": 1e-9 * 7.48}),
                            (DilationReport(0.0, 1, 2, False, 1.0), {})):
        monkeypatch.setattr(cli, "verify_dilation", lambda rho, dil, tol: failing)
        code, out, err = run(capsys, "dilate", good)
        assert_json_error(code, out, err)
        error = json.loads(err)["error"]
        assert error["type"] == "CertificationError"
        assert {k: error[k] for k in ("value", "bound") if k in error} == fields


def wire_factor_residual(wire, rho):
    """max ||V_i* Phi(e) V_j - rho_ij(e)|| from a wire dilation and rho's
    domain alone: Phi is Representation.canonical's images on the first
    sum d_k r_k dimensions and zero on the rest."""
    h, m = wire["space_dim"], rho.codomain_dim
    core = Representation.canonical(rho.domain, wire["multiplicities"]).images
    phi = np.zeros((rho.domain.dim, h, h), dtype=complex)
    phi[:, :core.shape[1], :core.shape[1]] = core
    v = np.hstack([ser.json_to_matrix(x, (h, m)) for x in wire["isometries"]])
    return spectral_norm(subblocks(v.conj().T @ phi @ v - images_of(flatten(rho)), m))


def test_dilation_wire_contract(tmp_path, capsys):
    # the dilate report alone rebuilds rho, and holds n H m pairs, no images
    rng = np.random.default_rng(23)
    zeroed = random_cpn_map(make_algebra((3, 1)), 2, 2, 3, rng).flat
    zeroed = unflatten(LinearMap(zeroed.domain, 4, (zeroed.choi_blocks[0], np.zeros((4, 4)))), 2)
    cases = [random_cpn_map(make_algebra((2,)), 2, 2, 3, rng),
             random_cpn_map(make_algebra((2, 1)), 1, 2, 2, rng), zeroed,
             random_cpn_map(make_algebra((2, 1)), 2, 2, 0, rng)]
    for k, rho in enumerate(cases):
        code, out, _ = run(capsys, "dilate", write_map(tmp_path / f"{k}.json", rho))
        assert code == 0
        wire = json.loads(out)["dilation"]
        assert sorted(wire) == ["isometries", "multiplicities", "space_dim"]
        h = wire["space_dim"]
        assert sum(len(row) for x in wire["isometries"] for row in x) == rho.n * h * rho.codomain_dim
        assert wire_factor_residual(wire, rho) <= 1e-9 * rho.scale
    assert json.loads(out)["space_dim"] == 0
    assert dilate(zeroed).rep.multiplicities[1] == 0
    # a Gram dilation is refused; its canonical form's wire V_i are U* V_i
    rho = cases[1]
    gram = dilate_from_gram(rho)
    with pytest.raises(ValidationError, match="canonicalize"):
        ser.dilation_to_json(gram)
    canon, u = canonicalize(gram)
    wire = json.loads(json.dumps(ser.dilation_to_json(canon)))
    v0 = ser.json_to_matrix(wire["isometries"][0], gram.isometries[0].shape)
    assert not np.allclose(v0, gram.isometries[0])
    assert np.abs(u @ v0 - gram.isometries[0]).max() <= 1e-12
    assert wire_factor_residual(wire, rho) <= 1e-9 * rho.scale


def test_commands_other_than_suite_skip_the_acceptance_module(tmp_path):
    good, _ = make_files(tmp_path)
    outs = [str(tmp_path / f"{c}.json") for c in ("check", "dilate")]
    script = ("import sys; from cpnkit.cli import main; "
              f"print([main([c, {good!r}, '-o', o]) for c, o in zip(('check', 'dilate'), {outs!r})], "
              "'cpnkit.acceptance' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cpnkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.stdout == "[0, 0] False\n", proc.stderr


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



def test_pure_and_rn_certificates_carry_no_frame_keys(tmp_path, capsys):
    # every CLI dilation is a dilate() output, canonical: no frame residual,
    # commute bound or commutant residual is reported, as each is 0
    rng = np.random.default_rng(31)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 3, rng)
    rho_f = write_map(tmp_path / "rho.json", rho)
    half_f = write_map(tmp_path / "half.json", 0.5 * rho)
    keys = {
        "pure": {"commutant_dimension", "space_dim"},
        "rn": {"spectrum_min", "spectrum_max", "reconstruction_residual"},
    }
    for argv in (("pure", rho_f), ("rn", rho_f, half_f)):
        code, out, _ = run(capsys, *argv)
        assert code == (0 if argv[0] == "rn" else 1)
        assert set(json.loads(out)["certificates"]) == keys[argv[0]]

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

    # outside the unital class the verdict is taken in C(rho(1)): 2 id is
    # extreme there, and 2 dep splits into parts with rho(1) = 2 I
    two_id = write_map(tmp_path / "two_id.json", CPnMap(((2.0 * identity_map(alg),),)))
    assert run(capsys, "extreme", two_id)[0] == 0
    code, out, _ = run(capsys, "extreme", write_map(tmp_path / "two_dep.json", 2.0 * dep))
    assert code == 1
    for key in ("part1", "part2"):
        part = ser.cpn_map_from_json(json.loads(out)["decomposition"][key])
        assert spectral_norm(apply_map(part.flat, alg.unit()) - 2.0 * np.eye(2)) <= 1e-8


def test_extreme_command_on_maps_whose_gram_overflows(tmp_path, capsys):
    # at a Choi scale of 1e160 the Gram certificate overflows and the SVD
    # decides, with the verdicts of the unscaled maps
    alg = make_algebra((2,))
    for name, rho, want in (("square", random_cpn_map(alg, 2, 1, 2, np.random.default_rng(3)),
                             (0, 4, 4)),
                            ("wide", CPnMap(((depolarizing_map(2),),)), (1, 16, 4))):
        code, out, _ = run(capsys, "extreme", write_map(tmp_path / f"{name}.json", 1e160 * rho))
        certificates = json.loads(out)["certificates"]
        assert (code, certificates["commutant_dimension"],
                certificates["compression_rank"]) == want


def test_extreme_builds_the_compressed_commutant_once(tmp_path, capsys, monkeypatch):
    # the decomposition reuses the dilation and commutant the verdict was read from
    import cpnkit.structure as structure
    real = structure._minimal_commutant
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structure, "_minimal_commutant", counted)
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

    # nothing asks for unital maps: 2 id is not unital, and it meets the
    # depolarizing map in the one block of M_2
    two_id = write_map(tmp_path / "two_id.json", CPnMap(((2.0 * identity_map(alg),),)))
    dep_f = write_map(tmp_path / "dep.json", CPnMap(((depolarizing_map(2),),)))
    code, out, _ = run(capsys, "disjoint", two_id, dep_f)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["certificates"]["witness_offdiagonal_norm"] > 1e-6
    assert ser.cpn_map_from_json(report["witness"]).n == 2


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


def test_run_all_rejects_negative_seed():
    # numpy generators take no negative seed; the library says so itself
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        run_all(-1)
    with pytest.raises(ValidationError):
        run_all(-5, 1e-9, 1)


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
    good, bad = make_files(tmp_path)
    assert_json_error(*run(capsys, "check", good, "--tol", "1e400"))
    assert_json_error(*run(capsys, "check", good, "--tol", "nan"))
    code, out, err = run(capsys, "dilate", good, "--rank-tol", "1e-9")
    assert_json_error(code, out, err)
    assert "unrecognized arguments: --rank-tol" in json.loads(err)["error"]["message"]
    # from tol = 1 up, -tol (1 + ||C||) < lambda_min would pass every
    # Hermitian-symmetric map and dilate to nothing: no verdict is reached
    for tol in ("1", "1e300"):
        for argv in (("check", bad), ("dilate", good), ("pure", good)):
            code, out, err = run(capsys, *argv, "--tol", tol)
            assert_json_error(code, out, err)
            assert json.loads(err)["error"]["message"] == f"--tol must be below 1, got {float(tol)!r}"
    monkeypatch.setenv("CPN_TOL", "1.0")
    assert_json_error(*run(capsys, "check", bad))
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


def test_memory_error_exit_2(capsys, monkeypatch):
    # an input too large to allocate is unusable input, not a negative
    # verdict; the stand-in raises before anything is allocated
    from cpnkit import cli

    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli, "random_cpn_map", unallocatable)
    code, out, err = run(capsys, "random", "--d", "1000000", "--m", "1", "--n", "1",
                         "--rank", "1")
    assert_json_error(code, out, err)
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == {"type": "MemoryError",
                                        "message": "Unable to allocate 14.6 TiB for an array"}


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


CONTRACT_MAPS = [ser.cpn_map_to_json(rho) for rho in (
    random_cpn_map(make_algebra((2,)), 2, 2, 2, np.random.default_rng(0)),
    random_cpn_map(make_algebra((2, 1)), 2, 1, 2, np.random.default_rng(1)),
    CPnMap(((identity_map(make_algebra((2,))),),)))]

MUTATIONS = ("none", "nan", "inf", "huge", "string", "drop", "n", "codomain",
             "ragged", "nonhermitian")


def mutated(wire, kind, data):
    """A deep copy of a wire map with one defect of the given kind (none
    for "none"), at a drawn entry, Choi block, row and column."""
    obj = copy.deepcopy(wire)
    n = obj["n"]
    entry = obj["entries"][data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))]
    block = data.draw(st.sampled_from(entry["choi_blocks"]))
    row = data.draw(st.sampled_from(block))
    col, part = data.draw(st.integers(0, len(row) - 1)), data.draw(st.integers(0, 1))
    if kind in ("nan", "inf", "huge"):
        row[col][part] = {"nan": math.nan, "inf": -math.inf, "huge": 1e308}[kind]
    elif kind == "string":
        target = data.draw(st.sampled_from(["number", "pair", "n"]))
        if target == "number":
            row[col][part] = "0.5"
        elif target == "pair":
            row[col] = "0.5"
        else:
            obj["n"] = str(n)
    elif kind == "drop":
        holder = data.draw(st.sampled_from([obj, entry, obj["domain"]]))
        del holder[data.draw(st.sampled_from(sorted(holder)))]
    elif kind in ("n", "codomain"):
        key = "n" if kind == "n" else "codomain_dim"
        obj[key] = data.draw(st.sampled_from([0, -1, obj[key] - 1, obj[key] + 1, 2.5,
                                              True, None]))
    elif kind == "ragged":
        (row if data.draw(st.booleans()) else block).pop()
    elif kind == "nonhermitian":
        row[col][1] += data.draw(st.sampled_from([1e-6, 0.5, 1e3]))
    return obj


@DETERMINISTIC
@given(st.sampled_from(range(len(CONTRACT_MAPS))), st.sampled_from(MUTATIONS),
       st.sampled_from(["check", "dilate", "pure", "extreme", "rn", "disjoint"]),
       st.booleans(), st.data())
def test_cli_contract_on_mutated_wire_maps(tmp_path_factory, which, kind, command,
                                           mutated_first, data):
    # whatever the defect, main returns 0, 1 or 2 and stderr holds nothing
    # or exactly one JSON line with an "error" key
    base = CONTRACT_MAPS[which]
    folder = tmp_path_factory.mktemp("contract")
    paths = []
    for name, obj in (("mutated", mutated(base, kind, data)), ("base", base)):
        paths.append(str(folder / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(obj))
    if command in ("rn", "disjoint"):
        argv = [command] + (paths if mutated_first else paths[::-1])
    else:
        argv = [command, paths[0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert (err == "") >= (code == 0) and (err != "") >= (code == 2)
    if err:
        assert err.endswith("\n") and err.count("\n") == 1
        assert "error" in json.loads(err)
