"""CLI subcommands, exit codes, and JSON round-trips."""

import contextlib
import copy
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circhess import (
    Family,
    FamilyParameters,
    Matrix,
    ParameterArray,
    cyclotomic_field,
    family_generate,
    ingest_pair,
    matrix_inverse,
    prime_field,
    split_form_build,
)
from circhess.cli import main
from circhess.errors import InvalidFamilyParametersError
from circhess.linalg import rank


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "w5.json"
    code, _, _ = run(
        capsys, "gen", "--family", "F1", "--field", "gf:5", "--d", "3",
        "--q", "2", "--b", "1", "--bstar", "1", "--y", "1", "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["is_ch"]
    assert data["parameter_array"]["theta"] == ["1", "2", "4", "3"]
    assert data["parameter_array"]["phi"] == ["3", "2", "4"]

    code, stdout, _ = run(capsys, "verify", "--in", str(out))
    assert code == 0
    assert json.loads(stdout)["is_ch"]


def test_gen_invalid_parameters_is_usage_error(capsys):
    code, _, err = run(
        capsys, "gen", "--family", "F1", "--field", "gf:5", "--d", "3",
        "--q", "2", "--b", "1", "--bstar", "1", "--y", "1", "--z", "1",
    )
    assert code == 2
    assert "y,z" in err


def test_verify_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"kind": "prime", "p": 5}, "d": 3,
        "theta": ["1", "2", "4", "3"], "theta_star": ["1", "2", "4", "3"],
        "phi": ["3", "1", "3"],
    }))
    code, stdout, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    payload = json.loads(stdout)
    assert not payload["is_ch"]
    assert {"condition": "iv", "i": 0, "j": 3} in payload["failures"]


def test_verify_invalid_array_is_usage_error(tmp_path, capsys):
    """A repeated theta value is a malformed input: exit 2 with an error
    line, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"kind": "prime", "p": 5}, "d": 3,
        "theta": ["1", "1", "4", "3"], "theta_star": ["1", "2", "4", "3"],
        "phi": ["3", "1", "3"],
    }))
    code, stdout, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "mutually distinct" in err


def test_verify_matrix_pair(tmp_path, capsys, w5_system):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "A": w5_system.A.to_json(), "A_star": w5_system.A_star.to_json(),
    }))
    code, stdout, _ = run(capsys, "verify", "--in", pair.as_posix())
    assert code == 0
    payload = json.loads(stdout)
    assert payload["is_ch"]
    assert payload["parameter_array"]["phi"] == ["3", "2", "4"]


def test_classify_cli(tmp_path, capsys, w5_array):
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, stdout, _ = run(capsys, "classify", "--in", str(f))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["classified"] and payload["family"] == "F1"
    assert payload["parameters"]["q"] in ("2", "3")


def test_classify_non_recurrent_cli(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "field": {"kind": "prime", "p": 5}, "d": 3,
        "theta": ["0", "1", "2", "3"], "theta_star": ["0", "1", "2", "4"],
        "phi": ["1", "1", "1"],
    }))
    code, stdout, _ = run(capsys, "classify", "--in", str(f))
    assert code == 0
    payload = json.loads(stdout)
    assert payload == {"classified": False, "recurrent": False,
                       "detail": payload["detail"]}


def test_bases_cli_check_all(tmp_path, capsys, w5_array):
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, stdout, err = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["normalization"]["epsilon_star"] == "4"
    assert set(payload["bases"]) == {
        "standard", "split", "inv_split", "dual_standard", "dual_split",
        "inv_dual_split",
    }
    assert all(c["passed"] for c in payload["checks"])
    assert "PASS" in err and "FAIL" not in err


def test_bases_check_all_times_each_check_on_stderr(tmp_path, capsys, w5_array):
    """Each stderr line is one ledger check, in ledger order, ending with
    that check's time in milliseconds; the ledger itself holds no time,
    so two runs print the same stdout."""
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    _, first, _ = run(capsys, "bases", "--in", str(f), "--check-all")
    code, stdout, err = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0 and stdout == first
    checks = json.loads(stdout)["checks"]
    lines = err.splitlines()
    assert len(lines) == len(checks) > 0
    for line, check in zip(lines, checks):
        head, _, tail = line.rpartition(" (")
        assert head == "PASS " + check["check"]
        assert tail.endswith(" ms)") and float(tail[:-4]) >= 0


def test_bases_cli_without_check_all(tmp_path, capsys, w5_array):
    """Without --check-all, bases prints the --check-all payload less its
    ledger, and no PASS/FAIL lines."""
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, stdout, _ = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0
    checked = json.loads(stdout)
    del checked["checks"]
    code, stdout, err = run(capsys, "bases", "--in", str(f))
    assert code == 0 and err == ""
    assert json.loads(stdout) == checked


def test_bases_cli_non_ch_lists_failures(tmp_path, capsys, w5_array):
    """bases on an array that is not a system exits 1 with verify's
    failures and builds no basis."""
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({**w5_array.to_json(), "phi": ["3", "1", "3"]}))
    code, stdout, _ = run(capsys, "verify", "--in", str(f))
    assert code == 1
    failures = json.loads(stdout)["failures"]
    assert {"condition": "iv", "i": 0, "j": 3} in failures
    code, stdout, _ = run(capsys, "bases", "--in", str(f))
    assert code == 1
    assert json.loads(stdout) == {"is_ch": False, "failures": failures}


def test_verify_matrix_pair_without_ordering(tmp_path, capsys, gf5):
    """A = A* = diag(1, 2, 3, 4) has no idempotent ordering that satisfies
    the axioms: verify exits 1 and says so."""
    from circhess import Matrix

    a = Matrix.diagonal(gf5, [1, 2, 3, 4]).to_json()
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A": a, "A_star": a}))
    code, stdout, _ = run(capsys, "verify", "--in", str(pair))
    assert code == 1
    assert json.loads(stdout) == {
        "is_ch": False, "detail": "no idempotent ordering satisfies the axioms"}


def test_generic_pair_fails_promptly(tmp_path, capsys):
    """A seeded generic 11 x 11 pair over GF(31): A and A* are each
    diagonalizable with 11 distinct eigenvalues in seeded bases, so nearly
    every E_i A* E_j is nonzero and there is no ordering.  ingest_pair and
    verify each say so within 5 s; enumerating the Hamiltonian cycles of
    that nearly complete graph took about two minutes."""
    n, p = 11, 31
    rng = random.Random(2027)
    gf = prime_field(p)

    def diagonalizable():
        m = None
        while m is None or rank(m) < n:
            m = Matrix.from_elements(
                gf, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        return m * Matrix.diagonal(gf, rng.sample(range(p), n)) * matrix_inverse(m)

    a, b = diagonalizable(), diagonalizable()
    start = time.perf_counter()
    assert ingest_pair(a, b) is None
    assert time.perf_counter() - start < 5
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A": a.to_json(), "A_star": b.to_json()}))
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "verify", "--in", str(pair))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert json.loads(stdout) == {
        "is_ch": False, "detail": "no idempotent ordering satisfies the axioms"}


def _f1_array(p, d, rng):
    """A seeded F1 array over GF(p), q = a^((p - 1) / (d + 1)) for the least
    a that makes it a primitive (d + 1)-th root of unity."""
    q = next(q for a in range(2, p) if (q := pow(a, (p - 1) // (d + 1), p)) != 1
             and all(pow(q, i, p) != 1 for i in range(2, d + 1)))
    while True:
        v = [rng.randrange(p) for _ in range(8)]
        try:
            return family_generate(FamilyParameters.make(
                Family.F1_GENERIC_Q, prime_field(p), d, a=v[0], b=v[1], c=v[2],
                a_star=v[3], b_star=v[4], c_star=v[5], y=v[6], z=v[7], q=q))
        except InvalidFamilyParametersError:
            continue


def test_raw_pair_over_a_field_above_65536_verifies(tmp_path, capsys):
    """A seeded F1, d = 3 system over GF(65537), conjugated by a seeded
    invertible matrix, verifies as a raw pair: its eigenvalues are the
    roots of the characteristic polynomials, with no cap on the field (the
    element scan refused q > 65536)."""
    p = 65537
    rng = random.Random(3101)
    s = split_form_build(_f1_array(p, 3, rng))
    m = None
    while m is None or rank(m) < 4:
        m = Matrix.from_elements(
            s.spec, [[rng.randrange(p) for _ in range(4)] for _ in range(4)])
    m_inv = matrix_inverse(m)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A": (m * s.A * m_inv).to_json(),
                                "A_star": (m * s.A_star * m_inv).to_json()}))
    code, stdout, _ = run(capsys, "verify", "--in", str(pair))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["is_ch"] and payload["parameter_array"]["field"]["p"] == p


def test_classify_over_a_billion_element_field_is_prompt(tmp_path, capsys):
    """classify of a seeded F1 array over GF(10^9 + 9) solves
    x^2 - beta x + 1 by a gcd with x^q - x within a second (the element
    scan did not finish in 30 s)."""
    p = 10**9 + 9
    f = tmp_path / "f1.json"
    f.write_text(json.dumps(_f1_array(p, 3, random.Random(3102)).to_json()))
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "classify", "--in", str(f))
    assert time.perf_counter() - start < 1
    assert code == 0
    payload = json.loads(stdout)
    assert payload["classified"] and payload["family"] == "F1"
    q = int(payload["parameters"]["q"])
    assert pow(q, 4, p) == 1 and pow(q, 2, p) != 1


def test_gen_f1_over_prime_field_needs_q(capsys):
    code, stdout, err = run(
        capsys, "gen", "--family", "F1", "--field", "gf:5", "--d", "3",
        "--b", "1", "--bstar", "1", "--y", "1",
    )
    assert code == 2
    assert stdout == "" and "--q is required" in err


def test_gen_scalar_spellings(capsys):
    """A scalar may be a canonical rendering (0+1*w), the bare generator
    name (w) or a fraction (1/2 = 4 in GF(7)); anything else exits 2."""
    gf9 = ("gen", "--family", "F1", "--field", "ext:gf:3:1,0,1", "--d", "3",
           "--b", "1", "--bstar", "1", "--y", "1")
    outs = [run(capsys, *gf9, *q) for q in ((), ("--q", "w"), ("--q", "0+1*w"))]
    assert outs[0][0] == 0 and outs[0][1]
    assert outs[1] == outs[2] == outs[0]
    gf7 = ("gen", "--family", "F1", "--field", "gf:7", "--d", "5", "--q", "3",
           "--b", "1", "--astar", "2", "--bstar", "2", "--y", "1", "--z", "2")
    four = run(capsys, *gf7, "--a", "4")
    assert four[0] == 0
    assert run(capsys, *gf7, "--a", "1/2") == four
    code, stdout, err = run(capsys, *gf7, "--a", "zz")
    assert code == 2 and stdout == ""
    assert err == "error: cannot parse 'zz' as an element of GF(7)\n"


def test_bases_check_all_solves_each_once(tmp_path, capsys, monkeypatch, w5_array):
    """One `bases --check-all` solves each of the 6 representations and each
    of the 36 ordered transitions once: the ledger and the standard-form
    entries reuse what the payload computed."""
    from circhess import bases

    calls = {"represent": [], "transition": []}
    for name in calls:
        fn = getattr(bases, name)

        def counted(catalog, *args, _fn=fn, _seen=calls[name]):
            _seen.append(args)
            return _fn(catalog, *args)

        monkeypatch.setattr(bases, name, counted)
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, _, _ = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0
    assert sorted(calls["represent"]) == sorted((n,) for n in bases.BASIS_NAMES)
    assert sorted(calls["transition"]) == sorted(
        (a, b) for a in bases.BASIS_NAMES for b in bases.BASIS_NAMES
    )


def test_bases_check_all_product_counts(tmp_path, capsys, monkeypatch, w5_array):
    """One W5 `bases --check-all` forms 68 Matrix x Matrix products: the 30
    transitions that are not identities each check X_from T = X_to (30),
    the 18 composed ones cost one product each (18), the 6 representations
    each check X B and X B* against the memoized images (12), and those
    images are formed for the 4 rank-checked bases (8), inv_split's and
    inv_dual_split's being read off them.  Its 4 Matrix.from_columns calls
    are those 4 bases; the inv_ bases reverse their columns."""
    counts = {"products": 0, "from_columns": 0}
    mul, from_columns = Matrix.__mul__, Matrix.from_columns.__func__

    def counted_mul(self, other):
        counts["products"] += isinstance(other, Matrix)
        return mul(self, other)

    def counted_from_columns(cls, columns):
        counts["from_columns"] += 1
        return from_columns(cls, columns)

    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    monkeypatch.setattr(Matrix, "from_columns", classmethod(counted_from_columns))
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, _, _ = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0
    assert counts == {"products": 68, "from_columns": 4}


@pytest.mark.parametrize("argv, expected", [
    (["bases", "--check-all"], 4),
    (["replay"], 5),
])
def test_elimination_count(tmp_path, capsys, monkeypatch, w5_array, argv,
                           expected):
    """Gauss-Jordan eliminations behind linalg's inverse, rank and
    determinant in one W5 command (the invariant-subspace closure in
    `systems` calls the routine directly and is not counted): `bases
    --check-all` runs the catalog's 4 rank checks and nothing else, since
    every transition and representation is checked as a product identity;
    `replay` adds the one fit-basis inverse of the family classification,
    which its 3 closed-form fits share."""
    from circhess import linalg

    gauss_jordan = linalg._gauss_jordan
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return gauss_jordan(*args)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, _, _ = run(capsys, argv[0], "--in", str(f), *argv[1:])
    assert code == 0
    assert count == expected


def test_closed_form_edges_built_once(tmp_path, capsys, monkeypatch, w5_array):
    """One W5 `bases --check-all` builds each of the 12 directed diagram
    edges once, so the eigenvector closed form runs once for each of
    standard <-> inv_split and inv_dual_split <-> dual_standard."""
    from circhess import bases

    counts = {"_inv_split_edge": 0, "_bidiagonal_eigenvectors": 0}
    for name in counts:
        fn = getattr(bases, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(bases, name, counted)
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, _, _ = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0
    assert counts == {"_inv_split_edge": 12, "_bidiagonal_eigenvectors": 4}


def test_diagram_paths_searched_once(tmp_path, capsys, monkeypatch, w5_array):
    """The diagram is fixed, so its paths are searched when `bases` is
    imported: one W5 `bases --check-all` composes 30 distinct ordered pairs
    and runs no breadth-first search."""
    from circhess import bases

    calls = []
    search = bases._diagram_path
    monkeypatch.setattr(bases, "_diagram_path",
                        lambda a, b: calls.append((a, b)) or search(a, b))
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, _, _ = run(capsys, "bases", "--in", str(f), "--check-all")
    assert code == 0
    assert calls == []


def test_parser_shared_between_commands(tmp_path, capsys, w5_array):
    """main builds its parser once per process.  Two commands in a row,
    with different subcommands and --out paths, each write their own
    output, a parsed value does not become the next parse's default, and
    --help prints the same text twice."""
    from circhess.cli import build_parser, cmd_dump

    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    verified, classified = tmp_path / "v.json", tmp_path / "c.json"
    assert run(capsys, "verify", "--in", str(f), "--out", str(verified))[0] == 0
    assert run(capsys, "classify", "--in", str(f), "--out", str(classified))[0] == 0
    assert json.loads(verified.read_text())["is_ch"]
    assert "is_ch" not in json.loads(classified.read_text())
    ap = build_parser()
    assert ap is build_parser()
    first = ap.parse_args(["gen", "--family", "F1", "--field", "gf:5", "--d", "3",
                           "--a", "2", "--out", "x.json"])
    second = ap.parse_args(["gen", "--family", "F2", "--field", "gf:7", "--d", "4"])
    assert (first.a, first.out) == ("2", "x.json")
    assert (second.a, second.out, second.family) == ("0", None, "F2")
    assert vars(ap.parse_args(["dump", "--in", "y.json"])) == {
        "command": "dump", "infile": "y.json", "fn": cmd_dump}
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "usage: circhess" in helps[0]


def test_fuzz_cli(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, stdout, _ = run(
        capsys, "fuzz", "--field", "gf:5", "--d", "3", "--mode", "random",
        "--seed", "42", "--trials", "300", "--report", str(report),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["candidates_examined"] == 300
    assert payload["counterexamples"] == []
    assert json.loads(report.read_text()) == payload


def test_fuzz_budget_env(tmp_path, capsys):
    code, _, err = run(
        capsys, "fuzz", "--field", "gf:5", "--d", "3", "--mode", "exhaustive",
        "--cap", "10",
    )
    assert code == 1
    assert "exceeds cap" in err


def test_replay_cli(tmp_path, capsys, w5_array):
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, stdout, _ = run(capsys, "replay", "--in", str(f))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] and payload["classification"]["family"] == "F1"


def test_dump_cli(tmp_path, capsys, w5_array):
    f = tmp_path / "w5.json"
    f.write_text(json.dumps(w5_array.to_json()))
    code, stdout, _ = run(capsys, "dump", "--in", str(f))
    assert code == 0
    assert "A =" in stdout and "A* =" in stdout
    assert "[ 3  0  0  0 ]" in stdout


def test_usage_error_on_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/x.json")
    assert code == 2


def test_cyclotomic_gen_defaults_generator(tmp_path, capsys):
    out = tmp_path / "cy.json"
    code, _, _ = run(
        capsys, "gen", "--family", "F1", "--field", "cyclo:4", "--d", "3",
        "--b", "1", "--bstar", "1", "--y", "1", "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["is_ch"]
    assert data["family_parameters"]["q"] == "0+1*t"


_W5_SEQS = {"theta": ["1", "2", "4", "3"], "theta_star": ["1", "2", "4", "3"],
            "phi": ["3", "2", "4"]}
_GF5 = {"kind": "prime", "p": 5}
_I2 = {"field": _GF5, "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}
_RAGGED = {**_I2, "entries": [["1", "0"], ["1"]]}
_MALFORMED = {
    "array without field": _W5_SEQS,
    "top-level list": [1, 2, 3],
    "top-level string": "theta",
    "field not an object": {**_W5_SEQS, "field": "gf:5"},
    "prime field without p": {**_W5_SEQS, "field": {"kind": "prime"}},
    "composite p": {**_W5_SEQS, "field": {"kind": "prime", "p": 4}},
    "modulus not a list": {**_W5_SEQS, "field": {
        "kind": "extension", "base": _GF5, "modulus": 7}},
    "theta not a list": {**_W5_SEQS, "field": _GF5, "theta": 5},
    "array not an object": {"parameter_array": [1, 2]},
    "matrix without entries": {
        "A": {"field": _GF5, "rows": 2, "cols": 2},
        "A_star": {"field": _GF5, "rows": 2, "cols": 2}},
    "matrix entries not lists": {
        "A": {"field": _GF5, "rows": 2, "cols": 2, "entries": 3},
        "A_star": {"field": _GF5, "rows": 2, "cols": 2, "entries": 3}},
    "bare matrix without field": {"entries": [["1"]], "rows": 1, "cols": 1},
    "ragged matrix": {"A": _RAGGED, "A_star": _I2},
    "matrix rows disagree": {"A": {**_I2, "rows": 3}, "A_star": _I2},
    "matrix cols disagree": {"A": _I2, "A_star": {**_I2, "cols": 1}},
    "bare ragged matrix": _RAGGED,
    "bare matrix rows disagree": {**_I2, "rows": 1},
    "three theta values": {**_W5_SEQS, "field": _GF5, "theta": ["1", "2", "4"],
                           "theta_star": ["1", "2", "4"], "phi": ["3", "2"]},
    "phi one entry short": {**_W5_SEQS, "field": _GF5, "phi": ["3", "2"]},
    "theta_star one entry long": {**_W5_SEQS, "field": _GF5,
                                  "theta_star": ["1", "2", "4", "3", "0"]},
    "d not the theta count": {**_W5_SEQS, "field": _GF5, "d": 7},
    "d not an integer": {**_W5_SEQS, "field": _GF5, "d": "3"},
}


@pytest.mark.parametrize("command", ["verify", "classify", "bases", "replay", "dump"])
@pytest.mark.parametrize("doc", sorted(_MALFORMED))
def test_malformed_json_is_usage_error(tmp_path, capsys, command, doc):
    """A document that is valid JSON but not a well-formed array, pair or
    matrix exits 2 with an error line, not with a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_MALFORMED[doc]))
    code, _, err = run(capsys, command, "--in", str(bad))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err



@pytest.mark.parametrize("generator", ["a+b", 7])
def test_extension_generator_not_a_name_is_usage_error(tmp_path, capsys, generator):
    """An extension field whose generator is not an identifier renders
    elements (1+0*a+b, 1+0*7) that do not read back as written: verify
    refuses the array, with its entries written in that rendering, by exit
    2 and an error line that names the generator."""
    field = {"kind": "extension", "base": _GF5, "modulus": ["2", "0", "1"],
             "generator": generator}
    doc = {key: [f"{x}+0*{generator}" for x in seq] for key, seq in _W5_SEQS.items()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "field": field}))
    code, stdout, err = run(capsys, "verify", "--in", str(bad))
    assert (code, stdout) == (2, "")
    assert err.startswith("error:") and "generator" in err

def _eye(n, field=_GF5, cols=None):
    cols = n if cols is None else cols
    return {"field": field, "rows": n, "cols": cols,
            "entries": [[str(int(i == j)) for j in range(cols)] for i in range(n)]}


_BAD_PAIRS = {
    "3x3 pair": (_eye(3), _eye(3)),
    "4x4 with 3x3": (_eye(4), _eye(3)),
    "non-square pair": (_eye(4, cols=5), _eye(4, cols=5)),
    "fields differ": (_eye(4), _eye(4, {"kind": "prime", "p": 7})),
}


@pytest.mark.parametrize("case", sorted(_BAD_PAIRS))
def test_malformed_matrix_pair_is_usage_error(tmp_path, capsys, case):
    """A raw pair that is not two square matrices of one size >= 4 over one
    field exits 2 with an error line, like a malformed array."""
    a, b = _BAD_PAIRS[case]
    bad = tmp_path / "pair.json"
    bad.write_text(json.dumps({"A": a, "A_star": b}))
    code, stdout, err = run(capsys, "verify", "--in", str(bad))
    assert (code, stdout) == (2, "")
    assert err.startswith("error:")


def test_rational_matrix_pair_is_unsupported(tmp_path, capsys):
    """A well-formed pair over QQ is outside ingest's finite-field scope:
    exit 1 (UnsupportedFieldError), as for fuzz --field rat."""
    pair = tmp_path / "pair.json"
    qq = {"kind": "rationals"}
    pair.write_text(json.dumps({"A": _eye(4, qq), "A_star": _eye(4, qq)}))
    code, stdout, err = run(capsys, "verify", "--in", str(pair))
    assert (code, stdout) == (1, "")
    assert err.startswith("error:") and "finite field" in err


def test_invalid_json_text_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, value, mode", [
    ("--trials", "-1", "random"),
    ("--d", "2", "random"),
    ("--d", "2", "exhaustive"),
    ("--cap", "-1", "exhaustive"),
])
def test_fuzz_out_of_range_argument_is_usage_error(capsys, flag, value, mode):
    """A negative --trials or --cap, or a --d below 3, is a usage error
    (exit 2) caught by the parser, not a search of no candidates or a
    mathematical failure (exit 1)."""
    args = {"--field": "gf:5", "--d": "3", "--mode": mode, flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", *itertools.chain(*args.items())])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and flag in out.err


def _well_formed_documents():
    """A GF(5) array, a cyclo:4 array, a wrapped array, a matrix pair and a
    bare matrix; each one a command accepts as it stands."""
    gf5, cy = prime_field(5), cyclotomic_field(4)
    w5 = ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [3, 2, 4])
    s = split_form_build(w5)
    f1 = family_generate(FamilyParameters.make(
        Family.F1_GENERIC_Q, cy, 3, q=cy.generator(), b=1, b_star=1, y=1))
    return [w5.to_json(), f1.to_json(), {"parameter_array": w5.to_json()},
            {"A": s.A.to_json(), "A_star": s.A_star.to_json()}, s.A.to_json()]


_DOCUMENTS = _well_formed_documents()
# values no field element, list, field, prime or size may take
_BAD_ENTRY = st.sampled_from([None, [], {}, [1], "x", "", "1/0", "*t"])
_NOT_A_LIST = st.sampled_from([None, 7, True])
_BAD_FIELD = st.sampled_from([
    "gf:5", 5, None, [], {"kind": "prime", "p": 4},
    {"kind": "extension", "base": {"kind": "prime", "p": 5},
     "modulus": ["1", "0", "1"]},  # t^2 + 1 = (t - 2)(t - 3) over GF(5)
    {"kind": "extension", "base": {"kind": "rationals"}, "modulus": ["-1", "0", "1"]},
])
# primes are drawn small: PrimeField certifies p by trial division
_NOT_PRIME = st.integers(-20, 60).filter(
    lambda n: n < 2 or any(n % k == 0 for k in range(2, n))
) | st.sampled_from(["5", 5.0, None, [5], True])


def _objects(doc, parent=None, key=None):
    """(object, its parent, its key) for every JSON object in doc."""
    if isinstance(doc, dict):
        yield doc, parent, key
        for k, v in doc.items():
            yield from _objects(v, doc, k)


def _break_field(data, f, parent, key):
    kind = f["kind"]
    required = ["kind"] + {"prime": ["p"], "extension": ["base", "modulus"]}.get(kind, [])
    how = data.draw(st.sampled_from(["drop key", "kind", "field", "p", "modulus"]))
    if how == "drop key":
        del f[data.draw(st.sampled_from(required))]
    elif how == "kind":
        f["kind"] = data.draw(st.sampled_from(["", "Prime", "cyclo", None, 5, ["prime"]]))
    elif how == "p" and kind == "prime":
        f["p"] = data.draw(_NOT_PRIME)
    elif how == "modulus" and kind == "extension":
        f["modulus"] = data.draw(st.sampled_from(
            [None, 7, ["1", "1"], ["1", "0", "2"], ["x", "0", "1"]]))
    else:
        parent[key] = data.draw(_BAD_FIELD)


def _break_matrix(data, m):
    rows = m["entries"]
    i = data.draw(st.integers(0, len(rows) - 1))
    how = data.draw(st.sampled_from(
        ["drop key", "size", "entries", "ragged", "row count", "entry"]))
    if how == "drop key":
        del m[data.draw(st.sampled_from(["field", "entries", "rows", "cols"]))]
    elif how == "size":
        m[data.draw(st.sampled_from(["rows", "cols"]))] = data.draw(
            st.integers(0, 8).filter(lambda n: n != len(rows))
            | st.sampled_from(["4", None, [4]]))
    elif how == "entries":
        m["entries"] = data.draw(_NOT_A_LIST)
    elif how == "ragged":
        if data.draw(st.booleans()):
            rows[i].pop()
        else:
            rows[i].append("1")
    elif how == "row count":
        if data.draw(st.booleans()):
            rows.pop(i)
        else:
            rows.append(list(rows[i]))
    else:
        rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(_BAD_ENTRY)


def _break_array(data, a):
    seq = data.draw(st.sampled_from(["theta", "theta_star", "phi"]))
    how = data.draw(st.sampled_from(["drop key", "d", "not a list", "length", "entry"]))
    if how == "drop key":
        del a[data.draw(st.sampled_from(["field", "theta", "theta_star", "phi"]))]
    elif how == "d":
        a["d"] = data.draw(st.integers(-3, 12).filter(lambda n: n != len(a["theta"]) - 1)
                           | st.sampled_from(["3", 3.0, None, True]))
    elif how == "not a list":
        a[seq] = data.draw(_NOT_A_LIST | st.just("1243"))
    elif how == "length":
        if data.draw(st.booleans()):
            a[seq].pop()
        else:
            a[seq].append("1")
    else:
        a[seq][data.draw(st.integers(0, len(a[seq]) - 1))] = data.draw(_BAD_ENTRY)


@pytest.mark.parametrize("k", range(len(_DOCUMENTS)))
def test_well_formed_documents_accepted(tmp_path, capsys, k):
    """The documents the property test breaks are accepted unbroken."""
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(_DOCUMENTS[k]))
    command = "dump" if "entries" in _DOCUMENTS[k] else "verify"
    assert run(capsys, command, "--in", str(f))[0] == 0


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_malformed_documents_property(tmp_path_factory, data):
    """One break of a well-formed document (a wrong type, a missing key, bad
    field JSON, a ragged or mis-sized matrix, a wrong length) makes every
    command exit 1 or 2 with an `error:` line; none raises."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_DOCUMENTS)))
    obj, parent, key = data.draw(st.sampled_from(list(_objects(doc))))
    if "kind" in obj:
        _break_field(data, obj, parent, key)
    elif "entries" in obj:
        _break_matrix(data, obj)
    elif "theta" in obj:
        _break_array(data, obj)
    else:  # a pair or a wrapper: break its first member
        member = next(iter(obj.values()))
        (_break_matrix if "entries" in member else _break_array)(data, member)
    path = tmp_path_factory.mktemp("malformed") / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "classify", "bases", "replay", "dump"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--in", str(path)])
        assert code in (1, 2), (command, doc, out.getvalue())
        assert err.getvalue().startswith("error:"), (command, doc)


def test_python_m_circhess():
    """`python -m circhess` runs the CLI from a checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "circhess", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0
    assert "fuzz" in done.stdout
