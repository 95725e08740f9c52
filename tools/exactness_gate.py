"""Byte-exactness gate: do two checkouts give the same output everywhere?

    python3 tools/exactness_gate.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Each is run in its own
subprocess, which imports circhess from that checkout's `src` and builds
the pipeline inputs with that checkout's `perfbench/workloads.pipeline_setup`
(read only, as the benchmark uses it).  It then records, per command of
every pipeline cycle of seeds 1 and 2 (verify, raw-pair verify, classify,
bases --check-all, replay), the input file, stdout, stderr, exit code and
`--out` file.  It records the same for verify on each raw pair with A and
A* swapped (the dual system, whose "maps into" graphs differ), and on one
seeded generic 8 x 8 pair over GF(31) per seed, which has no idempotent
ordering.  Over extensions of QQ beyond the pipeline's cyclo:4 cell it
records, per seed, the input and verify, classify, bases --check-all and
replay on a seeded F1 array over each of cyclo:3 (d = 5), cyclo:5 (d = 4)
and cyclo:12 (d = 3), and on a seeded array over each of QQ[t]/(t^2 - 1/2)
(reduction rows with denominator 2) and QQ[t]/(t^3 - 2), fields with no
descriptor string, so their array files carry the field as JSON; both are
real fields with no root of unity of order 4 or more, so these arrays are
not CH and the commands report that.  It records the same four commands
on a seeded F1 (d = 4) and F4 (d = 3) array over the tower
GF(16) = GF(4)[s]/(s^2 + s + w), whose base is itself an extension, also
written with the field as JSON, and verify on each of those two systems as
a raw pair (conjugated by a seeded invertible matrix) and swapped, whose
eigenvalues come from root splitting in characteristic 2.  Then it
records the report bytes of the GF(5) and GF(4), d = 3 exhaustive
searches and of the GF(5), d = 4 one,
whose 1,600 hits all have beta = 2, and the report bytes of seeded
random searches (seeds 1 and 2) on both of random mode's paths.  On the
table path, where the field's eigenvalue sequences all fit the memo, and
whose code lists and hit table are built once per field and d: GF(5),
d = 3 and 4, and GF(4), d = 3, with 4,000 trials, and GF(5), d = 4
with 40,000 trials, whose seeds reach 15 and 18 hits (at 4,000 trials
they reach 0 and 3).  On the lazy path, where they do not: GF(7), d = 3
(31 and 25 hits) and GF(7), d = 4 (no CH system exists), with 4,000
trials.  Temporary paths, and the check times that end bases
--check-all's PASS and FAIL lines on stderr, are masked before hashing.

Prints one SHA-256 digest per tree, with the three exhaustive report
prefixes, and the first record that differs.  Exits 0 when every record
is equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SEEDS = (1, 2)
# the time a bases --check-all stderr line ends with, which no output holds
CHECK_TIME = re.compile(rb"^((?:PASS|FAIL) .*) \(\d+\.\d+ ms\)$", re.M)
# F1 arrays over cyclotomic fields: (field, d, q as sign * t^power), q a
# primitive (d + 1)-th root of unity
QQ_F1 = (("cyclo:3", 5, -1, 1), ("cyclo:5", 4, 1, 1), ("cyclo:12", 3, 1, 3))
# moduli (low to high) over QQ with no descriptor string, and d
QQ_JSON_ONLY = (((Fraction(-1, 2), 0, 1), 3), ((-2, 0, 0, 1), 4))
# families and d of the arrays over the GF(16) tower
TOWER = (("F1", 4), ("F4", 3))
EXHAUSTIVE = (("gf:5", 3), ("ext:gf:2:1,1,1", 3), ("gf:5", 4))
# (field, d, trials) of the seeded random reports
RANDOM = (("gf:5", 3, 4000), ("gf:5", 4, 4000), ("gf:5", 4, 40000),
          ("ext:gf:2:1,1,1", 3, 4000), ("gf:7", 3, 4000), ("gf:7", 4, 4000))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generic_pair(ch, seed: int) -> list[dict]:
    """Two seeded 8 x 8 matrices over GF(31), each diagonalizable with 8
    distinct eigenvalues in a seeded basis, as JSON: nearly every
    E_i A* E_j is nonzero, so no idempotent ordering exists."""
    n, p = 8, 31
    rng = random.Random(seed)
    spec = ch.field_from_string(f"gf:{p}")

    def diagonalizable():
        while True:
            m = ch.Matrix.from_elements(
                spec, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            if not ch.determinant(m).is_zero():
                diag = ch.Matrix.diagonal(spec, rng.sample(range(p), n))
                return (m * diag * ch.matrix_inverse(m)).to_json()

    return [diagonalizable(), diagonalizable()]


def _qq_pool(spec) -> list:
    """Scalars x + y t with fractional x and y."""
    e, t = spec.element, spec.generator()
    xs = [Fraction(n, m) for n, m in ((-2, 1), (-1, 2), (0, 1), (1, 3), (1, 1), (3, 2))]
    return [e(x) + e(y) * t for x in xs for y in xs]


def _qq_arrays(ch, seed: int) -> list:
    """(label, array) over each QQ_F1 and QQ_JSON_ONLY field, seeded."""
    rng = random.Random(seed)
    out = []
    for field, d, sign, power in QQ_F1:
        spec = ch.field_from_string(field)
        pool, q = _qq_pool(spec), spec.generator() ** power * sign
        while True:
            fp = ch.FamilyParameters(ch.Family("F1"), spec, d,
                                     *[rng.choice(pool) for _ in range(8)], q)
            try:
                out.append((f"F1 {field}", ch.family_generate(fp)))
                break
            except ch.errors.InvalidFamilyParametersError:
                continue
    for modulus, d in QQ_JSON_ONLY:
        spec = ch.quotient_extension(ch.rationals(), list(modulus))
        pool = _qq_pool(spec)
        nonzero = [x for x in pool if not x.is_zero()]
        out.append((f"array {spec}", ch.ParameterArray(
            spec, d, tuple(rng.sample(pool, d + 1)), tuple(rng.sample(pool, d + 1)),
            tuple(rng.choice(nonzero) for _ in range(d)))))
    return out


def _tower_arrays(ch, seed: int) -> list:
    """(label, array) for each TOWER family over GF(4)[s]/(s^2 + s + w),
    seeded, by rejection sampling from all 16 elements; F1's q is drawn
    among the elements of order d + 1."""
    rng = random.Random(seed)
    gf4 = ch.field_from_string("ext:gf:2:1,1,1")
    one = gf4.one_element()
    spec = ch.quotient_extension(gf4, [gf4.generator(), one, one], gen="s")
    pool = list(spec.elements())
    out = []
    for family, d in TOWER:
        roots = [None]
        if family == "F1":
            roots = [x for x in pool if not x.is_zero() and x ** (d + 1) == 1
                     and all(x ** i != 1 for i in range(1, d + 1))]
        while True:
            fp = ch.FamilyParameters(ch.Family(family), spec, d,
                                     *[rng.choice(pool) for _ in range(8)],
                                     rng.choice(roots))
            try:
                out.append((f"{family} GF(16) tower", ch.family_generate(fp)))
                break
            except ch.errors.InvalidFamilyParametersError:
                continue
    return out


def _conjugated_pair(ch, params, rng) -> tuple:
    """The split form of `params` conjugated by a seeded invertible matrix,
    as the JSON of A and of A*."""
    s = ch.split_form_build(params)
    pool = [e.payload for e in s.spec.elements()]
    n = s.A.nrows
    while True:
        m = ch.Matrix(s.spec, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        if not ch.determinant(m).is_zero():
            m_inv = ch.matrix_inverse(m)
            return (m * s.A * m_inv).to_json(), (m * s.A_star * m_inv).to_json()


def collect(tree: Path) -> list[list[str]]:
    """[label, digest] records for one checkout, in a fixed order."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    ch = importlib.import_module("circhess")
    main = importlib.import_module("circhess.cli").main
    wl = importlib.import_module("workloads")
    records = []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)

            def mask(data: bytes) -> bytes:
                return data.replace(tmp.encode(), b"<work>")

            def run(argv) -> str:
                out_path = Path(argv[-1])
                out_path.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    try:
                        rc = repr(main(argv))
                    except Exception as e:  # noqa: BLE001 - recorded
                        rc = f"raised {type(e).__name__}: {e}"
                out = out_path.read_bytes() if out_path.exists() else b"<none>"
                err = CHECK_TIME.sub(rb"\1", stderr.getvalue().encode())
                return _sha(mask(b"\0".join([stdout.getvalue().encode(), err,
                                              rc.encode(), out])))

            def verify_pair(a, b) -> str:
                path = workdir / "pair.json"
                path.write_text(json.dumps({"A": a, "A_star": b}))
                return run(["verify", "--in", str(path), "--out",
                            str(workdir / "out.json")])

            cycles = wl.pipeline_setup(ch, seed, wl.FULL, workdir)
            for c, cycle in enumerate(cycles):
                for case in cycle:
                    label = f"seed {seed} cycle {c} {case.family} {case.params.spec}"
                    records.append([f"{label} input",
                                    _sha(Path(case.array_path).read_bytes())])
                    for kind, argv in case.commands:
                        if kind == "ingest":
                            records.append([f"{label} pair input",
                                            _sha(Path(argv[2]).read_bytes())])
                        records.append([f"{label} {kind}", run(argv)])
                        if kind == "ingest":
                            pair = json.loads(Path(argv[2]).read_text())
                            records.append([f"{label} swapped ingest",
                                            verify_pair(pair["A_star"], pair["A"])])
            records.append([f"seed {seed} generic pair ingest",
                            verify_pair(*_generic_pair(ch, seed))])
            tower = _tower_arrays(ch, seed)
            for label, params in _qq_arrays(ch, seed) + tower:
                label = f"seed {seed} {label}"
                path = workdir / "qq-array.json"
                path.write_text(json.dumps(params.to_json()))
                records.append([f"{label} input", _sha(path.read_bytes())])
                for argv in (["verify"], ["classify"], ["bases", "--check-all"],
                             ["replay"]):
                    records.append([f"{label} {argv[0]}", run(
                        argv[:1] + ["--in", str(path)] + argv[1:]
                        + ["--out", str(workdir / "out.json")])])
            rng = random.Random(seed)
            for label, params in tower:
                label = f"seed {seed} {label}"
                a, b = _conjugated_pair(ch, params, rng)
                records.append([f"{label} pair input", _sha(json.dumps([a, b]).encode())])
                records.append([f"{label} ingest", verify_pair(a, b)])
                records.append([f"{label} swapped ingest", verify_pair(b, a)])
    for field, d in EXHAUSTIVE:
        cfg = ch.SearchConfig(ch.field_from_string(field), d, "exhaustive")
        records.append([f"exhaustive {field} d={d}",
                        _sha(ch.search(cfg).to_bytes())])
    for field, d, trials in RANDOM:
        for seed in SEEDS:
            cfg = ch.SearchConfig(ch.field_from_string(field), d, "random",
                                  seed, trials)
            records.append([f"random {field} d={d} seed={seed} trials={trials}",
                            _sha(ch.search(cfg).to_bytes())])
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path,
                    help="PARENT CHANGE (two checkout roots)")
    ap.add_argument("--collect", action="store_true",
                    help="internal: print the records of one tree as JSON")
    args = ap.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(args.trees[0].resolve())))
        return 0
    if len(args.trees) != 2:
        ap.error("give exactly two checkouts: PARENT CHANGE")
    results = []
    for tree in args.trees:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(tree.resolve()),
             "--collect"],
            capture_output=True, text=True, check=True,
        )
        records = json.loads(done.stdout)
        results.append(records)
        digest = _sha(json.dumps(records).encode())
        exhaustive = ", ".join(f"{label}: {h[:16]}" for label, h in records
                               if label.startswith("exhaustive"))
        print(f"{tree}: {len(records)} records, digest {digest} ({exhaustive})")
    parent, change = results
    for a, b in zip(parent, change):
        if a != b:
            print(f"first difference: {a[0]}" + ("" if a[0] == b[0] else f" / {b[0]}"))
            return 1
    if len(parent) != len(change):
        print(f"record counts differ: {len(parent)} against {len(change)}")
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
