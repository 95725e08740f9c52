"""Command-line front end.

Subcommands: gen, verify, classify, bases, fuzz, replay, dump.
Exit codes: 0 success, 1 mathematical failure (failed verification,
identity assertion, internal contradiction, or a fuzz counterexample),
2 usage error.  All defaults are shown by --help.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import bases as bases_mod
from .errors import (
    CircHessError,
    InternalContradictionError,
    InvalidFamilyParametersError,
    NotCircularError,
    NotRecurrentError,
    ParseError,
)
from .families import (
    Family,
    FamilyParameters,
    classify_family,
    family_generate,
    vartheta_combination,
)
from .fields import FieldSpec, QuotientExtension, dump_json, field_from_string
from .linalg import Matrix
from .recurrence import recurrence_status
from .search import (
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_RANDOM_TRIALS,
    SEARCH_MODES,
    SearchConfig,
    replay,
    search,
)
from .systems import (
    ParameterArray,
    ingest_pair,
    split_form_build,
    verify_ch_axioms,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _parse_scalar(spec: FieldSpec, text: str):
    """Accept canonical renderings plus plain integers, fractions, and the
    bare generator name of an extension."""
    text = text.strip()
    if isinstance(spec, QuotientExtension) and text == spec.gen:
        return spec.generator()
    try:
        return spec.element(int(text))
    except ValueError:
        pass
    try:
        return spec.element(text)
    except ParseError:
        pass
    try:
        return spec.element(Fraction(text))
    except (ValueError, ZeroDivisionError, CircHessError) as e:
        raise ParseError(f"cannot parse {text!r} as an element of {spec}") from e


def _emit(payload: dict, out_path: str | None):
    text = dump_json(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from e
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _array_from_input(data: dict) -> ParameterArray:
    if "parameter_array" in data and data["parameter_array"]:
        return ParameterArray.from_json(data["parameter_array"])
    return ParameterArray.from_json(data)


def cmd_gen(args) -> int:
    spec = field_from_string(args.field)
    family = Family(args.family)
    q = None
    if family is Family.F1_GENERIC_Q:
        if args.q is not None:
            q = _parse_scalar(spec, args.q)
        elif isinstance(spec, QuotientExtension):
            q = spec.generator()
        else:
            print("error: --q is required for family F1 over this field",
                  file=sys.stderr)
            return EXIT_USAGE
    fp = FamilyParameters(
        family, spec, args.d,
        _parse_scalar(spec, args.a), _parse_scalar(spec, args.b),
        _parse_scalar(spec, args.c), _parse_scalar(spec, args.astar),
        _parse_scalar(spec, args.bstar), _parse_scalar(spec, args.cstar),
        _parse_scalar(spec, args.y), _parse_scalar(spec, args.z), q,
    )
    params = family_generate(fp)
    system = split_form_build(params)
    outcome = verify_ch_axioms(system)
    payload = system.to_json()
    payload["family_parameters"] = fp.to_json()
    payload["is_ch"] = outcome.is_ch
    _emit(payload, args.out)
    return EXIT_OK if outcome.is_ch else EXIT_MATH


def cmd_verify(args) -> int:
    data = _load_json(args.infile)
    if "theta" in data or (data.get("parameter_array")):
        params = _array_from_input(data)
        system = split_form_build(params)
        outcome = verify_ch_axioms(system)
        payload = outcome.to_json()
        payload["parameter_array"] = params.to_json()
        _emit(payload, args.out)
        return EXIT_OK if outcome.is_ch else EXIT_MATH
    if "A" in data and "A_star" in data:
        a = Matrix.from_json(data["A"])
        b = Matrix.from_json(data["A_star"])
        if not a.nrows == a.ncols == b.nrows == b.ncols >= 4:
            raise ParseError("A and A_star must be square, of one size >= 4")
        if a.spec != b.spec:
            raise ParseError("A and A_star must be over the same field")
        system = ingest_pair(a, b)
        if system is None:
            _emit({"is_ch": False,
                   "detail": "no idempotent ordering satisfies the axioms"},
                  args.out)
            return EXIT_MATH
        payload = {"is_ch": True, "parameter_array": system.params.to_json()}
        _emit(payload, args.out)
        return EXIT_OK
    print("error: input needs a parameter array or a matrix pair", file=sys.stderr)
    return EXIT_USAGE


def cmd_classify(args) -> int:
    params = _array_from_input(_load_json(args.infile))
    try:
        cls = classify_family(params)
    except (NotRecurrentError, NotCircularError) as e:
        _emit({"recurrent": recurrence_status(params).recurrent,
               "classified": False, "detail": str(e)}, args.out)
        return EXIT_OK
    payload = cls.to_json()
    payload["classified"] = True
    _emit(payload, args.out)
    return EXIT_OK


def cmd_bases(args) -> int:
    params = _array_from_input(_load_json(args.infile))
    system = split_form_build(params)
    outcome = verify_ch_axioms(system)
    if not outcome.is_ch:
        _emit({"is_ch": False, "failures": outcome.to_json()["failures"]}, args.out)
        return EXIT_MATH
    catalog, scalars = bases_mod.build_basis_catalog(system)
    reps = {name: bases_mod.represent(catalog, name)
            for name in bases_mod.BASIS_NAMES}
    transitions = {}
    for a, b in bases_mod._DIAGRAM_EDGES:
        for pair in ((a, b), (b, a)):
            transitions[pair] = bases_mod.transition(catalog, *pair)
    payload = {
        "normalization": scalars.to_json(),
        "bases": {name: {"B": rp.B.to_json(), "B_star": rp.B_star.to_json()}
                  for name, rp in reps.items()},
        "transitions": [t.to_json() for t in transitions.values()],
    }
    if args.check_all:
        ledger, failed, seconds = _bases_ledger(params, catalog, reps, transitions)
        payload["checks"] = ledger
        for line, t in zip(ledger, seconds):
            print(("PASS " if line["passed"] else "FAIL ") + line["check"]
                  + f" ({t * 1e3:.3f} ms)", file=sys.stderr)
        _emit(payload, args.out)
        return EXIT_MATH if failed else EXIT_OK
    _emit(payload, args.out)
    return EXIT_OK


def _bases_ledger(params, catalog, reps, transitions):
    """The --check-all ledger, whether any check failed, and each check's
    time in seconds (for stderr only: the ledger is output bytes and holds
    no time).  `reps` (every basis) and `transitions` (the diagram edges)
    already passed their assertions for the payload, so only the other
    transitions are checked here."""
    checks, seconds = [], []
    failed = False

    def run(name, fn):
        nonlocal failed
        start = time.perf_counter()
        try:
            fn()
            checks.append({"check": name, "passed": True})
        except CircHessError as e:
            checks.append({"check": name, "passed": False, "detail": str(e)})
            failed = True
        seconds.append(time.perf_counter() - start)

    for a in bases_mod.BASIS_NAMES:
        for b in bases_mod.BASIS_NAMES:
            run(f"transition {a} -> {b}",
                lambda a=a, b=b: (a, b) in transitions
                or bases_mod.transition(catalog, a, b))
    for name in bases_mod.BASIS_NAMES:
        run(f"representation {name}", lambda name=name: reps[name])
    run("standard form entries",
        lambda: bases_mod.standard_form_entries(catalog, reps))
    status = recurrence_status(params)
    if status.recurrent:
        run("psi products", lambda: bases_mod.psi_check(params))
        run("wrap-scalar combinations",
            lambda: vartheta_combination(params, status.betas[0]))
    return checks, failed, seconds


def cmd_fuzz(args) -> int:
    spec = field_from_string(args.field)
    cfg = SearchConfig(
        spec, args.d, args.mode, seed=args.seed, trials=args.trials,
        exhaustive_cap=args.cap, report_path=args.report,
    )
    report = search(cfg)
    sys.stdout.write(report.to_bytes().decode() + "\n")
    return EXIT_MATH if report.counterexamples else EXIT_OK


def cmd_replay(args) -> int:
    params = _array_from_input(_load_json(args.infile))
    bundle = replay(params)
    _emit(bundle, args.out)
    return EXIT_OK if bundle.get("ok") else EXIT_MATH


def cmd_dump(args) -> int:
    data = _load_json(args.infile)
    if "entries" in data:
        print(Matrix.from_json(data).pretty())
        return EXIT_OK
    params = _array_from_input(data)
    system = split_form_build(params)
    print("A =")
    print(system.A.pretty())
    print("A* =")
    print(system.A_star.pretty())
    return EXIT_OK


def _count(text: str, low: int = 0) -> int:
    """An argparse type: an integer >= low, else a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use;
    parse_args leaves it unchanged, so every main call can share it."""
    ap = argparse.ArgumentParser(
        prog="circhess",
        description="Exact construction, verification, classification, and "
                    "fuzzing of circular Hessenberg systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    field_help = "field descriptor: rat | gf:p | ext:gf:p:c0,c1,... | cyclo:n"

    g = sub.add_parser("gen", help="generate a family instance")
    g.add_argument("--family", required=True, choices=[f.value for f in Family])
    g.add_argument("--field", required=True, help=field_help)
    g.add_argument("--d", type=int, required=True, help="diameter (>= 3)")
    g.add_argument("--q", default=None,
                   help="F1 unit root (default: extension generator)")
    for flag in ("a", "b", "c", "astar", "bstar", "cstar", "y", "z"):
        g.add_argument(f"--{flag}", default="0", help=f"{flag} scalar (default 0)")
    g.add_argument("--out", default=None, help="output path (default stdout)")
    g.set_defaults(fn=cmd_gen)

    v = sub.add_parser("verify", help="verify the axioms for an array or pair")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("classify", help="classify a recurrent array")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_classify)

    b = sub.add_parser("bases", help="six bases, transitions, representations")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--check-all", action="store_true",
                   help="run every identity assertion and print a ledger")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bases)

    f = sub.add_parser("fuzz", help="search for non-recurrent systems")
    f.add_argument("--field", required=True, help=field_help)
    f.add_argument("--d", type=functools.partial(_count, low=3), required=True,
                   help="diameter (>= 3)")
    f.add_argument("--mode", choices=SEARCH_MODES, default="random")
    f.add_argument("--seed", type=int, default=0, help="random-mode seed (default 0)")
    f.add_argument("--trials", type=_count, default=DEFAULT_RANDOM_TRIALS,
                   help=f"random-mode trials (default {DEFAULT_RANDOM_TRIALS})")
    f.add_argument("--cap", type=_count, default=DEFAULT_EXHAUSTIVE_CAP,
                   help=f"exhaustive candidate cap (default {DEFAULT_EXHAUSTIVE_CAP})")
    f.add_argument("--report", default=None, help="write the report JSON here")
    f.set_defaults(fn=cmd_fuzz)

    r = sub.add_parser("replay", help="full diagnostic bundle for one array")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_replay)

    d = sub.add_parser("dump", help="pretty-print matrices")
    d.add_argument("--in", dest="infile", required=True)
    d.set_defaults(fn=cmd_dump)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidFamilyParametersError, ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalContradictionError as e:
        print(f"INTERNAL CONTRADICTION: {e}", file=sys.stderr)
        return EXIT_MATH
    except CircHessError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
