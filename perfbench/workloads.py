"""The three circhess benchmark workloads: inputs, timed passes and gates.

All work is single-process and single-threaded, in a closed loop: the next
call into circhess is issued only after the previous one returns.  The
benchmark reaches the program only through its public API and
`circhess.cli.main(argv)`, and hands it only inputs made from the seed.

- fuzz-exhaustive: `search()` over the whole GF(5), d = 3 space (921,600
  candidates, 15,200 probe hits).  One pass takes about a minute, so a run
  holds exactly one pass whatever the run length.
- fuzz-sparse: seeded random-mode `search()` calls over GF(5), d = 4, of
  `Sizes.sparse_trials` candidates each; about 0.05% of candidates reach
  the oracle.
- pipeline: per seeded array, the CLI commands verify (array), verify (raw
  pair conjugated by a seeded invertible matrix; finite fields only),
  classify, bases --check-all and replay, over F1-F4 on prime, extension
  and cyclotomic fields with d from 3 to 6.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

FUZZ_FIELD = "gf:5"
EXT_FUZZ_FIELD = "ext:gf:2:1,1,1"  # GF(4): search() crashes at its first probe hit


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the smoke test shrinks these."""

    exhaustive_d: int = 3
    exhaustive_field: str = FUZZ_FIELD
    # (candidates, CH systems) of the whole exhaustive space, all recurrent
    # with beta = 0
    exhaustive_expect: tuple = (921_600, 15_200)
    sparse_d: int = 4
    sparse_trials: int = 4_000
    # a p90 keeps at least ten calls beyond it (fuzz-exhaustive makes one)
    min_calls: int = 100
    # distinct seeded cycles of pipeline inputs; later cycles reuse them
    pipeline_cycles: int = 4
    pipeline_cells: tuple = (
        ("F1", "gf:5", 3),
        ("F2", "gf:5", 4),
        ("F1", "gf:7", 5),
        ("F2", "gf:7", 6),
        ("F4", "ext:gf:2:1,1,1", 3),
        ("F1", "ext:gf:3:1,0,1", 3),
        ("F3", "ext:gf:3:1,0,1", 5),
        ("F1", "cyclo:4", 3),
    )
    setup_repeats: int = 5
    # traced passes of fixed size, so per-layer counts repeat exactly;
    # fuzz-sparse's traced pass of 20 calls reaches the oracle about 40 times
    trace_calls: int = 20
    exhaustive_sample_trials: int = 1_000
    count_trials: int = 10_000
    ext_fuzz_trials: int = 200


FULL = Sizes()


def import_circhess(src: Path):
    """A fresh import of circhess from the checkout's `src`, so that set-up
    time includes the import on every repeat."""
    for name in [m for m in sys.modules if m == "circhess" or m.startswith("circhess.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    ch = importlib.import_module("circhess")
    if not Path(ch.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"circhess imported from {ch.__file__}, not from {src}")
    importlib.import_module("circhess.cli")
    return ch


class Outcome:
    """Attempted and failed operations, plus one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def call_guarded(fn, *args):
    """Run one call into the program; a raised exception is a failed
    operation, reported with its traceback, never a benchmark crash."""
    try:
        return True, fn(*args)
    except Exception:  # noqa: BLE001 - boundary that must keep running
        traceback.print_exc(file=sys.stderr)
        return False, None


# --- fuzz -----------------------------------------------------------------------

@dataclass
class FuzzInputs:
    ch: object
    configs: list  # SearchConfig per call, in call order
    expect: tuple | None  # exhaustive (candidates, CH systems), else None


def random_configs(ch, spec, d: int, seed: int, calls: int, trials: int) -> list:
    """Seeded random-mode search configs; the second repeats the first seed,
    so its report bytes must match."""
    rng = random.Random(seed)
    seeds = [rng.getrandbits(32) for _ in range(calls)]
    seeds[1:2] = seeds[:1]
    return [ch.SearchConfig(spec, d, "random", seed=s, trials=trials) for s in seeds]


def fuzz_setup(ch, workload: str, seed: int, sizes: Sizes, calls: int) -> FuzzInputs:
    if workload == "fuzz-exhaustive":
        spec = ch.field_from_string(sizes.exhaustive_field)
        cfg = ch.SearchConfig(spec, sizes.exhaustive_d, "exhaustive")
        return FuzzInputs(ch, [cfg], sizes.exhaustive_expect)
    spec = ch.field_from_string(FUZZ_FIELD)
    return FuzzInputs(ch, random_configs(ch, spec, sizes.sparse_d, seed, calls,
                                         sizes.sparse_trials), None)


def fuzz_check(inputs: FuzzInputs, cfg, report, first_bytes) -> tuple[bool, str]:
    rep = report.to_json()
    if cfg.mode == "exhaustive":
        n, ch = inputs.expect
        want = {"candidates_examined": n, "ch_systems_found": ch, "recurrent_count": ch,
                "beta_histogram": {"0": ch} if ch else {}, "counterexamples": []}
        bad = {k: rep[k] for k in want if rep[k] != want[k]}
        return not bad, f"exhaustive report differs: {bad}"
    if rep["candidates_examined"] != cfg.trials:
        return False, f"seed {cfg.seed}: {rep['candidates_examined']} != {cfg.trials} trials"
    if rep["ch_systems_found"] != rep["recurrent_count"] or rep["counterexamples"]:
        return False, f"seed {cfg.seed}: non-recurrent CH system reported"
    if first_bytes is not None and report.to_bytes() != first_bytes:
        return False, f"seed {cfg.seed}: repeated search gave different report bytes"
    return True, ""


def fuzz_pass(inputs: FuzzInputs, outcome: Outcome, clock, configs=None, deadline=None,
              min_calls=0, instrument=None):
    """Run searches in order; return (seconds, span, candidates, CH systems,
    passed the gate) per call, timed by `clock`.  Reports are checked after
    the pass, outside any instrumentation.

    With a deadline, stops at the first call boundary past it once at least
    `min_calls` calls ran.
    """
    runs = []
    with instrument or contextlib.nullcontext():
        search = inputs.ch.search
        for cfg in inputs.configs if configs is None else configs:
            if deadline is not None and len(runs) >= min_calls \
                    and time.perf_counter() >= deadline:
                break
            mark = clock.mark()
            ok, report = call_guarded(search, cfg)
            runs.append((cfg, ok, report, clock.since(mark)))
    samples = []
    first_bytes = {}  # identical configs must give identical report bytes
    for cfg, ok, report, (seconds, span) in runs:
        if ok:
            key = json.dumps(cfg.to_json(), sort_keys=True)
            ok, why = fuzz_check(inputs, cfg, report, first_bytes.get(key))
            first_bytes.setdefault(key, report.to_bytes())
            samples.append((seconds, span, report.candidates_examined,
                            report.ch_systems_found, ok))
        else:
            why = f"search raised ({cfg.mode}, seed {cfg.seed})"
            samples.append((seconds, span, 0, 0, False))
        outcome.record(ok, why)
    return samples


def ext_fuzz(ch, seed: int, sizes: Sizes) -> bool:
    """One short, untimed random search over GF(4); True when it fails.

    Quotient-extension search is known to crash at its first probe hit; the
    failure is reported as a per-layer count, not as a benchmark failure.
    """
    spec = ch.field_from_string(EXT_FUZZ_FIELD)
    cfg = ch.SearchConfig(spec, 3, "random", seed=seed, trials=sizes.ext_fuzz_trials)
    try:
        report = ch.search(cfg)
    except ch.errors.CircHessError:
        return True
    return (report.candidates_examined != cfg.trials
            or report.ch_systems_found != report.recurrent_count)


# --- pipeline -------------------------------------------------------------------

@dataclass
class Case:
    family: str
    params: object  # generating ParameterArray
    array_path: str
    commands: list = field(default_factory=list)  # (kind, argv)


def _scalars(spec):
    if spec.order is not None:
        return list(spec.elements())
    t, e = spec.generator(), spec.element
    return [e(x) + e(y) * t for x in range(-2, 3) for y in range(-2, 3)]


def _random_array(ch, rng, family: str, spec, d: int):
    """A seeded valid instance of `family`, by rejection sampling."""
    pool = _scalars(spec)
    fam = ch.Family(family)
    roots = None
    if fam is ch.Family.F1_GENERIC_Q:
        roots = [x for x in pool if not x.is_zero() and x ** (d + 1) == 1
                 and all(x ** i != 1 for i in range(1, d + 1))]
    while True:
        vals = [rng.choice(pool) for _ in range(8)]
        fp = ch.FamilyParameters(fam, spec, d, *vals,
                                 rng.choice(roots) if roots else None)
        try:
            return ch.family_generate(fp)
        except ch.errors.InvalidFamilyParametersError:
            continue


def _random_invertible(ch, rng, spec, n: int):
    pool = [e.payload for e in spec.elements()]
    while True:
        m = ch.Matrix(spec, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        if not ch.determinant(m).is_zero():
            return m


def pipeline_setup(ch, seed: int, sizes: Sizes, workdir: Path) -> list[list[Case]]:
    """Seeded cycles of cases: each cycle holds every cell once, in seeded
    order, so every run sees the same mix of fields, families and sizes."""
    rng = random.Random(seed)
    out = str(workdir / "out.json")
    cycles = []
    for c in range(sizes.pipeline_cycles):
        cells = list(sizes.pipeline_cells)
        rng.shuffle(cells)
        cycle = []
        for k, (family, field_text, d) in enumerate(cells):
            spec = ch.field_from_string(field_text)
            p = _random_array(ch, rng, family, spec, d)
            array_path = workdir / f"array-{c}-{k}.json"
            array_path.write_text(json.dumps(p.to_json()))
            case = Case(family, p, str(array_path))
            case.commands.append(("verify", ["verify", "--in", case.array_path, "--out", out]))
            if spec.order is not None:
                s = ch.split_form_build(p)
                m = _random_invertible(ch, rng, spec, d + 1)
                m_inv = ch.matrix_inverse(m)
                pair = {"A": (m * s.A * m_inv).to_json(),
                        "A_star": (m * s.A_star * m_inv).to_json()}
                pair_path = workdir / f"pair-{c}-{k}.json"
                pair_path.write_text(json.dumps(pair))
                case.commands.append(("ingest", ["verify", "--in", str(pair_path),
                                                 "--out", out]))
            case.commands += [
                ("classify", ["classify", "--in", case.array_path, "--out", out]),
                ("bases", ["bases", "--in", case.array_path, "--check-all", "--out", out]),
                ("replay", ["replay", "--in", case.array_path, "--out", out]),
            ]
            cycle.append(case)
        cycles.append(cycle)
    return cycles


def _rotate(seq, r):
    return tuple(seq[r:]) + tuple(seq[:r])


def _ingest_expected(ch, p, recovered: dict) -> bool:
    """Whether an ingested array is the generating array up to the cyclic
    re-indexing of the idempotents that the axioms leave free.

    The axiom pattern is invariant under rotating E (or E*) cyclically, so
    ingest may return any rotation; the array of that rotation is recomputed
    here from the generating system and must match exactly.
    """
    spec = p.spec
    got = ch.ParameterArray.from_json(recovered)
    if got.spec != spec or got.d != p.d:
        return False
    n = p.d + 1
    rs = [r for r in range(n) if _rotate(p.theta, r) == got.theta]
    rss = [r for r in range(n) if _rotate(p.theta_star, r) == got.theta_star]
    if not rs or not rss:
        return False
    base = ch.split_form_build(p)
    r, rstar = rs[0], rss[0]
    rotated = ch.CHSystem(spec, p.d, base.A, base.A_star, _rotate(base.E, r),
                          _rotate(base.E_star, rstar), got.theta, got.theta_star)
    if not ch.verify_ch_axioms(rotated).is_ch:
        return False
    e0 = rotated.E_star[0]
    seed = next(col for col in e0.columns() if not col.is_zero())
    params, _ = ch.extract_parameter_array(rotated, seed)
    return params == got


def pipeline_check(ch, case: Case, kind: str, rc, payload) -> tuple[bool, str]:
    what = f"{kind} on {case.array_path}"
    if rc != 0 or payload is None:
        return False, f"{what}: exit {rc}"
    if kind == "verify":
        ok = payload.get("is_ch") is True and \
            payload.get("parameter_array") == case.params.to_json()
    elif kind == "ingest":
        ok = payload.get("is_ch") is True and \
            _ingest_expected(ch, case.params, payload["parameter_array"])
    elif kind == "classify":
        ok = payload.get("classified") is True and payload.get("family") == case.family
    elif kind == "bases":
        checks = payload.get("checks") or []
        ok = bool(checks) and all(line["passed"] for line in checks)
    else:
        ok = payload.get("ok") is True
    return ok, f"{what}: output fails the gate"


def pipeline_pass(ch, cycles: list[list[Case]], outcome: Outcome, clock, deadline=None,
                  min_calls=0, ncycles=None, instrument=None):
    """Run whole cycles of commands; return (seconds, span, passed the gate)
    per command, timed by `clock`.

    Outputs are checked after each cycle, outside the timed calls and any
    instrumentation.  With a deadline, stops at the first cycle boundary
    past it once at least `min_calls` commands ran; otherwise runs
    `ncycles` cycles.
    """
    latencies = []
    c = 0
    while True:
        if deadline is not None:
            if len(latencies) >= min_calls and time.perf_counter() >= deadline:
                break
        elif c >= ncycles:
            break
        results = []
        with instrument or contextlib.nullcontext():
            main = importlib.import_module("circhess.cli").main
            for case in cycles[c % len(cycles)]:
                for kind, argv in case.commands:
                    sink = io.StringIO()
                    mark = clock.mark()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        ok, rc = call_guarded(main, argv)
                    seconds, span = clock.since(mark)
                    payload = None
                    if ok and rc == 0:
                        with open(argv[-1], encoding="utf-8") as fh:
                            payload = json.load(fh)
                    else:
                        sys.stderr.write(sink.getvalue())
                    results.append((case, kind, rc if ok else None, payload,
                                    seconds, span))
        for case, kind, rc, payload, seconds, span in results:
            ok, why = pipeline_check(ch, case, kind, rc, payload)
            outcome.record(ok, why)
            latencies.append((seconds, span, ok))
        c += 1
    return latencies
