"""Seeded randomized and exhaustive searches for circular Hessenberg systems.

The search space is parameter-array data (distinct eigenvalue tuples plus a
nonzero split tuple): every system has a split form, so this space is
complete up to isomorphism.  A candidate is a probe hit when it passes an
exact division-free probe (_pattern_probe) that reads the one circular
Hessenberg pattern (the CIRCULAR_HESSENBERG table of
linalg._shape_pattern) the axiom oracle reads; each entry it tests is a linear form in theta* and phi, read
off the eigenvectors of the split form's A.  Over small fields both modes
read one table of probe hits per set of eigenvalue sequences (_pair_hits):
the affine maps theta -> a theta + b, theta* -> a* theta* + b* with
phi -> a a* phi keep every pattern entry zero or nonzero, so the hits of
every (theta, theta*) pair are those of one normalized pair (theta_0 =
theta*_0 = 0, theta_1 = theta*_1 = 1), rescaled, and phi is solved for
(_solve_pair) once per normalized pair.  Exhaustive mode reads the table
of every pair.  Random mode draws the candidates of random.Random(seed)
.sample and choice (_random_candidates).  Over a field whose perm(q, d + 1)
eigenvalue sequences fit the memo it draws their codes instead
(_random_codes) and looks each one up in the table, built once per
(field, d) (_code_tables); otherwise it probes each candidate, evaluating
the forms lazily (_probe_forms).
Each mode is one generator of units, (candidates examined, probe hits
among them), in the mode table _UNITS: SEARCH_MODES (the CLI's --mode
choices) and search()'s dispatch both read it.  Every probe hit, in either
mode, is then re-verified by the axiom oracle (split_form_build, which
only constructs, then verify_ch_axioms), which is authoritative and shares
only the pattern's specification with the probe (the probe is exact, so a
hit the oracle rejects is an internal contradiction and raises).  Hits
that fail to be recurrent are counterexamples to the open conjecture that
all such systems are recurrent: they are persisted as replayable JSON
before any post-processing.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import bases, families
from .errors import (
    BudgetExceededError,
    CircHessError,
    DimensionMismatchError,
    InternalContradictionError,
    NotCircularError,
    NotRecurrentError,
    ParseError,
    UnknownSearchModeError,
    UnsupportedFieldError,
)
from .fields import FieldSpec, JsonFields, PrimeField, dump_json, field_to_string
from .recurrence import recurrence_status, td_witness, vartheta_from_array
from .systems import (
    _MEMO_SIZE,
    _unit_chain_eigenvectors,
    ParameterArray,
    split_form_build,
    verify_ch_axioms,
    cyclic_irreducibility_check,
)
from .linalg import ShapeClass, Vector, _gauss_jordan, _shape_pattern

DEFAULT_EXHAUSTIVE_CAP = 10_000_000
DEFAULT_RANDOM_TRIALS = 100_000


@dataclass
class SearchConfig:
    spec: FieldSpec
    d: int
    mode: str  # one of SEARCH_MODES
    seed: int = 0
    trials: int = DEFAULT_RANDOM_TRIALS
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP
    report_path: str | None = None

    def to_json(self) -> dict:
        try:
            field_doc = field_to_string(self.spec)
        except ParseError:  # no descriptor string, as for a tower
            field_doc = self.spec.to_json()
        return {
            "field": field_doc,
            "d": self.d,
            "mode": self.mode,
            "seed": self.seed if self.mode == "random" else None,
            "trials": self.trials if self.mode == "random" else None,
            "exhaustive_cap": self.exhaustive_cap,
        }


@dataclass
class SearchReport(JsonFields):
    config: dict
    candidates_examined: int = 0
    ch_systems_found: int = 0
    recurrent_count: int = 0
    beta_histogram: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)

    def to_bytes(self) -> bytes:
        return dump_json(self.to_json()).encode()


def _split_pattern_probe(spec, theta, theta_star, phi, d) -> bool:
    """Exact screen for the circular Hessenberg pattern of a split-form pair.

    The E side (E_i A* E_j) is evaluated on the array itself, from theta's
    forms; the E* side (E*_i A E*_j) is the E side of the dual array
    (theta*, theta, phi reversed).  That is exact for every candidate, not
    only for systems: with J the reversal matrix and D the diagonal matrix
    with D_{t+1} / D_t = 1 / phi_{d-t} (which exists because every phi_i is
    nonzero), conjugation by D J maps A* of split(theta, theta*, phi) onto
    A of split(theta*, theta, phi reversed) and A onto its A*, and carries
    E*_i to the dual's E_i (both belong to theta*_i).  Conjugation keeps
    every product zero or nonzero, so the two patterns agree entry by entry.
    """
    return _pattern_probe(spec, d)(theta, theta_star, phi)


def _pattern_probe(spec, d):
    """The probe of _split_pattern_probe as a function of one candidate
    (theta, theta*, phi), reading each sequence's forms lazily
    (_probe_forms) in pattern order, E side first, stopping at the first
    violated entry.
    Each entry costs one dot product and one zero test: form . (theta* ||
    phi) on the E side, from theta's forms, and dual_form . (theta || phi)
    on the E* side, from theta*'s."""
    # spec.is_zero(a) is a == spec.zero, for every field
    dot, zero = spec.dot, spec.zero

    def probe(th, ths, ph):
        point = ths + ph
        for must_zero, form, _ in _probe_forms(spec, th, d):
            if (dot(form, point) == zero) != must_zero:
                return False
        point = th + ph
        for must_zero, _, dual_form in _probe_forms(spec, ths, d):
            if (dot(dual_form, point) == zero) != must_zero:
                return False
        return True

    return probe


def _probe_forms(spec, theta, d):
    """The probe's scalars for split(theta, theta*, phi), for every theta*
    and phi, as linear forms: (must_zero, form, dual_form) per pattern
    entry (i, j) with j > i, computed lazily in pattern order, with
    vu = v (.) u, coeffs[t] = v[t] u[t+1], form = vu || coeffs (its scalar
    is form . (theta* || phi)) and dual_form = vu || reversed(coeffs), the
    same entry for the dual array (theta', theta*', phi') = (theta*, theta,
    phi reversed): coeffs . phi' is reversed(coeffs) . phi, so theta*'s
    dual_form . (theta || phi) is the dual array's E side.

    A is lower bidiagonal with diagonal l_t = theta_{d-t} and ones below,
    so theta_i is its l_{d-i}.  In the unit-chain closed form of
    systems._unit_chain_eigenvectors, v = v_{d-i} is the left row of
    theta_i and u = u_{d-j} the right column of theta_j (division-free,
    so E_i = u_{d-i} v_{d-i}^T / D_{d-i}).  E_i A* E_j is a nonzero outer
    product scaled by v . (A* u), so the pattern reduces to scalar tests.
    A depends on theta alone, and A* is upper bidiagonal with theta* on
    the diagonal and phi above it, so v . (A* u) = vu . theta* +
    coeffs . phi.  Of the pattern, only the entries above the
    superdiagonal (zeros, and the nonzero corner) can fail for split-form
    data; the subdiagonal and lower-zero conditions hold identically and
    are left to the authoritative re-verification of hits.

    This is the lazy reading of that closed form: the two recurrences
    v[t + 1] = (l_k - l_t) v[t] and u[t - 1] = (l_k - l_t) u[t] run here
    per entry, because the probe stops at the first violated entry, so
    most vectors are never needed; _theta_forms reads the same vectors off
    the memoized unit-chain table, payload for payload.  The solver reads
    every entry, so it reads _theta_forms.  The probe runs only on random
    mode's lazy path, over fields whose perm(q, d + 1) thetas do not fit
    the memo: there almost every candidate brings a new theta, whose whole
    table costs many times the entries the probe reads.
    """
    sub, mul, one, zero = spec.sub, spec.mul, spec.one, spec.zero
    for i, j, must_zero in _upper_pattern(d + 1):
        ti, tj = theta[i], theta[j]
        # v vanishes past t = d - i and u before t = d - j
        v, u = [zero] * (d + 1), [zero] * (d + 1)
        v[0] = u[d] = one
        for t in range(d - i):
            v[t + 1] = mul(sub(ti, theta[d - t]), v[t])
        for t in range(j):
            u[d - t - 1] = mul(sub(tj, theta[t]), u[d - t])
        vu, coeffs = tuple(map(mul, v, u)), tuple(map(mul, v, u[1:]))
        yield must_zero, vu + coeffs, vu + coeffs[::-1]


@functools.cache
def _upper_pattern(n: int) -> tuple:
    """The entries (i, j, must_be_zero) of the circular Hessenberg pattern
    above the diagonal, in pattern order."""
    return tuple(e for e in _shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, n)
                 if e[1] > e[0])


def _theta_forms(spec, theta: tuple) -> tuple:
    """All the (must_zero, form, dual_form) entries of _probe_forms for
    theta, as one table, read off the memoized unit-chain table of A's
    diagonal (theta reversed): entry (i, j) takes the left row v_{d-i} and
    the right column u_{d-j}.  Those are _probe_forms's v and u, so the
    forms are its payloads, and the oracle's builds of every array with
    this theta read the same unit-chain table.  Only the solver reads it
    (_solve_pair), twice per pair, and _pair_hits solves only normalized
    pairs, so a search reads it on perm(q - 2, d - 1) sequences at most.
    """
    table, forms = _unit_chain_eigenvectors(spec, theta[::-1])[::-1], []
    for i, j, must_zero in _upper_pattern(len(theta)):
        v, u = table[i][1], table[j][0]
        vu, coeffs = tuple(map(spec.mul, v, u)), tuple(map(spec.mul, v, u[1:]))
        forms.append((must_zero, vu + coeffs, vu + coeffs[::-1]))
    return tuple(forms)


def _solve_pair(spec, theta, theta_star, d, nonzero) -> list:
    """The probe hits split(theta, theta*, phi) over every nonzero phi, in
    the order of phi's indices in `nonzero`, without enumerating phi.

    Both sides' forms are affine in phi, so the zero entries of the
    pattern are linear equations.  They are read off the per-theta tables
    (_theta_forms), the probe's own: the E side's from theta's
    form, tested against theta* || phi, and the E* side's from theta*'s
    dual_form, tested against theta || phi.  Either way the constant is
    form[:d + 1] . other, where other is the other sequence, and the
    coefficients of phi are form[d + 1:].  So a pair costs one dot product
    per pattern entry.  The solution set is walked through its free
    coordinates, and a solution is a hit when every phi_t and both corner
    forms are nonzero.
    """
    add, sub, dot, neg, is_zero = spec.add, spec.sub, spec.dot, spec.neg, spec.is_zero
    equations, corners = [], []
    for forms, other, side in ((_theta_forms(spec, theta), theta_star, 1),
                               (_theta_forms(spec, theta_star), theta, 2)):
        for entry in forms:
            form = entry[side]
            const, coeffs = dot(form[:d + 1], other), form[d + 1:]
            if entry[0]:
                equations.append(coeffs + (neg(const),))
            else:
                corners.append((const, coeffs))
    rows, pivots, _ = _gauss_jordan(spec, equations, d)
    # rows past the pivots are zero in phi: each must have a zero constant
    if not all(is_zero(row[d]) for row in rows[len(pivots):]):
        return []
    free = [t for t in range(d) if t not in pivots]
    hits = []
    for values in itertools.product(nonzero, repeat=len(free)):
        phi = [None] * d
        for t, v in zip(free, values):
            phi[t] = v
        for row, t in zip(rows, pivots):
            phi[t] = sub(row[d], dot([row[f] for f in free], values))
        if not any(is_zero(v) for v in phi) and not any(
            is_zero(add(const, dot(coeffs, phi))) for const, coeffs in corners
        ):
            hits.append(tuple(phi))
    hits.sort(key=lambda phi: [nonzero.index(v) for v in phi])
    return hits


def _pair_hits(spec, d, thetas) -> tuple:
    """(phis, hits): phis is product(nonzero, repeat=d), and hits[c n + c*],
    with n = len(thetas), is the sorted tuple of the codes f for which
    (thetas[c], thetas[c*], phis[f]) is a probe hit.

    The affine maps theta -> a theta + b and theta* -> a* theta* + b*
    (a, a* nonzero), with phi -> a a* phi, keep every E_i A* E_j and
    E*_i A E*_j zero or nonzero.  a A + b is lower bidiagonal with
    a theta + b reversed on its diagonal and a below it, and a* A* + b* is
    upper bidiagonal with a* theta* + b* on its diagonal and a* phi above
    it.  Conjugating both by diag(a^i) turns the a below into ones and the
    a* phi above into a a* phi: it gives the split form of the mapped
    array.  An affine map keeps each primitive idempotent, now belonging to
    the mapped eigenvalue, so the orderings agree, and conjugation keeps
    every product zero or nonzero.  With a = 1 / (theta_1 - theta_0) and
    b = -a theta_0, each theta maps to one normalized sequence, with
    theta_0 = 0 and theta_1 = 1.  So the hits of (theta, theta*) are those
    of its normalized pair, each phi' divided by a a*, that is multiplied
    by (theta_1 - theta_0)(theta*_1 - theta*_0).  _solve_pair runs once
    per normalized pair, perm(q - 2, d - 1)^2 times when thetas holds
    every sequence of a field of q elements, and only the pairs whose
    normalized pair has hits are filled.
    """
    mul, sub, nonzero, n = spec.mul, spec.sub, _elements(spec)[1], len(thetas)
    phis = tuple(itertools.product(nonzero, repeat=d))
    code = {ph: f for f, ph in enumerate(phis)}
    groups = {}  # normalized sequence -> [(c, theta_1 - theta_0)]
    for c, th in enumerate(thetas):
        w = sub(th[1], th[0])
        groups.setdefault(tuple(spec.div(sub(t, th[0]), w) for t in th), []).append((c, w))
    hits = [()] * (n * n)
    for norm, members in groups.items():
        for norm_star, members_star in groups.items():
            solved = _solve_pair(spec, norm, norm_star, d, nonzero)
            if not solved:
                continue
            for (c, w), (cs, ws) in itertools.product(members, members_star):
                s = mul(w, ws)
                hits[c * n + cs] = tuple(sorted(
                    code[tuple(mul(s, x) for x in ph)] for ph in solved))
    return phis, hits


def _elements(spec) -> tuple:
    """(elems, nonzero): the field's payloads in element_payloads order,
    and those of its nonzero elements."""
    elems = list(spec.element_payloads())
    return elems, [e for e in elems if not spec.is_zero(e)]


def _indexed_elements(spec) -> tuple:
    """_elements's two sequences, indexed without listing the field: over
    GF(p) the payload at index j is j, and over an extension it is the
    tuple of the base payloads at j's base-|base| digits, most significant
    first (element_payloads' lexicographic order).  Zero is at index 0,
    so nonzero[j] is elems[j + 1]."""
    if isinstance(spec, PrimeField):
        return range(spec.p), range(1, spec.p)
    return _IndexedPayloads(spec, 0), _IndexedPayloads(spec, 1)


class _IndexedPayloads(Sequence):
    """The payloads of a finite extension from index `start` on, in
    element_payloads order, each computed when it is read."""

    def __init__(self, spec, start):
        self.spec, self.start, self.base = spec, start, _indexed_elements(spec.base)[0]

    def __len__(self):
        return self.spec.order - self.start

    def __getitem__(self, j):
        if not 0 <= j < len(self):
            raise IndexError(j)
        j, base, digits = j + self.start, self.base, []
        for _ in range(self.spec.deg):
            j, r = divmod(j, len(base))
            digits.append(base[r])
        return tuple(digits[::-1])


def _exhaustive_units(cfg: SearchConfig):
    """Exhaustive mode's units of the search, (candidates examined, probe
    hits among them): one per (theta, theta*) pair, in lexicographic
    (theta, theta*, phi) order, read off _pair_hits's table.  The space of
    perm(q, d + 1)^2 (q - 1)^d candidates is refused above the cap before
    the field is enumerated, so a field too large to list is refused at
    once, and an empty space (q < d + 1) lists nothing."""
    spec, d, q = cfg.spec, cfg.d, cfg.spec.order
    per_pair = (q - 1) ** d
    count = math.perm(q, d + 1) ** 2 * per_pair
    if count > cfg.exhaustive_cap:
        raise BudgetExceededError(f"exhaustive count {count} exceeds cap {cfg.exhaustive_cap}")
    if q < d + 1:
        return
    thetas = tuple(itertools.permutations(_elements(spec)[0], d + 1))
    phis, hits = _pair_hits(spec, d, thetas)
    for c, th in enumerate(thetas):
        for cs, ths in enumerate(thetas):
            yield per_pair, [(th, ths, phis[f]) for f in hits[c * len(thetas) + cs]]


def _random_units(cfg: SearchConfig):
    """Random mode's units of the search: one yield per probe hit, with the
    candidates drawn since the last one, and a final yield of the rest:
    the loop over candidates is left only at a hit, which still reaches
    the oracle (and, if it is a counterexample, the report file) before
    the next draw.  Where the field's perm(q, d + 1) eigenvalue sequences
    fit the memo, it draws codes (_random_codes) and looks each candidate
    up in _pair_hits's table (_code_tables), so it builds and probes
    nothing but the hits.  Otherwise it probes every candidate, and reads
    only the drawn indices of the field's elements, so it indexes them
    (_indexed_elements) and never lists the field."""
    spec, d, q = cfg.spec, cfg.d, cfg.spec.order
    if q < d + 1:
        return  # no d + 1 distinct eigenvalues exist: the space is empty
    if math.perm(q, d + 1) <= _MEMO_SIZE:
        samples, phis, hits = _code_tables(spec, d)
        found = ((i, (samples[c], samples[cs], phis[f])) for i, c, cs, f in _random_codes(
            cfg.seed, q, q - 1, d, cfg.trials, hits))
    else:
        elems, nonzero = _indexed_elements(spec)
        probe = _pattern_probe(spec, d)
        found = ((i, c) for i, c in enumerate(
            _random_candidates(cfg.seed, elems, nonzero, d, cfg.trials), 1) if probe(*c))
    last = 0
    for i, c in found:
        yield i - last, [c]
        last = i
    yield max(cfg.trials, 0) - last, ()


_UNITS = {"exhaustive": _exhaustive_units, "random": _random_units}
SEARCH_MODES = tuple(_UNITS)


def _sample_bounds(n, k) -> list:
    """(bound, width) of sample(population of n, k)'s draws in the pool
    method: the i-th draw is below n - i, in getrandbits(width) words."""
    return [(b, b.bit_length()) for b in range(n, n - k, -1)]


def _pool_sample(elems, bounds, draw) -> tuple:
    """CPython's sample by the pool method, each draw below its bound b
    made by draw(width) and redrawn while >= b: the pool's last unselected
    element moves into the vacancy."""
    pool, out = list(elems), []
    for b, width in bounds:
        j = draw(width)
        while j >= b:
            j = draw(width)
        out.append(pool[j])
        pool[j] = pool[b - 1]
    return tuple(out)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _code_tables(spec, d: int) -> tuple:
    """(samples, phis, hits): random mode's tables over a field whose
    perm(q, d + 1) eigenvalue sequences fit the memo, built on first use,
    once per (field, d) while the memo keeps them.

    samples and phis hold every sample of d + 1 elements and every phi at
    the mixed-radix code of its draws (see _random_candidates and
    _random_codes).  A sample's accepted draws j_0..j_{k-1} (k = d + 1, all
    by the pool method, since with k >= 4 the sequences fit the memo only
    for n <= 5 elements) fold into ((j_0 b_1 + j_1) b_2 + ...) b_{k-1} +
    j_{k-1} with b_i = n - i, and samples is the pool rule run on every
    digit tuple in code order, so code -> samples[code] is the pool
    method's bijection onto the perm(n, k) sequences.  phi's d accepted
    choice draws, each below m nonzero elements, fold into ((j_1 m + j_2) m
    + ...) m + j_d, and phis is product(nonzero, repeat=d), whose code-th
    tuple is (nonzero[j_1], ..., nonzero[j_d]).  phis and hits are
    _pair_hits's over samples, so the candidate of codes (c, c*, f) is a
    probe hit exactly when f is in hits[c len(samples) + c*]."""
    elems = _elements(spec)[0]
    bounds = _sample_bounds(len(elems), d + 1)
    samples = tuple(_pool_sample(elems, bounds, lambda width, it=iter(js): next(it))
                    for js in itertools.product(*(range(b) for b, _ in bounds)))
    return (samples, *_pair_hits(spec, d, samples))


def _random_codes(seed, n, m, d, trials, hits):
    """The codes (c, c*, f) of random mode's candidates (samples[c],
    samples[c*], phis[f]) over a field of n elements, m nonzero, whose
    perm(n, d + 1) sequences fit the memo, drawn on the getrandbits stream
    of _random_candidates: each accepted digit j below its bound b (the
    pool method's for theta and theta*, m for each phi_t) folds into its
    code as code * b + j.  Yields (trial number from 1, c, c*, f) for each
    candidate that is a probe hit, f in hits[c perm(n, d + 1) + c*] (see
    _code_tables); the rest build nothing."""
    getrandbits = random.Random(seed).getrandbits
    bounds, width, stride = _sample_bounds(n, d + 1), m.bit_length(), math.perm(n, d + 1)
    for i in range(1, trials + 1):
        c = cs = f = 0
        for b, w in bounds:
            j = getrandbits(w)
            while j >= b:
                j = getrandbits(w)
            c = c * b + j
        for b, w in bounds:
            j = getrandbits(w)
            while j >= b:
                j = getrandbits(w)
            cs = cs * b + j
        for _ in range(d):
            j = getrandbits(width)
            while j >= m:
                j = getrandbits(width)
            f = f * m + j
        if f in hits[c * stride + cs]:
            yield i, c, cs, f


def _random_candidates(seed, elems, nonzero, d, trials):
    """The seeded random candidates (theta, theta*, phi), one per trial:
    theta and theta* are Random(seed).sample(elems, d + 1) and each phi_t
    is Random(seed).choice(nonzero), drawn in that order.

    The draws are CPython's own, made here on the same getrandbits stream,
    so every candidate equals its sample/choice counterpart.  A draw below
    m is _randbelow(m): getrandbits(m.bit_length()), redrawn while >= m.
    sample picks one of two methods from (n, k) = (len(elems), d + 1): it
    keeps a pool of unselected elements when n <= setsize (the i-th draw is
    below n - i and the pool's last element moves into the vacancy), and a
    set of selected indices otherwise (each draw is below n, redrawn while
    already selected).  setsize is sample's: 21, plus 4 ** ceil(log(3k, 4))
    when k > 5.  Bounds, widths and the method are fixed once per search.
    elems and nonzero may be any sequences (_indexed_elements's, say): the
    set method only indexes them, and the pool method lists them once.
    Over a field whose perm(n, k) sequences fit the memo, random mode's
    search draws the same words as codes (_random_codes); this draw is the
    independent reference for that path.
    """
    n, k, m = len(elems), d + 1, len(nonzero)
    getrandbits = random.Random(seed).getrandbits
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    phi_bounds = [(m, m.bit_length())] * d

    def phi():
        out = []
        for b, width in phi_bounds:
            j = getrandbits(width)
            while j >= b:
                j = getrandbits(width)
            out.append(nonzero[j])
        return tuple(out)

    if n <= setsize:
        # the pool copies the whole field per sample, so list a small one once
        elems, nonzero = list(elems), list(nonzero)
        sample = functools.partial(_pool_sample, elems, _sample_bounds(n, k), getrandbits)
    else:
        width = n.bit_length()

        def sample():
            selected, out = set(), []
            for _ in range(k):
                j = getrandbits(width)
                while j >= n or j in selected:
                    j = getrandbits(width)
                selected.add(j)
                out.append(elems[j])
            return tuple(out)
    for _ in range(trials):
        yield sample(), sample(), phi()


def search(cfg: SearchConfig) -> SearchReport:
    """Deterministic search; identical configs give byte-identical reports.

    Exit-status semantics live in the CLI: a nonempty counterexample list is
    a mathematical finding, not an artifact failure.
    """
    spec = cfg.spec
    if cfg.mode not in SEARCH_MODES:
        raise UnknownSearchModeError(
            f"unknown search mode {cfg.mode!r} (expected one of {SEARCH_MODES})"
        )
    if spec.order is None:
        raise UnsupportedFieldError("search requires a finite field")
    if cfg.d < 3:
        raise DimensionMismatchError("search needs d >= 3")
    report = SearchReport(config=cfg.to_json())
    histogram: dict[str, int] = {}
    for examined, hits in _UNITS[cfg.mode](cfg):
        report.candidates_examined += examined
        for th, ths, ph in hits:
            params = ParameterArray._trusted(spec, th, ths, ph)
            if not verify_ch_axioms(split_form_build(params)).is_ch:
                raise InternalContradictionError(
                    "the exact probe accepted an array the axiom oracle "
                    f"rejects: {json.dumps(params.to_json(), sort_keys=True)}"
                )
            report.ch_systems_found += 1
            status = recurrence_status(params)
            if status.recurrent:
                report.recurrent_count += 1
                for b in status.betas:
                    key = str(b)
                    histogram[key] = histogram.get(key, 0) + 1
            else:
                entry = params.to_json()
                report.counterexamples.append(entry)
                if cfg.report_path:
                    path = Path(cfg.report_path).with_suffix(".counterexamples.json")
                    path.write_text(dump_json(report.counterexamples))
    report.beta_histogram = dict(sorted(histogram.items()))
    if cfg.report_path:
        Path(cfg.report_path).write_bytes(report.to_bytes())
    return report


def replay(params: ParameterArray) -> dict:
    """Run the full pipeline on one array and emit a single JSON bundle:
    axiom verification, recurrence, tridiagonal witness, family
    classification, basis identities, and the invariant-subspace check.
    Classification contradictions are surfaced verbatim, never swallowed."""
    bundle: dict = {"parameter_array": params.to_json(), "ok": True}
    system = split_form_build(params)
    outcome = verify_ch_axioms(system)
    bundle["verify"] = outcome.to_json()
    if not outcome.is_ch:
        bundle["ok"] = False
        bundle["skipped"] = ["recurrence", "classification", "bases"]
        return bundle
    status = recurrence_status(params)
    bundle["recurrence"] = status.to_json()
    if status.recurrent:
        bundle["tridiagonal_witness"] = td_witness(system, status.betas[0]).to_json()
    try:
        cls = families.classify_family(params)
        bundle["classification"] = cls.to_json()
    except InternalContradictionError as e:
        bundle["classification"] = {"error": "InternalContradiction", "detail": str(e)}
        bundle["ok"] = False
    except (NotRecurrentError, NotCircularError) as e:
        bundle["classification"] = {"error": type(e).__name__, "detail": str(e)}
    try:
        catalog, scalars = bases.build_basis_catalog(system)
        bases_info = {"normalization": scalars.to_json()}
        entries = bases.standard_form_entries(catalog)
        bases_info["standard_form"] = entries.to_json()
        if status.recurrent:
            psi, psi_star = bases.psi_check(params)
            bases_info["psi"] = str(psi)
            bases_info["psi_star"] = str(psi_star)
        bundle["bases"] = bases_info
    except CircHessError as e:
        bundle["bases"] = {"error": type(e).__name__, "detail": str(e)}
        bundle["ok"] = False
    seed = Vector.unit(params.spec, params.d + 1, 0)
    bundle["irreducible"] = cyclic_irreducibility_check(system, seed)
    vth = vartheta_from_array(params)
    bundle["vartheta"] = [str(v) for v in vth.values]
    return bundle
