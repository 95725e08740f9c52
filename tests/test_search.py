"""Conjecture search: probe equivalence, determinism, exhaustive runs, replay."""

import hashlib
import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from circhess import (
    Family,
    FieldElement,
    ParameterArray,
    RecurrenceStatus,
    SearchConfig,
    SearchReport,
    family_generate,
    field_from_json,
    field_from_string,
    iter_family_instances,
    prime_field,
    quotient_extension,
    recurrence_status,
    replay,
    search,
    split_form_build,
    verify_ch_axioms,
)
from circhess.errors import (
    BudgetExceededError,
    UnknownSearchModeError,
    UnsupportedFieldError,
)
from circhess.search import (
    SEARCH_MODES,
    _code_tables,
    _elements,
    _exhaustive_units,
    _indexed_elements,
    _pair_hits,
    _probe_forms,
    _random_candidates,
    _random_codes,
    _solve_pair,
    _split_pattern_probe,
    _theta_forms,
    _upper_pattern,
)
from circhess.systems import _MEMO_SIZE, _unit_chain_eigenvectors


def test_probe_equals_full_oracle(gf5):
    """The division-free screen and the idempotent-product oracle agree on
    a large random batch (both hits and misses)."""
    rng = random.Random(99)
    hits = 0
    for _ in range(1500):
        th = tuple(rng.sample(range(5), 4))
        ths = tuple(rng.sample(range(5), 4))
        ph = tuple(rng.choice([1, 2, 3, 4]) for _ in range(3))
        probe = _split_pattern_probe(gf5, th, ths, ph, 3)
        p = ParameterArray.make(gf5, th, ths, ph)
        full = verify_ch_axioms(split_form_build(p)).is_ch
        assert probe == full
        hits += full
    assert hits > 0  # the batch saw actual systems


def test_probe_equals_oracle_d4(gf7):
    rng = random.Random(3)
    for _ in range(300):
        th = tuple(rng.sample(range(7), 5))
        ths = tuple(rng.sample(range(7), 5))
        ph = tuple(rng.choice(range(1, 7)) for _ in range(4))
        probe = _split_pattern_probe(gf7, th, ths, ph, 4)
        p = ParameterArray.make(gf7, th, ths, ph)
        full = verify_ch_axioms(split_form_build(p)).is_ch
        assert probe == full


@pytest.mark.parametrize("family, field, d", [
    ("F1", "gf:11", 4),
    ("F1", "gf:7", 5),
    ("F2", "gf:5", 4),
    ("F3", "ext:gf:3:1,0,1", 5),
])
def test_probe_equals_oracle_near_family_systems(family, field, d):
    """Random d >= 4 candidates are almost never systems, so start from
    family systems: each array, its one-entry phi perturbations, its
    rotated theta* and its reversed theta, probe == oracle on every one."""
    spec = field_from_string(field)
    nonzero = [e for e in spec.element_payloads() if not spec.is_zero(e)]
    rng = random.Random(f"{family}/{field}/{d}")
    hits = misses = 0
    for fp in iter_family_instances(Family(family), spec, d, 3):
        p = family_generate(fp)
        th = tuple(e.payload for e in p.theta)
        ths = tuple(e.payload for e in p.theta_star)
        ph = tuple(e.payload for e in p.phi)
        variants = [(th, ths, ph), (th, ths[1:] + ths[:1], ph), (th[::-1], ths, ph)]
        for k in range(d):
            other = rng.choice([x for x in nonzero if x != ph[k]])
            variants.append((th, ths, ph[:k] + (other,) + ph[k + 1:]))
        for v in variants:
            probe = _split_pattern_probe(spec, *v, d)
            full = verify_ch_axioms(split_form_build(_payload_array(spec, *v))).is_ch
            assert probe == full
            hits += full
            misses += not full
    assert hits >= 3 and misses > 0


def _payload_array(spec, th, ths, ph):
    """A parameter array from raw payloads, as the search enumerates them."""
    return ParameterArray(
        spec,
        len(th) - 1,
        tuple(FieldElement(spec, x) for x in th),
        tuple(FieldElement(spec, x) for x in ths),
        tuple(FieldElement(spec, x) for x in ph),
    )


@pytest.mark.parametrize("field", ["gf4", "gf9"])
def test_probe_equals_oracle_extension_fields(request, field):
    """Probe and oracle agree on tuple payloads: on an unbiased random batch,
    then on further probe hits until a few of them were confirmed."""
    spec = request.getfixturevalue(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    rng = random.Random(17)
    checked = hits = 0
    while checked < 150 or hits < 5:
        th = tuple(rng.sample(elems, 4))
        ths = tuple(rng.sample(elems, 4))
        ph = tuple(rng.choice(nonzero) for _ in range(3))
        probe = _split_pattern_probe(spec, th, ths, ph, 3)
        if checked >= 150 and not probe:
            continue
        system = split_form_build(_payload_array(spec, th, ths, ph))
        full = verify_ch_axioms(system).is_ch
        assert probe == full
        checked += 1
        hits += full


def test_search_extension_field_completes(gf4):
    """Random search over GF(4) reaches the oracle and finishes."""
    cfg = SearchConfig(gf4, 3, "random", seed=3, trials=300)
    rep = search(cfg)
    assert rep.candidates_examined == 300
    assert rep.ch_systems_found == rep.recurrent_count > 0
    assert rep.counterexamples == []
    assert search(cfg).to_bytes() == rep.to_bytes()


def test_small_field_random_matches_exhaustive(gf4):
    """With |F| < d + 1 no eigenvalue sequence has d + 1 distinct entries:
    random and exhaustive mode return the same empty report."""
    for spec, d in ((prime_field(2), 3), (prime_field(3), 3), (gf4, 4)):
        ex = search(SearchConfig(spec, d, "exhaustive")).to_json()
        rnd = search(SearchConfig(spec, d, "random", seed=1, trials=50)).to_json()
        del ex["config"], rnd["config"]
        assert rnd == ex == {
            "candidates_examined": 0,
            "ch_systems_found": 0,
            "recurrent_count": 0,
            "beta_histogram": {},
            "counterexamples": [],
        }


def test_search_deterministic(gf5):
    cfg = SearchConfig(gf5, 3, "random", seed=7, trials=2000)
    r1 = search(cfg)
    r2 = search(cfg)
    assert r1.to_bytes() == r2.to_bytes()
    assert r1.candidates_examined == 2000
    assert r1.ch_systems_found == r1.recurrent_count  # no counterexamples
    assert r1.counterexamples == []


def test_search_seed_changes_stream(gf5):
    a = search(SearchConfig(gf5, 3, "random", seed=1, trials=500))
    b = search(SearchConfig(gf5, 3, "random", seed=2, trials=500))
    assert a.to_bytes() != b.to_bytes()


def _reference_draws(seed, elems, nonzero, d, trials):
    """Random mode's candidates drawn with rng.sample and rng.choice: the
    reference for _random_candidates."""
    rng = random.Random(seed)
    return [(tuple(rng.sample(elems, d + 1)), tuple(rng.sample(elems, d + 1)),
             tuple(rng.choice(nonzero) for _ in range(d)))
            for _ in range(trials)]


@pytest.mark.parametrize("field, d, set_method", [
    ("gf:5", 3, False),
    ("gf:5", 4, False),
    ("gf:7", 3, False),
    ("ext:gf:2:1,1,1", 3, False),
    ("ext:gf:3:1,0,1", 3, False),
    ("gf:31", 6, False),
    ("gf:277", 21, False),
    ("gf:23", 3, True),
    ("gf:31", 4, True),
    ("ext:gf:2:1,0,1,0,0,1", 3, True),
    ("gf:97", 8, True),
])
def test_random_candidates_equal_sample_and_choice(field, d, set_method):
    """The inline draws equal rng.sample / rng.choice candidate for
    candidate over 60 seeds, in both of sample's methods: a pool of
    unselected elements when |F| <= setsize, a set of selected indices
    otherwise (setsize is 21 for d + 1 <= 5, 85 for d + 1 = 7 or 9 and 277
    for d + 1 = 22, so GF(31) takes the pool at d = 6 and the set at d = 4,
    and GF(277) at d = 21 sits on the boundary).  GF(32) makes the set
    method's width a power of two.  Short runs over the set-method
    fields have no hits, so their report bytes cannot show a wrong draw;
    this test can."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    k = d + 1
    setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
    assert (len(elems) > setsize) == set_method
    for seed in range(60):
        got = list(_random_candidates(seed, elems, nonzero, d, 30))
        assert got == _reference_draws(seed, elems, nonzero, d, 30)


class _ScriptedRandom(random.Random):
    """A Random whose getrandbits returns the scripted values in turn, so
    its sample() runs CPython's own pool rule on chosen indices."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def getrandbits(self, k):
        return next(self.values)


@pytest.mark.parametrize("field, d", [
    ("ext:gf:2:1,1,1", 3), ("gf:5", 3), ("gf:5", 4),
])
def test_samples_by_index_are_the_pool_rule(monkeypatch, field, d):
    """Where the perm(q, d + 1) eigenvalue sequences fit the memo, theta is
    read off a list by the mixed-radix code of its accepted draws, and so is
    phi.  Fed every digit tuple in code order (each digit below its bound,
    so none is rejected), theta runs through the perm(q, d + 1) sequences
    once each, and each equals what CPython's sample makes of the same
    digits; phi runs through product(nonzero, repeat=d) once each, in that
    order, and each equals d of CPython's choice on the same digits.  The
    digits go through _random_codes, with a hit table in which every
    candidate is a hit, and are read off the lists of _code_tables."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    k = d + 1
    n = len(elems)
    codes = list(itertools.product(*(range(b) for b in range(n, n - k, -1))))
    assert len(codes) == math.perm(n, k) <= _MEMO_SIZE
    phi_codes = list(itertools.product(range(len(nonzero)), repeat=d))
    trials = max(len(codes), len(phi_codes))
    # per candidate: theta's digits, theta*'s (code 0) and phi's, each code
    # list in code order, cycled up to the longer one
    script = [j for c in range(trials) for j in codes[c % len(codes)] + codes[0]
              + phi_codes[c % len(phi_codes)]]
    search_mod = importlib.import_module("circhess.search")
    monkeypatch.setattr(search_mod, "random", SimpleNamespace(
        Random=lambda seed: _ScriptedRandom(script)))
    samples, phi_list, _ = _code_tables(spec, d)
    every = [range(len(phi_list))] * len(samples) ** 2
    got = [(samples[c], samples[cs], phi_list[f]) for _, c, cs, f in _random_codes(
        0, n, len(nonzero), d, trials, every)]
    thetas = [th for th, _, _ in got[:len(codes)]]
    assert thetas == [tuple(_ScriptedRandom(digits).sample(elems, k)) for digits in codes]
    assert set(thetas) == set(itertools.permutations(elems, k))
    phis = [ph for _, _, ph in got[:len(phi_codes)]]
    choices = [_ScriptedRandom(digits) for digits in phi_codes]
    assert phis == [tuple(r.choice(nonzero) for _ in range(d)) for r in choices]
    assert phis == list(itertools.product(nonzero, repeat=d))


_WORD = object()


class _RecordingRandom(random.Random):
    """A Random that appends _WORD to `events` at each getrandbits call;
    every call here asks for at most 32 bits, so each draws one word."""

    def __init__(self, seed, events):
        super().__init__(seed)
        self.events = events

    def getrandbits(self, k):
        self.events.append(_WORD)
        return super().getrandbits(k)


@pytest.mark.parametrize("field, d, hits", [("gf:5", 4, 3), ("gf:7", 3, 25)])
def test_random_hits_reach_oracle_before_next_draw(monkeypatch, field, d, hits):
    """Random mode hands each probe hit to the oracle as soon as it is
    drawn, on the table path (GF(5), d = 4, which draws codes and looks
    them up) and on the lazy one (GF(7), d = 3), recorded at the getrandbits
    level: split_form_build sees each hit once the last word of its trial
    is drawn and before the next word, and the search draws exactly the
    words of rng.sample and rng.choice."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    ref_words = []
    rng = _RecordingRandom(2, ref_words)
    # words drawn by the end of each trial -> that trial's candidate
    ends = {}
    for _ in range(4000):
        c = (tuple(rng.sample(elems, d + 1)), tuple(rng.sample(elems, d + 1)),
             tuple(rng.choice(nonzero) for _ in range(d)))
        ends[len(ref_words)] = c
    events = []

    def build(params):
        events.append(tuple(tuple(e.payload for e in seq) for seq in (
            params.theta, params.theta_star, params.phi)))
        return split_form_build(params)

    search_mod = importlib.import_module("circhess.search")
    monkeypatch.setattr(search_mod, "random", SimpleNamespace(
        Random=lambda seed: _RecordingRandom(seed, events)))
    monkeypatch.setattr(search_mod, "split_form_build", build)
    rep = search(SearchConfig(spec, d, "random", 2, 4000))
    words, built = 0, 0
    for e in events:
        if e is _WORD:
            words += 1
        else:
            assert ends.get(words) == e
            built += 1
    assert words == len(ref_words)
    assert built == rep.ch_systems_found == hits


@pytest.mark.parametrize("field, d, seed, trials, prefix, hits", [
    ("gf:5", 3, 7, 2000, "a4c7f3e07205c517", 26),
    ("gf:7", 3, 1, 5000, "a1d214be915f6b93", 38),
    ("ext:gf:2:1,1,1", 3, 3, 2000, "8b93a807bd2e2328", 263),
    ("ext:gf:3:1,0,1", 3, 2, 3000, "15d0085e750a52c4", 4),
    ("gf:5", 4, 3, 4000, "6198d17774da7684", 0),
    ("gf:5", 4, 1, 40000, "f75dedae7958f17a", 15),
])
def test_random_report_bytes_pinned(field, d, seed, trials, prefix, hits):
    """A seed's random-mode report is pinned by the SHA-256 prefix of its
    bytes, taken when the candidates were drawn with rng.sample and
    rng.choice."""
    rep = search(SearchConfig(field_from_string(field), d, "random", seed, trials))
    assert rep.ch_systems_found == hits
    assert hashlib.sha256(rep.to_bytes()).hexdigest()[:16] == prefix


def test_exhaustive_small_fields_complete():
    """Four distinct eigenvalues cannot exist in GF(2) or GF(3), so the
    exhaustive d = 3 spaces are empty and the runs complete instantly."""
    for p in (2, 3):
        rep = search(SearchConfig(prime_field(p), 3, "exhaustive"))
        assert rep.candidates_examined == 0
        assert rep.ch_systems_found == 0
        assert rep.counterexamples == []


def test_exhaustive_budget_gate(gf5):
    with pytest.raises(BudgetExceededError):
        search(SearchConfig(gf5, 3, "exhaustive", exhaustive_cap=100))


def test_exhaustive_budget_refuses_before_any_unit(tmp_path):
    """The cap refuses with the space's count, before any unit is examined
    or any file written: an empty space (GF(3), d = 3) counts 0."""
    with pytest.raises(BudgetExceededError, match=r"^exhaustive count 0 exceeds cap -1$"):
        search(SearchConfig(prime_field(3), 3, "exhaustive", exhaustive_cap=-1))
    path = tmp_path / "report.json"
    with pytest.raises(BudgetExceededError, match=r"^exhaustive count 921600 exceeds cap 100$"):
        search(SearchConfig(prime_field(5), 3, "exhaustive", exhaustive_cap=100,
                            report_path=str(path)))
    assert list(tmp_path.iterdir()) == []


def test_exhaustive_budget_refuses_before_listing_the_field(monkeypatch):
    """Over GF(10^9 + 9) the default cap refuses without enumerating the
    field's elements, which would not fit in memory."""
    spec = prime_field(10**9 + 9)
    monkeypatch.setattr(type(spec), "element_payloads",
                        lambda self: pytest.fail("the field was enumerated"))
    with pytest.raises(BudgetExceededError):
        search(SearchConfig(spec, 3, "exhaustive"))


def test_random_lazy_path_indexes_the_field(monkeypatch):
    """Random mode's lazy path reads only drawn indices, so 10 trials over
    GF(2,000,003) run without enumerating the field's elements."""
    spec = prime_field(2_000_003)
    monkeypatch.setattr(type(spec), "element_payloads",
                        lambda self: pytest.fail("the field was enumerated"))
    rep = search(SearchConfig(spec, 3, "random", seed=1, trials=10))
    assert rep.candidates_examined == 10


def test_indexed_elements_equal_the_listed_ones(gf4):
    """Over prime fields, extensions and a tower, the indexed sequences
    hold _elements's payloads in the same order, zero first."""
    one = gf4.one_element()
    tower = quotient_extension(gf4, [gf4.generator(), one, one], gen="s")
    for spec in (prime_field(7), field_from_string("ext:gf:3:1,0,1"), gf4, tower):
        elems, nonzero = _indexed_elements(spec)
        assert (list(elems), list(nonzero)) == _elements(spec)
        assert elems[0] == spec.zero
        with pytest.raises(IndexError):
            elems[len(elems)]


def test_search_over_a_tower(gf4):
    """A field with no descriptor string, such as the tower GF(16) =
    GF(4)[s]/(s^2 + s + w), is searched like any other, and its report
    carries the field as its JSON document, which reads back."""
    one = gf4.one_element()
    spec = quotient_extension(gf4, [gf4.generator(), one, one], gen="s")
    rep = search(SearchConfig(spec, 3, "random", seed=1, trials=4000))
    assert (rep.candidates_examined, rep.ch_systems_found, rep.recurrent_count) == (4000, 1, 1)
    assert rep.config["field"] == spec.to_json()
    assert field_from_json(rep.config["field"]) == spec


def test_search_needs_finite_field():
    from circhess import rationals

    with pytest.raises(UnsupportedFieldError):
        search(SearchConfig(rationals(), 3, "random", trials=10))


def test_report_file_roundtrip(tmp_path, gf5):
    path = tmp_path / "report.json"
    cfg = SearchConfig(gf5, 3, "random", seed=42, trials=500,
                       report_path=str(path))
    rep = search(cfg)
    on_disk = json.loads(path.read_text())
    assert on_disk == rep.to_json()


def test_exhaustive_gf5_slice_contains_w5(gf5, w5_array):
    """Slice of the exhaustive enumeration with theta = theta* fixed to the
    fixture's: its split tuple appears among the verified hits."""
    th = tuple(e.payload for e in w5_array.theta)
    hits = []
    import itertools

    for ph in itertools.product([1, 2, 3, 4], repeat=3):
        if _split_pattern_probe(gf5, th, th, ph, 3):
            p = ParameterArray.make(gf5, th, th, ph)
            if verify_ch_axioms(split_form_build(p)).is_ch:
                from circhess import Family, classify_family, recurrence_status

                assert recurrence_status(p).recurrent
                assert classify_family(p).family is Family.F1_GENERIC_Q
                hits.append(ph)
    assert (3, 2, 4) in hits


def _reference_candidates(spec, d, pairs=None):
    """Every candidate of the exhaustive space, phi enumerated in full, in
    the search's lexicographic (theta, theta*, phi) order; with `pairs`,
    only those (theta, theta*) pairs.  The reference for the solver."""
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    if pairs is None:
        perms = list(itertools.permutations(elems, d + 1))
        pairs = itertools.product(perms, perms)
    for th, ths in pairs:
        for ph in itertools.product(nonzero, repeat=d):
            yield th, ths, ph


def _reference_hits(spec, d, pairs=None):
    return [c for c in _reference_candidates(spec, d, pairs)
            if _split_pattern_probe(spec, *c, d)]


@pytest.mark.parametrize("field", ["gf:5", "ext:gf:2:1,1,1"])
def test_solver_hits_equal_probe_hits_full_space(field):
    """Over the whole d = 3 space, the per-pair solve yields exactly the
    probe's hits, in the same order, and counts every candidate."""
    spec = field_from_string(field)
    examined, hits = 0, []
    for n, pair_hits in _exhaustive_units(SearchConfig(spec, 3, "exhaustive")):
        examined += n
        hits += pair_hits
    assert examined == sum(1 for _ in _reference_candidates(spec, 3))
    assert hits == _reference_hits(spec, 3)
    assert len(hits) == {"gf:5": 15_200, "ext:gf:2:1,1,1": 2_304}[field]


@pytest.mark.parametrize("field, d, family", [
    ("gf:7", 4, None),
    ("ext:gf:3:1,0,1", 3, None),
    ("ext:gf:3:1,0,1", 3, "F1"),
    ("gf:5", 4, "F2"),
])
def test_solver_hits_equal_probe_hits_per_pair(field, d, family):
    """Per (theta, theta*) pair, the solve equals the probe over all phi:
    on seeded random pairs, and on the pairs of family systems (with their
    rotations of theta*), where the hit sets are not empty."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    rng = random.Random(f"{field}/{d}/{family}")
    if family is None:
        pairs = [(tuple(rng.sample(elems, d + 1)), tuple(rng.sample(elems, d + 1)))
                 for _ in range(12)]
    else:
        pairs = []
        for fp in iter_family_instances(Family(family), spec, d, 4):
            p = family_generate(fp)
            th = tuple(e.payload for e in p.theta)
            ths = tuple(e.payload for e in p.theta_star)
            pairs += [(th, ths), (th, ths[1:] + ths[:1])]
    total = 0
    for th, ths in pairs:
        want = [ph for _, _, ph in _reference_hits(spec, d, [(th, ths)])]
        assert _solve_pair(spec, th, ths, d, nonzero) == want
        total += len(want)
    assert total > 0 or family is None


def test_solver_hits_equal_probe_hits_on_one_theta_slice(gf5):
    """Per pair, the solve equals the probe over all phi on the 120 GF(5),
    d = 3 pairs with theta = (0, 1, 3, 2), 20 of which have hits that a
    solver reading phi's coefficients in reverse order gets wrong: a fast
    guard of phi's orientation in the solver, beside the full-space test."""
    nonzero = [e for e in gf5.element_payloads() if not gf5.is_zero(e)]
    th, total = (0, 1, 3, 2), 0
    for ths in itertools.permutations(gf5.element_payloads(), 4):
        want = [ph for _, _, ph in _reference_hits(gf5, 3, [(th, ths)])]
        assert _solve_pair(gf5, th, ths, 3, nonzero) == want
        total += len(want)
    assert total > 0


@pytest.mark.parametrize("field", ["gf:5", "gf:13", "ext:gf:2:1,1,1", "ext:gf:3:1,0,1"])
def test_theta_forms_match_probe_forms(field):
    """The exhaustive solver's table (_theta_forms, read off the unit-chain
    eigenvectors) equals random mode's lazy recurrence (_probe_forms)
    entry by entry, payload for payload, on seeded thetas for every
    d = 3..6 the field has room for: each entry is (must_zero, form,
    dual_form), whose dual_form is form with its phi coefficients
    reversed."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    rng = random.Random(f"forms/{field}")
    checked = 0
    for d in range(3, min(6, len(elems) - 1) + 1):
        for _ in range(6):
            theta = tuple(rng.sample(elems, d + 1))
            lazy = tuple(_probe_forms(spec, theta, d))
            table = _theta_forms(spec, theta)
            assert len(table) == len(lazy) > 0
            for (mz, form, dual_form), entry in zip(table, lazy):
                assert (mz, form, dual_form) == entry
                # vu || coeffs and vu || reversed(coeffs)
                assert len(form) == 2 * d + 1
                assert dual_form == form[:d + 1] + form[d + 1:][::-1]
            checked += 1
    assert checked == 6 * (min(6, len(elems) - 1) - 2)


@pytest.mark.parametrize("field", ["gf:5", "gf:13", "ext:gf:2:1,1,1"])
def test_dual_forms_are_the_e_side_of_the_dual_array(field):
    """dual_form . (theta || phi), from theta*'s table, is the E side of
    ParameterArray.dual() entry by entry: the same scalar as the dual
    array's own form at (theta, phi reversed), and zero exactly when
    E_i A* E_j of the dual's split form is the zero matrix.  Checked on
    seeded arrays, systems or not, for every d = 3..5 the field has room
    for."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    rng = random.Random(f"dual-forms/{field}")
    zeros = set()
    for d in range(3, min(5, len(elems) - 1) + 1):
        for _ in range(4):
            th, ths = tuple(rng.sample(elems, d + 1)), tuple(rng.sample(elems, d + 1))
            ph = tuple(rng.choice(nonzero) for _ in range(d))
            dual = ParameterArray._trusted(spec, th, ths, ph).dual()
            point = tuple(e.payload for e in dual.theta_star + dual.phi)
            t = split_form_build(dual)
            for (i, j, _), (_, form, dual_form) in zip(
                    _upper_pattern(d + 1), _theta_forms(spec, ths)):
                got = spec.dot(dual_form, th + ph)
                assert got == spec.dot(form, point)
                zero = (t.E[i] * t.A_star * t.E[j]).is_zero()
                assert spec.is_zero(got) == zero
                zeros.add(zero)
    assert zeros == {True, False}


def test_trusted_hit_arrays_equal_validated_ones(gf4):
    """The arrays search() builds from certified hits without validation
    equal, hash and serialize as the validated public construction of the
    same payloads, over all 2,304 GF(4), d = 3 solver hits."""
    elems = list(gf4.element_payloads())
    nonzero = [e for e in elems if not gf4.is_zero(e)]
    count = 0
    for th in itertools.permutations(elems, 4):
        for ths in itertools.permutations(elems, 4):
            for ph in _solve_pair(gf4, th, ths, 3, nonzero):
                trusted = ParameterArray._trusted(gf4, th, ths, ph)
                public = ParameterArray(gf4, 3, *(
                    tuple(FieldElement(gf4, x) for x in seq) for seq in (th, ths, ph)))
                assert trusted == public and hash(trusted) == hash(public)
                assert trusted.to_json() == public.to_json()
                count += 1
    assert count == 2304


def _recorded_solves(monkeypatch):
    """Record the (theta, theta*) pair of every _solve_pair call that the
    search module makes, in a list, which is returned."""
    search_mod = importlib.import_module("circhess.search")
    calls = []

    def solve(spec, theta, theta_star, d, nonzero):
        calls.append((theta, theta_star))
        return _solve_pair(spec, theta, theta_star, d, nonzero)

    monkeypatch.setattr(search_mod, "_solve_pair", solve)
    return calls


def test_exhaustive_search_builds_each_table_once(monkeypatch, gf4):
    """One GF(4), d = 3 exhaustive search solves only its perm(2, 2)^2 = 4
    normalized pairs (theta_0 = theta*_0 = 0, theta_1 = theta*_1 = 1), not
    its 576 (theta, theta*) pairs, and builds the unit-chain eigenvector
    table of each of its perm(4, 4) = 24 eigenvalue sequences once, across
    2,304 hits: the oracle's builds read theta reversed, which runs over
    all 24 sequences, and the solver's reads tables already there or kept
    for them.  The memo is bounded, and holds a whole search within the
    default cap (at most perm(5, 5) sequences)."""
    assert _unit_chain_eigenvectors.cache_info().maxsize == _MEMO_SIZE >= math.perm(5, 5)
    solves = _recorded_solves(monkeypatch)
    _unit_chain_eigenvectors.cache_clear()
    rep = search(SearchConfig(gf4, 3, "exhaustive"))
    assert rep.ch_systems_found == 2_304
    assert len(solves) == len(set(solves)) == math.perm(2, 2) ** 2
    assert all(seq[:2] == (gf4.zero, gf4.one) for pair in solves for seq in pair)
    assert _unit_chain_eigenvectors.cache_info().misses == math.perm(4, 4)


def _memo_oracle(monkeypatch):
    """Memoize search()'s split_form_build and verify_ch_axioms, and return
    the memo of builds with the memoized verdict: an oracle verdict depends
    on the array alone, so a reference loop and search() can share one
    memo."""
    search_mod = importlib.import_module("circhess.search")
    built, verified = {}, {}

    def build(params):
        if params not in built:
            built[params] = split_form_build(params)
        return built[params]

    def verify(system):
        if id(system) not in verified:
            verified[id(system)] = verify_ch_axioms(system)
        return verified[id(system)]

    monkeypatch.setattr(search_mod, "split_form_build", build)
    monkeypatch.setattr(search_mod, "verify_ch_axioms", verify)
    return built, lambda params: verify(build(params)).is_ch


def _reference_report(cfg, candidates, is_ch) -> SearchReport:
    """The report of a plain loop over `candidates`: the lazy
    _split_pattern_probe screens each one, and each hit the oracle accepts
    is counted and sorted by recurrence_status."""
    ref = SearchReport(config=cfg.to_json())
    histogram = {}
    for c in candidates:
        ref.candidates_examined += 1
        if not _split_pattern_probe(cfg.spec, *c, cfg.d):
            continue
        params = _payload_array(cfg.spec, *c)
        if not is_ch(params):
            continue
        ref.ch_systems_found += 1
        status = recurrence_status(params)
        if status.recurrent:
            ref.recurrent_count += 1
            for b in status.betas:
                histogram[str(b)] = histogram.get(str(b), 0) + 1
        else:
            ref.counterexamples.append(params.to_json())
    ref.beta_histogram = dict(sorted(histogram.items()))
    return ref


def test_exhaustive_report_bytes_match_reference_loop(tmp_path, monkeypatch, gf4):
    """search() writes the report bytes of a plain loop that enumerates
    every candidate, probes it and sends each hit to the oracle."""
    built, is_ch = _memo_oracle(monkeypatch)
    cfg = SearchConfig(gf4, 3, "exhaustive", report_path=str(tmp_path / "rep.json"))
    ref = _reference_report(cfg, _reference_candidates(gf4, 3), is_ch)
    search(cfg)
    assert (tmp_path / "rep.json").read_bytes() == ref.to_bytes()
    assert ref.ch_systems_found == 2_304 and len(built) == 2_304


@pytest.mark.parametrize("field, d", [
    ("gf:5", 3), ("gf:5", 4), ("ext:gf:2:1,1,1", 3), ("gf:7", 4),
])
def test_random_report_bytes_match_reference_loop(monkeypatch, field, d):
    """Random-mode search() gives the report bytes of a plain loop that
    draws _random_candidates, probes each with the lazy
    _split_pattern_probe and sends each hit to the oracle: on fields whose
    perm(q, d + 1) eigenvalue sequences fit the memo, where the search's
    probe reads the per-theta tables, and on GF(7), d = 4
    (perm(7, 5) = 2,520 > _MEMO_SIZE), where it stays lazy."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    _, is_ch = _memo_oracle(monkeypatch)
    for seed in (1, 2, 3):
        cfg = SearchConfig(spec, d, "random", seed, 500)
        candidates = _random_candidates(seed, elems, nonzero, d, 500)
        ref = _reference_report(cfg, candidates, is_ch)
        assert search(cfg).to_bytes() == ref.to_bytes()
        assert ref.candidates_examined == 500


def _zero_profile(spec, th, ths, ph, d) -> list:
    """Which of the probe's scalars are zero for (th, ths, ph): every
    entry of the E side, then every entry of the E* side, from the lazy
    _probe_forms."""
    return ([spec.is_zero(spec.dot(form, ths + ph))
             for _, form, _ in _probe_forms(spec, th, d)]
            + [spec.is_zero(spec.dot(dual_form, th + ph))
               for _, _, dual_form in _probe_forms(spec, ths, d)])


@pytest.mark.parametrize("field, d, families", [
    ("gf:7", 4, 0), ("gf:7", 5, 4), ("ext:gf:3:1,0,1", 3, 4),
])
def test_affine_maps_keep_the_probe_verdict(field, d, families):
    """The lemma behind _pair_hits: theta -> a theta + b and theta* ->
    a* theta* + b*, with phi -> a a* phi (a, a* nonzero), keep every
    scalar of the probe zero or nonzero, and so its verdict.  Checked
    under seeded maps on seeded candidates, which are non-hits, and on the
    arrays of F1 systems and the solver's hits on their pairs, which are
    hits.  GF(7), d = 4 has no CH system, so it checks non-hits only."""
    spec = field_from_string(field)
    elems, nonzero = _elements(spec)
    rng = random.Random(f"affine/{field}/{d}")
    candidates = [(tuple(rng.sample(elems, d + 1)), tuple(rng.sample(elems, d + 1)),
                   tuple(rng.choice(nonzero) for _ in range(d))) for _ in range(200)]
    if families:
        for fp in iter_family_instances(Family("F1"), spec, d, families):
            p = family_generate(fp)
            th, ths = (tuple(e.payload for e in seq) for seq in (p.theta, p.theta_star))
            candidates += [(th, ths, ph) for ph in _solve_pair(spec, th, ths, d, nonzero)]
    verdicts = set()
    for th, ths, ph in candidates:
        a, b, a_star, b_star = (rng.choice(pool) for pool in (nonzero, elems, nonzero, elems))
        mapped = (tuple(spec.add(spec.mul(a, t), b) for t in th),
                  tuple(spec.add(spec.mul(a_star, t), b_star) for t in ths),
                  tuple(spec.mul(spec.mul(a, a_star), x) for x in ph))
        assert _zero_profile(spec, *mapped, d) == _zero_profile(spec, th, ths, ph, d)
        verdict = _split_pattern_probe(spec, th, ths, ph, d)
        assert _split_pattern_probe(spec, *mapped, d) == verdict
        verdicts.add(verdict)
    assert verdicts == ({True, False} if families else {False})


@pytest.mark.parametrize("field, d", [("ext:gf:2:1,1,1", 3), ("gf:5", 4)])
def test_pair_hits_equal_the_solver_on_every_pair(field, d):
    """The hit table, solved once per normalized pair and transported,
    lists for every (theta, theta*) pair the hits that _solve_pair finds
    on that pair, in its order: over every pair of GF(4), d = 3, and of
    GF(5), d = 4, whose 1,600 hits all have beta = 2 and so check the
    transport past d = 3."""
    spec = field_from_string(field)
    elems, nonzero = _elements(spec)
    thetas = list(itertools.permutations(elems, d + 1))
    phis, hits = _pair_hits(spec, d, thetas)
    assert phis == tuple(itertools.product(nonzero, repeat=d))
    assert len(hits) == len(thetas) ** 2
    total = 0
    for (c, th), (cs, ths) in itertools.product(enumerate(thetas), repeat=2):
        want = _solve_pair(spec, th, ths, d, nonzero)
        assert [phis[f] for f in hits[c * len(thetas) + cs]] == want
        total += len(want)
    assert total == {"ext:gf:2:1,1,1": 2_304, "gf:5": 1_600}[field]


def test_pair_hits_transport_scale_past_d3():
    """The transport scale (theta_1 - theta_0)(theta*_1 - theta*_0), checked
    where the hit sets do not hide it: over GF(7) with d = 5 the normalized
    pair theta' = (0,1,4,6,5,2), theta*' = (0,1,6,3,2,4) has 22 hits, and
    no scaling by s != 1 maps that set onto itself (GF(5), d = 4's hits
    are closed under every scaling).  _pair_hits over the 84 member
    sequences a theta' + b of both normalized sequences lists, for a
    seeded sample of member pairs, the hits _solve_pair finds on them."""
    spec = field_from_string("gf:7")
    d, (_, nonzero) = 5, _elements(spec)
    norms = [(0, 1, 4, 6, 5, 2), (0, 1, 6, 3, 2, 4)]
    solved = _solve_pair(spec, *norms, d, nonzero)
    assert len(solved) == 22
    for s in nonzero[1:]:
        assert sorted(tuple(spec.mul(s, x) for x in ph) for ph in solved) != solved
    thetas = [tuple(spec.add(spec.mul(a, t), b) for t in th)
              for th in norms for a in nonzero for b in range(7)]
    assert len(set(thetas)) == 84
    phis, hits = _pair_hits(spec, d, thetas)
    rng = random.Random("transport/gf:7/5")
    total = 0
    for k in rng.sample(range(len(thetas) ** 2), 300):
        c, cs = divmod(k, len(thetas))
        want = _solve_pair(spec, thetas[c], thetas[cs], d, nonzero)
        assert [phis[f] for f in hits[k]] == want
        total += len(want)
    assert total > 3_000


def _code_triples(tag, samples, phis, sample):
    """Every code triple (c, c*, f) below (samples, samples, phis), or
    `sample` of them drawn by a Random seeded with `tag`."""
    if sample is None:
        return itertools.product(range(samples), range(samples), range(phis))
    rng = random.Random(tag)
    return [(rng.randrange(samples), rng.randrange(samples), rng.randrange(phis))
            for _ in range(sample)]


@pytest.mark.parametrize("field, d, sample", [
    ("ext:gf:2:1,1,1", 3, None), ("gf:5", 3, 20_000), ("gf:5", 4, 20_000),
])
def test_pair_hits_are_the_probe_hits(field, d, sample):
    """Random mode's table lists a code triple (c, c*, f) in hits[c n + c*]
    exactly when (samples[c], samples[c*], phis[f]) is a
    _split_pattern_probe hit (the lazy probe, which shares no table code
    with _pair_hits): over every code triple of GF(4), d = 3
    (24 x 24 x 27), and over a seeded sample of the GF(5), d = 3 and
    d = 4 triples together with every triple the table lists."""
    spec = field_from_string(field)
    samples, phis, hits = _code_tables(spec, d)
    n = len(samples)
    triples = list(_code_triples(f"pair-hits/{field}/{d}", n, len(phis), sample))
    if sample is not None:
        triples += [(k // n, k % n, f) for k, fs in enumerate(hits) for f in fs]
    outcomes = set()
    for c, cs, f in triples:
        hit = f in hits[c * n + cs]
        assert hit == _split_pattern_probe(spec, samples[c], samples[cs], phis[f], d)
        outcomes.add(hit)
    assert outcomes == {True, False}


@pytest.mark.parametrize("field, d", [("gf:5", 4), ("ext:gf:2:1,1,1", 3)])
def test_random_codes_yield_the_screened_candidates(field, d):
    """Over a field whose sequences fit the memo, the codes random mode
    draws with the real hit table are the trials of _random_candidates
    (the reference draw) that the lazy probe accepts, with their trial
    numbers."""
    spec = field_from_string(field)
    elems, nonzero = _elements(spec)
    samples, phis, hits = _code_tables(spec, d)
    total = 0
    for seed in range(5):
        got = [(i, (samples[c], samples[cs], phis[f])) for i, c, cs, f in _random_codes(
            seed, len(elems), len(nonzero), d, 3000, hits)]
        want = [(i, c) for i, c in enumerate(
            _random_candidates(seed, elems, nonzero, d, 3000), 1)
            if _split_pattern_probe(spec, *c, d)]
        assert got == want
        total += len(got)
    assert 0 < total < 5 * 3000


def test_random_search_reads_tables_when_theta_space_fits(monkeypatch, gf5, gf7):
    """Random mode reads its table from one memo per (field, d) exactly
    when every eigenvalue sequence of the field fits the memo: a GF(5),
    d = 4 search builds one set of code tables, solving its
    perm(3, 3)^2 = 36 normalized pairs, and a repeat builds and solves
    nothing, nor does a GF(7), d = 4 search (perm(7, 5) = 2,520 >
    _MEMO_SIZE), which probes lazily.  Importing the module builds no
    tables."""
    assert math.perm(5, 5) <= _MEMO_SIZE < math.perm(7, 5)
    assert _code_tables.cache_info().maxsize == _MEMO_SIZE
    solves = _recorded_solves(monkeypatch)
    _code_tables.cache_clear()

    def builds():
        return len(solves), _code_tables.cache_info().misses

    cfg = SearchConfig(gf5, 4, "random", seed=3, trials=2000)
    search(cfg)
    assert builds() == (math.perm(3, 3) ** 2, 1)
    search(cfg)
    search(SearchConfig(gf7, 4, "random", seed=3, trials=2000))
    assert builds() == (math.perm(3, 3) ** 2, 1)
    src = Path(importlib.import_module("circhess").__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import importlib; s = importlib.import_module("
         "'circhess.search'); print(s._code_tables.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("mode", SEARCH_MODES)
def test_empty_space_returns_before_building_anything(monkeypatch, mode):
    """Over GF(3) with d = 40 there are no d + 1 distinct eigenvalues, so
    both modes give an empty report at once: neither lists the field nor
    builds a hit table, whose (q - 1)^d = 2^40 values of phi could not be
    listed."""
    search_mod = importlib.import_module("circhess.search")
    for name in ("_elements", "_pair_hits", "_code_tables"):
        monkeypatch.setattr(search_mod, name,
                            lambda *args, name=name: pytest.fail(f"{name} called"))
    rep = search(SearchConfig(prime_field(3), 40, mode, seed=1, trials=10))
    assert (rep.candidates_examined, rep.ch_systems_found, rep.counterexamples) == (0, 0, [])


def test_exhaustive_gf5_full():
    """The complete GF(5), d = 3 space: every one of the 921600 candidate
    arrays is screened, every hit verifies, and all hits are recurrent."""
    g5 = prime_field(5)
    rep = search(SearchConfig(g5, 3, "exhaustive"))
    assert rep.candidates_examined == 120 * 120 * 64
    assert rep.ch_systems_found == rep.recurrent_count > 0
    assert rep.counterexamples == []
    assert set(rep.beta_histogram) == {"0"}  # q + 1/q = 2 + 3 = 0 in GF(5)


def test_replay_w5(w5_array):
    bundle = replay(w5_array)
    assert bundle["ok"]
    assert bundle["verify"]["is_ch"]
    assert bundle["recurrence"]["recurrent"]
    assert bundle["classification"]["family"] == "F1"
    assert bundle["tridiagonal_witness"]["beta"] == "0"
    assert bundle["irreducible"]
    assert bundle["vartheta"] == ["0", "1", "3", "2", "0"]
    assert bundle["bases"]["psi"] == "1"


def test_replay_non_ch(gf5):
    p = ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [3, 1, 3])
    bundle = replay(p)
    assert not bundle["ok"]
    assert not bundle["verify"]["is_ch"]
    assert "recurrence" not in bundle
    assert "bases" in bundle["skipped"]


def test_replay_surfaces_internal_contradiction(monkeypatch, w5_array):
    """A classification contradiction (impossible mathematically, simulated
    here) must surface verbatim in the bundle and flip ok to False."""
    from circhess.errors import InternalContradictionError
    import circhess.families

    def boom(params):
        raise InternalContradictionError("simulated contradiction")

    monkeypatch.setattr(circhess.families, "classify_family", boom)
    bundle = replay(w5_array)
    assert not bundle["ok"]
    assert bundle["classification"]["error"] == "InternalContradiction"
    assert "simulated contradiction" in bundle["classification"]["detail"]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_probe_hit_rejected_by_oracle_is_internal_contradiction(
        monkeypatch, capsys, mode):
    """The probe is exact, so a probe hit that the axiom oracle rejects
    (impossible mathematically, simulated here) raises, naming the array,
    in both modes; `circhess fuzz` exits 1 with INTERNAL CONTRADICTION."""
    from types import SimpleNamespace

    from circhess.cli import main
    from circhess.errors import InternalContradictionError

    search_mod = importlib.import_module("circhess.search")
    monkeypatch.setattr(search_mod, "verify_ch_axioms",
                        lambda system: SimpleNamespace(is_ch=False))
    spec = field_from_string("ext:gf:2:1,1,1")
    with pytest.raises(InternalContradictionError, match='"theta": '):
        search(SearchConfig(spec, 3, mode, seed=1, trials=200))
    code = main(["fuzz", "--field", "ext:gf:2:1,1,1", "--d", "3", "--mode", mode,
                 "--seed", "1", "--trials", "200"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("INTERNAL CONTRADICTION: ")


def test_counterexamples_are_reported_and_replayable(tmp_path, monkeypatch, capsys, gf5):
    """A hit that is not recurrent is a counterexample (none is known, so
    recurrence_status is patched to call the first three hits of a seeded
    GF(5), d = 3 search non-recurrent).  The report and the
    .counterexamples.json file beside it list exactly those arrays, each
    entry reads back as its array, `circhess fuzz` exits 1, and unpatched
    replay verifies each entry as a system."""
    from circhess.cli import main

    search_mod = importlib.import_module("circhess.search")
    real = search_mod.recurrence_status
    flipped = []

    def status(params):
        if len(flipped) < 3:
            flipped.append(params)
            return RecurrenceStatus(False, [])
        return real(params)

    monkeypatch.setattr(search_mod, "recurrence_status", status)
    path = tmp_path / "rep.json"
    rep = search(SearchConfig(gf5, 3, "random", seed=42, trials=300,
                              report_path=str(path)))
    assert len(flipped) == 3 and rep.ch_systems_found == 5
    assert rep.recurrent_count == 2 and rep.beta_histogram == {"0": 2}
    assert rep.counterexamples == [p.to_json() for p in flipped]
    on_disk = json.loads(path.with_suffix(".counterexamples.json").read_text())
    assert on_disk == rep.counterexamples
    assert json.loads(path.read_bytes()) == rep.to_json()
    assert [ParameterArray.from_json(e) for e in on_disk] == flipped

    flipped.clear()
    cli_path = tmp_path / "cli.json"
    code = main(["fuzz", "--field", "gf:5", "--d", "3", "--seed", "42",
                 "--trials", "300", "--report", str(cli_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.encode() == cli_path.read_bytes() + b"\n"
    assert json.loads(out)["counterexamples"] == on_disk
    assert cli_path.with_suffix(".counterexamples.json").read_text() == \
        path.with_suffix(".counterexamples.json").read_text()

    monkeypatch.undo()
    for entry in on_disk:
        bundle = replay(ParameterArray.from_json(entry))
        assert bundle["verify"]["is_ch"] and bundle["ok"]


def test_unknown_mode_is_typed_error(gf5):
    with pytest.raises(UnknownSearchModeError):
        search(SearchConfig(gf5, 3, "bogus"))
