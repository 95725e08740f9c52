"""Pinned JSON of the result dataclasses that render by field name.

NormalizationScalars, RepresentationPair, StandardFormEntries,
RecurrenceStatus, TridiagonalWitness, Classification and SearchReport take
their JSON keys from their attribute names (fields.JsonFields), so renaming
an attribute would change an output format.  golden/result_json.json holds
their sorted-key JSON for W5, for an F3 array over GF(9) whose theta and
theta* differ, and for two small seeded searches, recorded from the
implementation that wrote each to_json body out by hand.
"""

import json
from pathlib import Path

import pytest

from circhess import (
    BASIS_NAMES,
    Family,
    ParameterArray,
    SearchConfig,
    build_basis_catalog,
    classify_family,
    family_generate,
    field_from_string,
    iter_family_instances,
    prime_field,
    recurrence_status,
    represent,
    search,
    split_form_build,
    standard_form_entries,
    verify_ch_axioms,
)
from circhess.recurrence import td_witness

GOLDEN = json.loads((Path(__file__).parent / "golden" / "result_json.json").read_text())


def _arrays():
    gf9 = field_from_string("ext:gf:3:1,0,1")
    return {
        "W5": ParameterArray.make(prime_field(5), [1, 2, 4, 3], [1, 2, 4, 3], [3, 2, 4]),
        "F3 GF(9) d=5": family_generate(
            next(iter_family_instances(Family.F3_BETA_MINUS2, gf9, 5, 1))),
    }


def _documents():
    """Every pinned object, by name."""
    docs = {}
    for name, p in _arrays().items():
        system = split_form_build(p)
        assert verify_ch_axioms(system).is_ch
        catalog, scalars = build_basis_catalog(system)
        status = recurrence_status(p)
        docs[f"{name} NormalizationScalars"] = scalars
        for basis in BASIS_NAMES:
            docs[f"{name} RepresentationPair {basis}"] = represent(catalog, basis)
        docs[f"{name} StandardFormEntries"] = standard_form_entries(catalog)
        docs[f"{name} RecurrenceStatus"] = status
        docs[f"{name} TridiagonalWitness"] = td_witness(system, status.betas[0])
        docs[f"{name} Classification"] = classify_family(p)
    docs["non-recurrent RecurrenceStatus"] = recurrence_status(ParameterArray.make(
        prime_field(5), [0, 1, 2, 3], [0, 1, 2, 4], [1, 1, 1]))
    for field in ("gf:5", "ext:gf:2:1,1,1"):
        cfg = SearchConfig(field_from_string(field), 3, "random", seed=1, trials=300)
        docs[f"{field} SearchReport"] = search(cfg)
    return docs


@pytest.fixture(scope="module")
def documents():
    return _documents()


def test_every_pinned_document_is_built(documents):
    assert sorted(documents) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_json_pinned(documents, name):
    assert json.dumps(documents[name].to_json(), sort_keys=True) == GOLDEN[name]
