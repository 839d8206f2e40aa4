import pytest

from conftest import surface_vocabulary
from ontosem.ontology import (
    Concept,
    Instance,
    Ontology,
    Relation,
    TaxonomyEdge,
    UnknownConceptError,
    UnknownRelationError,
    merge,
    validate,
)
from ontosem import samples


@pytest.fixture(scope="module")
def domain():
    return samples.load_sample_domain()


@pytest.fixture(scope="module")
def task():
    return samples.load_sample_task()


@pytest.fixture(scope="module")
def merged(domain, task):
    return merge(domain, task)


def brute_force_ancestors(ontology, name):
    """Independent oracle: repeatedly scan the raw edge list for the parent."""
    chain = []
    current = name
    while True:
        parents = [e.parent for e in ontology.taxonomy if e.child == current]
        if not parents:
            return chain
        current = parents[0]
        if current in chain or current == name:
            return chain
        chain.append(current)


# -- lookups ----------------------------------------------------------------

def test_lookup_concepts_single_label(domain):
    assert domain.lookup_concepts("OtrAn") == {"Train"}


def test_lookup_concepts_union_over_pair(merged):
    assert merged.lookup_concepts("wqtA$") == {
        "Departure_Time_Request",
        "Arrival_Time_Request",
    }


def test_lookup_concepts_out_of_vocabulary(merged):
    assert merged.lookup_concepts("zzz_unknown") == frozenset()


def test_lookup_relations(merged):
    assert merged.lookup_relations("Ily") == {"rel_to_arrival"}
    assert merged.lookup_relations("klAs") == {"rel_class"}
    assert merged.lookup_relations("twns") == frozenset()


def test_knows_surface_agrees_with_surface_vocabulary(merged):
    vocabulary = surface_vocabulary(merged)
    assert {"twns", "Ily", "klAs"} <= vocabulary
    for surface in vocabulary | {"zzz_unknown", ""}:
        assert merged.knows_surface(surface) == (surface in vocabulary), surface
    # an instance that maps to no concept is still a known surface
    bare = Ontology(concepts=(Concept("A", "domain"),), instances=(Instance("w", frozenset()),))
    assert bare.knows_surface("w") and surface_vocabulary(bare) == {"w"}


def test_lookup_is_pure(merged):
    first = merged.lookup_concepts("twns")
    second = merged.lookup_concepts("twns")
    assert first == second == {"Arrival_City", "Departure_City"}


def test_relation_endpoints(merged):
    assert merged.relation_target("rel_to_arrival") == "Arrival_City"
    assert merged.relation("rel_from_departure").source == "Train"
    assert merged.relation_target("rel_class") == "Ticket_Class"


def test_relation_unknown_id(merged):
    with pytest.raises(UnknownRelationError):
        merged.relation_target("rel_nonexistent")


def test_referential_integrity_of_relations(merged):
    for relation in merged.relations:
        assert relation.source in merged.concept_names
        assert relation.target in merged.concept_names


# -- taxonomy ---------------------------------------------------------------

def test_ancestors_of_sub_concept(domain):
    assert domain.ancestors("Exact_Hour") == ["Departure_Hour"]


def test_ancestors_of_root(domain):
    assert domain.ancestors("Train") == []


def test_ancestors_unknown_concept(domain):
    with pytest.raises(UnknownConceptError):
        domain.ancestors("Not_A_Concept")


def test_ancestors_three_deep_chain_matches_oracle():
    # chain: C under B under root A
    ontology = Ontology(
        concepts=(
            Concept("A", "domain"),
            Concept("B", "domain"),
            Concept("C", "domain"),
        ),
        taxonomy=(TaxonomyEdge("C", "B"), TaxonomyEdge("B", "A")),
    )
    assert validate(ontology) == []
    assert ontology.ancestors("C") == ["B", "A"]
    assert ontology.ancestors("C") == brute_force_ancestors(ontology, "C")
    assert ontology.ancestors("B") == brute_force_ancestors(ontology, "B")
    assert ontology.ancestors("A") == []


def test_no_concept_is_its_own_ancestor(merged):
    for concept in merged.concepts:
        assert concept.name not in merged.ancestors(concept.name)


# -- sample ontology counts ---------------------------------------------------

def test_sample_concept_counts(domain, task, merged):
    assert len(domain.concepts) == 15
    assert sum(1 for c in merged.concepts if c.kind == "domain") == 15
    assert sum(1 for c in merged.concepts if c.kind == "task") == 6
    assert len(merged.concepts) == 21


def test_instance_and_trigger_vocabularies_disjoint(merged):
    instances = {i.surface for i in merged.instances}
    triggers = {t for r in merged.relations for t in r.triggers}
    assert not instances & triggers


# -- validation ---------------------------------------------------------------

def test_sample_ontologies_validate_clean(domain, task, merged):
    assert validate(domain) == []
    assert validate(task) == []
    assert validate(merged) == []


def _codes(findings):
    return [f.code for f in findings]


def test_dangling_relation_target():
    ontology = Ontology(
        concepts=(Concept("A", "domain"),),
        relations=(Relation("rel_x", frozenset({"t"}), "A", "Missing"),),
    )
    findings = validate(ontology)
    assert _codes(findings) == ["dangling-relation-concept"]


def test_taxonomy_self_loop_is_cycle():
    ontology = Ontology(
        concepts=(Concept("A", "domain"),),
        taxonomy=(TaxonomyEdge("A", "A"),),
    )
    assert "taxonomy-cycle" in _codes(validate(ontology))


def test_taxonomy_two_node_cycle():
    ontology = Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain")),
        taxonomy=(TaxonomyEdge("A", "B"), TaxonomyEdge("B", "A")),
    )
    assert "taxonomy-cycle" in _codes(validate(ontology))


def test_duplicate_surface_claim():
    ontology = Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain")),
        instances=(
            Instance("w", frozenset({"A"})),
            Instance("w", frozenset({"B"})),
        ),
    )
    assert "duplicate-surface" in _codes(validate(ontology))


def test_trigger_instance_overlap():
    ontology = Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain")),
        instances=(Instance("w", frozenset({"A"})),),
        relations=(Relation("rel_x", frozenset({"w"}), "A", "B"),),
    )
    assert "trigger-instance-overlap" in _codes(validate(ontology))


def test_bad_concept_name_and_kind():
    ontology = Ontology(concepts=(Concept("9bad name", "neither"),))
    codes = _codes(validate(ontology))
    assert "bad-concept-name" in codes
    assert "unknown-kind" in codes


def test_empty_instance_and_triggers():
    ontology = Ontology(
        concepts=(Concept("A", "domain"),),
        instances=(Instance("w", frozenset()),),
        relations=(Relation("rel_x", frozenset(), "A", "A"),),
    )
    codes = _codes(validate(ontology))
    assert "empty-instance" in codes
    assert "empty-triggers" in codes


def test_multiple_parents_flagged():
    ontology = Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain"), Concept("C", "domain")),
        taxonomy=(TaxonomyEdge("A", "B"), TaxonomyEdge("A", "C")),
    )
    assert "multiple-parents" in _codes(validate(ontology))


def test_validate_never_raises_on_junk():
    ontology = Ontology(
        concepts=(Concept("A", "domain"), Concept("A", "task"), Concept("A", "domain")),
        taxonomy=(TaxonomyEdge("A", "Zed"),),
        instances=(Instance("", frozenset({"Nope"})),),
        relations=(
            Relation("dup", frozenset({"x"}), "A", "A"),
            Relation("dup", frozenset({"x"}), "Gone", "A"),
        ),
    )
    findings = validate(ontology)
    assert findings  # reports, never throws


# -- merge ---------------------------------------------------------------------

def test_merge_unions_identical_concept_declarations(domain, task):
    merged = merge(domain, task)
    trains = [c for c in merged.concepts if c.name == "Train"]
    assert len(trains) == 1
    assert trains[0].kind == "domain"
    assert trains[0].gloss is not None  # gloss survives regardless of merge order
    assert merge(task, domain).concept("Train").gloss == trains[0].gloss


def test_merge_unions_instance_concept_sets():
    a = Ontology(
        concepts=(Concept("A", "domain"),),
        instances=(Instance("w", frozenset({"A"})),),
    )
    b = Ontology(
        concepts=(Concept("B", "domain"),),
        instances=(Instance("w", frozenset({"B"})),),
    )
    assert merge(a, b).lookup_concepts("w") == {"A", "B"}
