import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import surface_vocabulary, write_ontology
from ontosem.cli import main
from ontosem.ontology import (
    EMPTY,
    KINDS,
    Concept,
    Instance,
    Ontology,
    Relation,
    TaxonomyEdge,
    UnknownRelationError,
    lookup,
    merge,
    pair_findings,
    relation_target,
    trigger_instance_overlap,
    validate,
)


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
    assert lookup("OtrAn", [domain])[0] == {"Train"}


def test_lookup_concepts_union_over_pair(merged):
    assert lookup("wqtA$", [merged])[0] == {
        "Departure_Time_Request",
        "Arrival_Time_Request",
    }


def test_lookup_concepts_out_of_vocabulary(merged):
    assert lookup("zzz_unknown", [merged])[0] == frozenset()


def test_lookup_relations(merged):
    assert lookup("Ily", [merged])[1] == {"rel_to_arrival"}
    assert lookup("klAs", [merged])[1] == {"rel_class"}
    assert lookup("twns", [merged])[1] == frozenset()


def test_known_surfaces_agree_with_surface_vocabulary(merged):
    vocabulary = surface_vocabulary(merged)
    assert {"twns", "Ily", "klAs"} <= vocabulary
    for surface in vocabulary | {"zzz_unknown", ""}:
        assert any(lookup(surface, [merged])) == (surface in vocabulary), surface
    # an instance that maps to no concept (a validation finding) is recorded,
    # but gives no label, so nothing treats it as a known surface
    bare = Ontology(concepts=(Concept("A", "domain"),), instances=(Instance("w", frozenset()),))
    assert surface_vocabulary(bare) == {"w"} and lookup("w", [bare]) == (EMPTY, EMPTY)


def test_lookup_shares_the_instance_sets(domain):
    # the index holds each instance's own set; building it copies none
    for instance in domain.instances:
        assert lookup(instance.surface, [domain])[0] is instance.concepts


def test_lookup_is_pure(merged):
    first = lookup("twns", [merged])
    second = lookup("twns", [merged])
    assert first == second == ({"Arrival_City", "Departure_City"}, frozenset())


def test_relation_endpoints(merged):
    by_id = {r.id: r for r in merged.relations}
    assert by_id["rel_to_arrival"].target == relation_target("rel_to_arrival", [merged]) == "Arrival_City"
    assert by_id["rel_from_departure"].source == "Train"
    assert by_id["rel_class"].target == relation_target("rel_class", [merged]) == "Ticket_Class"


def test_relation_unknown_id(merged):
    with pytest.raises(UnknownRelationError):
        relation_target("rel_nonexistent", [merged])


def test_referential_integrity_of_relations(merged):
    for relation in merged.relations:
        assert relation.source in merged.concept_names
        assert relation.target in merged.concept_names


# -- taxonomy ---------------------------------------------------------------
# No stage reads the taxonomy; the chains are checked on the records, through
# the brute-force walk above.

def test_ancestors_of_sub_concept(domain):
    assert brute_force_ancestors(domain, "Exact_Hour") == ["Departure_Hour"]


def test_ancestors_of_root(domain):
    assert brute_force_ancestors(domain, "Train") == []


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
    assert brute_force_ancestors(ontology, "C") == ["B", "A"]
    assert brute_force_ancestors(ontology, "B") == ["A"]
    assert brute_force_ancestors(ontology, "A") == []


def test_no_concept_is_its_own_ancestor(merged):
    # every walk up the taxonomy ends at a root, so none comes back to its start
    for concept in merged.concepts:
        top = [concept.name, *brute_force_ancestors(merged, concept.name)][-1]
        assert all(edge.child != top for edge in merged.taxonomy), concept.name


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


def test_dangling_instance_concepts_in_sorted_order():
    ontology = Ontology(
        concepts=(Concept("B", "domain"),),
        instances=(Instance("s", frozenset({"Zed", "B", "Alpha"})),),
    )
    assert [str(f) for f in validate(ontology)] == [
        "dangling-instance-concept: instance 's' references unknown concept 'Alpha'",
        "dangling-instance-concept: instance 's' references unknown concept 'Zed'",
    ]


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


def _cycle_finding_names(edges):
    ontology = Ontology(
        concepts=tuple(Concept(name, "domain") for name in sorted({n for edge in edges for n in edge})),
        taxonomy=tuple(TaxonomyEdge(child, parent) for child, parent in edges),
    )
    prefix = "concept '"
    return [
        f.detail[len(prefix):f.detail.index("' is its own ancestor")]
        for f in validate(ontology)
        if f.code == "taxonomy-cycle"
    ]


def reference_own_ancestors(edges):
    """Each concept that reaches itself through parents, found by walking
    its ancestors: the brute-force reading of `taxonomy-cycle`."""
    parents_of = {}
    for child, parent in edges:
        parents_of.setdefault(child, []).append(parent)
    found = []
    for start in parents_of:
        seen, todo = set(), list(parents_of[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo += parents_of.get(node, [])
        if start in seen:
            found.append(start)
    return sorted(found)


def test_every_concept_on_a_cycle_is_named():
    # the detection point of a depth-first search is not the whole cycle
    assert _cycle_finding_names([("a", "b"), ("b", "c"), ("c", "a")]) == ["a", "b", "c"]
    assert _cycle_finding_names([("r", "a"), ("r", "w"), ("a", "r"), ("w", "a")]) == ["a", "r", "w"]
    assert _cycle_finding_names([("a", "a"), ("b", "a"), ("a", "c")]) == ["a"]


def test_a_long_taxonomy_cycle_is_found_without_recursion():
    names = [f"C{i}" for i in range(10_000)]
    edges = list(zip(names, names[1:]))
    assert _cycle_finding_names(edges) == []
    assert _cycle_finding_names(edges + [(names[-1], names[0])]) == sorted(names)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF")), max_size=14))
def test_cycle_findings_name_each_concept_that_reaches_itself(edges):
    # concepts may have several parents, so cycles may share concepts
    assert _cycle_finding_names(edges) == reference_own_ancestors(edges)


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
    assert {c.name: c for c in merge(task, domain).concepts}["Train"].gloss == trains[0].gloss


def test_merge_unions_instance_concept_sets():
    a = Ontology(
        concepts=(Concept("A", "domain"),),
        instances=(Instance("w", frozenset({"A"})),),
    )
    b = Ontology(
        concepts=(Concept("B", "domain"),),
        instances=(Instance("w", frozenset({"B"})),),
    )
    assert lookup("w", [merge(a, b)])[0] == {"A", "B"}


def test_replace_and_make_sort_like_the_constructor():
    a, b = Concept("A", "domain"), Concept("B", "domain")
    assert Ontology()._replace(concepts=(b, a)).concepts == (a, b)
    assert Ontology._make(((b, a), (), (), ())) == Ontology(concepts=(a, b))


# -- the domain/task pair, unmerged -------------------------------------------------

CONCEPT_NAMES = ("A", "B", "C")


def generated_ontology(own):
    """An ontology over the surfaces "shared" and `own` and the relation ids
    "r_both" and `r_<own>`, so that a pair of them knows a surface or declares
    an id in both, in one, or (for "neither"/"r_neither") in none."""
    return st.builds(
        lambda instances, relations: Ontology(
            concepts=tuple(Concept(c, "domain") for c in CONCEPT_NAMES),
            instances=tuple(Instance(s, labels) for s, labels in instances.items()),
            relations=tuple(
                Relation(i, triggers, "A", target) for i, (triggers, target) in relations.items()
            ),
        ),
        st.dictionaries(
            st.sampled_from(("shared", own)),
            st.frozensets(st.sampled_from(CONCEPT_NAMES), min_size=1),
        ),
        st.dictionaries(
            st.sampled_from(("r_both", f"r_{own}")),
            st.tuples(
                st.frozensets(st.sampled_from(("shared", own, "marker")), min_size=1),
                st.sampled_from(CONCEPT_NAMES),
            ),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(
    pair=st.tuples(generated_ontology("first"), generated_ontology("second")),
    surface=st.sampled_from(("shared", "first", "second", "marker", "neither")),
    relation_id=st.sampled_from(("r_both", "r_first", "r_second", "r_neither")),
)
def test_property_pair_answers_equal_the_merged_ones(pair, surface, relation_id):
    merged = merge(*pair)
    assert lookup(surface, pair) == lookup(surface, [merged])
    # the first record of the id in the merge
    targets = [r.target for r in merged.relations if r.id == relation_id]
    if targets:
        assert relation_target(relation_id, pair) == targets[0]
    else:
        with pytest.raises(UnknownRelationError):
            relation_target(relation_id, pair)


def test_pair_overlap_names_a_surface_each_ontology_holds_once(domain, task):
    # the task claims the domain's trigger `klAs` as an instance
    claimed = Ontology(
        concepts=task.concepts,
        instances=(*task.instances, Instance("klAs", frozenset({"Booking_Request"}))),
        relations=task.relations,
    )
    assert validate(domain) == validate(claimed) == []
    assert [str(f) for f in trigger_instance_overlap((domain, claimed))] == [
        "trigger-instance-overlap: surface 'klAs' is both an instance and a trigger of relation 'rel_class'"
    ]
    assert trigger_instance_overlap((domain, task)) == []


@settings(max_examples=300, deadline=None)
@given(pair=st.tuples(generated_ontology("first"), generated_ontology("second")))
def test_property_pair_overlap_equals_the_merged_one(pair):
    merged = [f for f in validate(merge(*pair)) if f.code == "trigger-instance-overlap"]
    assert trigger_instance_overlap(pair) == merged


def drawn_ontology(own):
    """`generated_ontology(own)` with drawn concept glosses, kinds (or all
    "domain") and taxonomy edges, so that a pair may conflict in each; half
    the time with up to one more concept, edge and relation and up to three
    more instances (an empty surface, a surface claimed again, an empty or
    dangling concept set), which may break any rule of validate in the file
    itself."""
    base = generated_ontology(own)
    glosses = st.sampled_from((None, "g1", "g2"))
    kinds = st.sampled_from(KINDS)
    # each concept takes at most one parent from those before it, in name
    # order for "first" and in reverse for the other: each file is a forest,
    # and the pair may give a concept two parents or close a cycle
    order = CONCEPT_NAMES if own == "first" else CONCEPT_NAMES[::-1]
    parents = [st.sampled_from(order[:i]) for i in range(1, len(order))]
    names = st.sampled_from(CONCEPT_NAMES + ("D", "not a name"))
    extra_concepts = st.lists(st.builds(Concept, names, st.sampled_from(KINDS + ("neither",)), glosses), max_size=1)
    extra_edges = st.lists(st.builds(TaxonomyEdge, names, names), max_size=1)
    extra_instances = st.lists(
        st.builds(Instance, st.sampled_from(("", "shared", own, "marker")), st.frozensets(names, max_size=2)),
        max_size=3,
    )
    extra_relations = st.lists(
        st.builds(
            Relation,
            st.sampled_from(("r_both", f"r_{own}", "not an id")),
            st.frozensets(st.sampled_from(("", "shared", "marker")), max_size=2),
            names,
            names,
        ),
        max_size=1,
    )

    @st.composite
    def drawn(draw):
        ontology = draw(base)
        mixed = draw(st.booleans())
        concepts = [Concept(name, draw(kinds) if mixed else KINDS[0], draw(glosses)) for name in CONCEPT_NAMES]
        edges = [TaxonomyEdge(child, draw(parent)) for child, parent in zip(order[1:], parents) if draw(st.booleans())]
        instances, relations = list(ontology.instances), list(ontology.relations)
        if draw(st.booleans()):
            concepts += draw(extra_concepts)
            edges += draw(extra_edges)
            instances += draw(extra_instances)
            relations += draw(extra_relations)
        return Ontology(concepts, edges, instances, relations)

    return drawn()


@settings(max_examples=500, deadline=None)
@given(pair=st.tuples(drawn_ontology("first"), drawn_ontology("second")))
def test_property_pair_conflicts_equal_the_merged_duplicates(pair):
    """For valid files, `pair_findings` is `validate(merge(*pair))`; for any
    files, the two list the same findings that no file has alone, in order."""
    merged = validate(merge(*pair))
    own = {f for ontology in pair for f in validate(ontology)}
    if not own:
        assert pair_findings(pair) == merged
    assert [f for f in pair_findings(pair) if f not in own] == [f for f in merged if f not in own]


@settings(max_examples=100, deadline=None)
@given(pair=st.tuples(drawn_ontology("first"), drawn_ontology("second")))
def test_property_validate_lists_the_findings_of_the_merged_pair(tmp_path_factory, pair):
    directory = tmp_path_factory.mktemp("pair")
    domain, task, out = directory / "domain.json", directory / "task.json", directory / "out.json"
    write_ontology(pair[0], domain)
    write_ontology(pair[1], task)
    code = main(["validate", "--domain", str(domain), "--task", str(task), "--out", str(out)])
    # the document as `validate` wrote it when it merged the whole pair
    findings = [(label, f) for label, ontology in zip(("domain", "task"), pair) for f in validate(ontology)]
    listed = {f for _, f in findings}
    findings += [("merged", f) for f in validate(merge(*pair)) if f not in listed]
    document = [{"ontology": label, "code": f.code, "detail": f.detail} for label, f in findings]
    assert json.loads(out.read_text(encoding="utf-8")) == document
    assert code == (2 if findings else 0)


def test_only_the_ontology_module_reads_its_indexes():
    # the rules for combining an ontology pair live in `lookup` and
    # `relation_target`; another module reading an index would keep a copy.
    # Outside, only the instance surfaces are seen, as a read-only view
    package = Path(__file__).resolve().parents[1] / "src" / "ontosem"
    private = ("._index", "._claims", "._relations_by_trigger", "._relation_by_id")
    assert all(name in (package / "ontology.py").read_text(encoding="utf-8") for name in private)
    readers = [
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ontology.py"
        for name in private
        if name in path.read_text(encoding="utf-8")
    ]
    assert readers == []


def test_the_instances_view_cannot_be_changed_through_its_surfaces(domain):
    instances = domain.instances
    assert not hasattr(instances, "__dict__")
    with pytest.raises(AttributeError):
        instances.surfaces = {}
    assert not hasattr(instances.surfaces, "__setitem__")
    assert sorted(instances.surfaces) == [i.surface for i in instances]
