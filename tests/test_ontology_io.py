import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_ontology
from ontosem import ontology as ontology_module
from ontosem import samples
from ontosem.cli import main
from ontosem.ontology import Concept, Instance, Ontology, Relation, TaxonomyEdge, merge, validate
from ontosem.ontology_io import OntologyFormatError, OntologyValidationError, load_ontology
from ontosem.serialize import XMLCharacterError, export_owl

OWL_NS = "{http://www.w3.org/2002/07/owl#}"
RDFS_NS = "{http://www.w3.org/2000/01/rdf-schema#}"
RDF_ABOUT = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}about"


# -- loading -------------------------------------------------------------------

def test_sample_domain_has_15_concepts():
    ontology = load_ontology(samples.domain_ontology_path())
    assert len(ontology.concepts) == 15


def test_load_ontology_yields_frozenset_concepts_and_triggers():
    pair = [load_ontology(samples.domain_ontology_path()), load_ontology(samples.task_ontology_path())]
    instances = [i for o in pair for i in o.instances]
    relations = [r for o in pair for r in o.relations]
    assert instances and relations
    assert all(type(i.concepts) is frozenset for i in instances)
    assert all(type(r.triggers) is frozenset for r in relations)


def test_load_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert ":1:1:" in str(err.value)


def test_load_unknown_format_version(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"format_version": 99, "kind": "domain"}), encoding="utf-8")
    with pytest.raises(OntologyFormatError, match="format_version"):
        load_ontology(path)


@pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0")])
def test_format_version_must_be_the_integer_1(tmp_path, version, shown):
    # `true == 1` and `1.0 == 1` in Python, but neither is the JSON integer 1
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format_version": version, "kind": "domain"}), encoding="utf-8")
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}: unsupported format_version {shown} (expected 1)"


def test_load_missing_format_version(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"kind": "domain"}), encoding="utf-8")
    with pytest.raises(OntologyFormatError, match="format_version"):
        load_ontology(path)


def test_lone_surrogate_escape_is_a_format_error(tmp_path):
    doc = json.loads(samples.domain_ontology_path().read_text(encoding="utf-8"))
    doc["concepts"][0]["gloss"] = "\ud800"
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the escape stays an escape
    assert "\\ud800" in path.read_text(encoding="utf-8")
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}: string escape \\ud800 is not valid Unicode (a lone surrogate)"


def test_surrogate_pair_escape_loads(tmp_path):
    doc = json.loads(samples.domain_ontology_path().read_text(encoding="utf-8"))
    doc["concepts"][0]["gloss"] = "\U0001F600"
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    name = doc["concepts"][0]["name"]
    assert {c.name: c for c in load_ontology(path).concepts}[name].gloss == "\U0001F600"


def _set(section, index, key, value):
    def mutate(doc):
        doc[section][index][key] = value
    return mutate


def _relation(relation_id, key, value):
    def mutate(doc):
        next(r for r in doc["relations"] if r["id"] == relation_id)[key] = value
    return mutate


def _bad_concepts_then_bad_surface(doc):
    doc["instances"][1]["concepts"] = [None]
    doc["instances"][-1]["surface"] = 5


# the bundled domain ontology with one field replaced; each instance case runs
# on the first record and on the last, after the loader has accepted and
# shared the concept sets of all the others (the last list repeats ["Train"])
@pytest.mark.parametrize(
    "mutate, message",
    [
        *(
            case
            for index in (0, -1)
            for case in (
                (_set("instances", index, "concepts", 5), "instance 'concepts' must be an array of strings"),
                (_set("instances", index, "concepts", ["Train", 5]), "instance 'concepts' must be an array of strings"),
                (_set("instances", index, "concepts", [["Train"]]), "instance 'concepts' must be an array of strings"),
                (_set("instances", index, "surface", ["a"]), "instance 'surface' must be a string"),
                (lambda doc, i=index: doc["instances"][i].pop("surface"), "instance record missing 'surface'"),
            )
        ),
        (_bad_concepts_then_bad_surface, "instance 'concepts' must be an array of strings"),
        (_set("concepts", 0, "gloss", ["a"]), "concept 'gloss' must be a string"),
        (_set("concepts", 0, "kind", None), "concept 'kind' must be a string"),
        (_set("concepts", 0, "name", 7), "concept 'name' must be a string"),
        (_set("taxonomy", 0, "parent", {}), "taxonomy 'parent' must be a string"),
        (_relation("rel_class", "triggers", "Ily"), "relation 'triggers' must be an array of strings"),
        (_relation("rel_class", "target", None), "relation 'target' must be a string"),
        (lambda doc: doc.pop("format_version"), "unsupported format_version None (expected 1)"),
        (lambda doc: doc.__setitem__("relations", {}), "'relations' must be an array of objects"),
    ],
)
def test_wrongly_typed_field_is_a_format_error(tmp_path, mutate, message):
    doc = json.loads(samples.domain_ontology_path().read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("gloss", [None, "absent"])
def test_gloss_may_be_null_or_absent(tmp_path, gloss):
    doc = json.loads(samples.domain_ontology_path().read_text(encoding="utf-8"))
    if gloss is None:
        doc["concepts"][0]["gloss"] = None
    else:
        doc["concepts"][0].pop("gloss", None)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    name = doc["concepts"][0]["name"]
    assert {c.name: c for c in load_ontology(path).concepts}[name].gloss is None


def test_load_invalid_ontology_embeds_findings(tmp_path):
    path = tmp_path / "broken.json"
    doc = {
        "format_version": 1,
        "kind": "domain",
        "concepts": [{"name": "A"}],
        "relations": [{"id": "rel_x", "triggers": ["t"], "source": "A", "target": "Missing"}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(OntologyValidationError) as err:
        load_ontology(path)
    assert any(f.code == "dangling-relation-concept" for f in err.value.findings)


def test_concept_records_inherit_document_kind(tmp_path):
    path = tmp_path / "inherit.json"
    doc = {"format_version": 1, "kind": "task", "concepts": [{"name": "A"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert {c.name: c for c in load_ontology(path).concepts}["A"].kind == "task"


# -- round trip ------------------------------------------------------------------

def test_sample_pair_round_trips_through_a_written_file(tmp_path, domain, task):
    for name, original in (("domain.json", domain), ("task.json", task)):
        path = tmp_path / name
        write_ontology(original, path)
        assert load_ontology(path) == original


def test_round_trip_with_zero_instances(tmp_path):
    ontology = Ontology(concepts=(Concept("Solo", "domain"),))
    path = tmp_path / "solo.json"
    write_ontology(ontology, path)
    loaded = load_ontology(path)
    assert loaded == ontology
    assert loaded.instances == ()


def test_loading_a_valid_lexicon_builds_no_instance_record(tmp_path, monkeypatch):
    # the surface index is the lexicon: loading and the whole pipeline read
    # it, and the `Instance` records are derived only when asked for
    def refuse(*fields):
        raise AssertionError(f"Instance{fields} built")

    monkeypatch.setattr(ontology_module, "Instance", refuse)
    pair = [load_ontology(samples.domain_ontology_path()), load_ontology(samples.task_ontology_path())]
    assert all(len(o.instances) == len(o.instances.surfaces) > 0 for o in pair)
    out = tmp_path / "report.json"
    argv = ["eval", "--in", str(samples.corpus_path()), "--gold", str(samples.gold_path()), "--out", str(out)]
    assert main(argv) == 0 and json.loads(out.read_text(encoding="utf-8"))["counts"]["total"] > 0
    with pytest.raises(AssertionError, match="Instance"):
        list(pair[0].instances)


# random valid ontologies: names drawn from a small pool, taxonomy edges only
# from later to earlier names (guarantees acyclicity), trigger surfaces from a
# vocabulary disjoint with instance surfaces
_NAMES = [f"C{i}" for i in range(8)]
_INSTANCE_SURFACES = ["wA", "b~h", "c$d", "I'm", "e*f", "g|h"]
_TRIGGER_SURFACES = ["tq", "tr", "ts"]


@st.composite
def ontologies(draw):
    count = draw(st.integers(min_value=1, max_value=len(_NAMES)))
    names = _NAMES[:count]
    concepts = tuple(
        Concept(
            name,
            draw(st.sampled_from(["domain", "task"])),
            draw(st.one_of(st.none(), st.text("ابتثsxy_ ", min_size=1, max_size=6))),
        )
        for name in names
    )
    edges = []
    for i, name in enumerate(names[1:], start=1):
        if draw(st.booleans()):
            edges.append(TaxonomyEdge(name, names[draw(st.integers(0, i - 1))]))
    surfaces = draw(st.lists(st.sampled_from(_INSTANCE_SURFACES), unique=True, max_size=4))
    instances = tuple(
        Instance(
            surface,
            frozenset(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))),
        )
        for surface in surfaces
    )
    trigger_sets = draw(st.lists(st.sampled_from(_TRIGGER_SURFACES), unique=True, max_size=2))
    relations = tuple(
        Relation(
            f"rel_{i}",
            frozenset({trigger}),
            draw(st.sampled_from(names)),
            draw(st.sampled_from(names)),
        )
        for i, trigger in enumerate(trigger_sets)
    )
    return Ontology(concepts=concepts, taxonomy=tuple(edges), instances=instances, relations=relations)


@settings(max_examples=150, deadline=None)
@given(ontologies())
def test_round_trip_random_ontologies(tmp_path_factory, ontology):
    assert validate(ontology) == []
    path = tmp_path_factory.mktemp("roundtrip") / "o.json"
    write_ontology(ontology, path)
    assert load_ontology(path) == ontology


# -- OWL export -------------------------------------------------------------------

@pytest.fixture(scope="module")
def sample_owl(domain, task):
    merged = merge(domain, task)
    return merged, export_owl(merged)


def test_owl_is_well_formed_xml(sample_owl):
    _, text = sample_owl
    ET.fromstring(text)  # raises on malformed output


def test_owl_class_and_property_counts(sample_owl):
    merged, text = sample_owl
    root = ET.fromstring(text)
    classes = root.findall(f"{OWL_NS}Class")
    properties = root.findall(f"{OWL_NS}ObjectProperty")
    assert len(classes) == len(merged.concepts) == 21
    assert len(properties) == len(merged.relations) == 4


def test_owl_class_identifiers(sample_owl):
    _, text = sample_owl
    root = ET.fromstring(text)
    about = {el.get(RDF_ABOUT) for el in root.findall(f"{OWL_NS}Class")}
    assert "Train" in about
    assert '<owl:Class rdf:about="Train"' in text


def test_owl_subclass_edges(sample_owl):
    merged, text = sample_owl
    root = ET.fromstring(text)
    edges = set()
    for el in root.findall(f"{OWL_NS}Class"):
        for sub in el.findall(f"{RDFS_NS}subClassOf"):
            edges.add((el.get(RDF_ABOUT), sub.get("{http://www.w3.org/1999/02/22-rdf-syntax-ns#}resource")))
    assert edges == {(e.child, e.parent) for e in merged.taxonomy}


def test_owl_object_property_domain_and_range(sample_owl):
    _, text = sample_owl
    root = ET.fromstring(text)
    by_id = {el.get(RDF_ABOUT): el for el in root.findall(f"{OWL_NS}ObjectProperty")}
    rel = by_id["rel_from_departure"]
    rdf_resource = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}resource"
    assert rel.find(f"{RDFS_NS}domain").get(rdf_resource) == "Train"
    assert rel.find(f"{RDFS_NS}range").get(rdf_resource) == "Departure_City"


def test_owl_individuals_typed_by_concepts(sample_owl):
    merged, text = sample_owl
    root = ET.fromstring(text)
    individuals = root.findall(f"{OWL_NS}NamedIndividual")
    assert len(individuals) == len(merged.instances)
    rdf_type = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}type"
    by_surface = {el.get(RDF_ABOUT): el for el in individuals}
    types = {t.get("{http://www.w3.org/1999/02/22-rdf-syntax-ns#}resource")
             for t in by_surface["twns"].findall(rdf_type)}
    assert types == {"Arrival_City", "Departure_City"}


def test_owl_empty_ontology():
    text = export_owl(Ontology())
    root = ET.fromstring(text)
    assert len(root) == 0
    assert root.tag == "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}RDF"


def test_owl_escapes_awkward_surfaces():
    ontology = Ontology(
        concepts=(Concept("A", "domain"),),
        instances=(Instance('q"<&>\'', frozenset({"A"})),),
    )
    root = ET.fromstring(export_owl(ontology))
    individual = root.find(f"{OWL_NS}NamedIndividual")
    assert individual.get(RDF_ABOUT) == 'q"<&>\''


@pytest.mark.parametrize("element, ontology", [
    ("owl:Class 'A'", Ontology(concepts=(Concept("A", "domain", "gl\x1fss"),))),
    ("owl:ObjectProperty 'r\\x02'", Ontology(
        concepts=(Concept("A", "domain"),), relations=(Relation("r\x02", frozenset({"m"}), "A", "A"),))),
    ("owl:NamedIndividual 'q\"<&\\x0c'", Ontology(
        concepts=(Concept("A", "domain"), Concept("B", "domain")),
        instances=(Instance("q\"<&\x0c", frozenset({"A"})), Instance("z", frozenset({"B"}))))),
])
def test_owl_error_names_the_element_with_a_character_xml_forbids(element, ontology):
    with pytest.raises(XMLCharacterError) as err:
        export_owl(ontology)
    assert str(err.value).startswith(f"cannot write XML for {element}: U+00")
