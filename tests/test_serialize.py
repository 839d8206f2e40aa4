import xml.etree.ElementTree as ET
import xml.sax.saxutils

import pytest
from hypothesis import given, settings, strategies as st

from conftest import annotate_surfaces, run_python
from ontosem.interpret import interpret
from ontosem.serialize import (
    XMLCharacterError,
    annotated_to_tsv,
    annotated_to_xml,
    escape,
    interpreted_to_tsv,
    interpreted_to_xml,
    quoteattr,
)


@pytest.fixture(scope="module")
def time_question_annotated(ontologies):
    return annotate_surfaces(["wqtA$", "yxrj", "OtrAn"], *ontologies, uid="a01")


def test_annotated_xml_token_listing(time_question_annotated):
    text = annotated_to_xml([time_question_annotated])
    root = ET.fromstring(text)
    utterance = root.find("utterance")
    assert utterance.get("id") == "a01"
    tokens = utterance.findall("token")
    assert [t.get("value") for t in tokens] == ["wqtA$", "yxrj", "OtrAn"]
    assert [a.text for a in tokens[0].findall("annotation")] == [
        "Arrival_Time_Request",
        "Departure_Time_Request",
    ]
    assert [a.text for a in tokens[1].findall("annotation")] == ["Semantic_Relation"]
    assert [a.text for a in tokens[2].findall("annotation")] == ["Train"]


def test_unrecognized_token_has_no_annotations(ontologies):
    text = annotated_to_xml([annotate_surfaces(["zzz"], *ontologies)])
    token = ET.fromstring(text).find("utterance/token")
    assert token.findall("annotation") == []


def test_interpreted_xml_single_annotation_after_resolution(ontologies, time_question_annotated):
    interpreted = interpret(time_question_annotated, *ontologies)
    text = interpreted_to_xml([interpreted])
    tokens = ET.fromstring(text).findall("utterance/token")
    assert [a.text for a in tokens[0].findall("annotation")] == ["Departure_Time_Request"]


def test_unresolved_token_keeps_candidates(ontologies):
    interpreted = interpret(annotate_surfaces(["twns"], *ontologies), *ontologies)
    tokens = ET.fromstring(interpreted_to_xml([interpreted])).findall("utterance/token")
    assert [a.text for a in tokens[0].findall("annotation")] == [
        "Arrival_City",
        "Departure_City",
    ]


def test_xml_escapes_attribute_values(ontologies):
    text = annotated_to_xml([annotate_surfaces(['a"b<c&d'], *ontologies)])
    token = ET.fromstring(text).find("utterance/token")
    assert token.get("value") == 'a"b<c&d'


def test_annotated_tsv_columns(time_question_annotated):
    lines = annotated_to_tsv([time_question_annotated]).splitlines()
    assert lines[0].startswith("#")
    first = lines[1].split("\t")
    assert first == [
        "a01",
        "0",
        "wqtA$",
        "ambiguous",
        "Arrival_Time_Request|Departure_Time_Request",
        "-",
    ]
    marker = lines[2].split("\t")
    assert marker[3] == "relation_marker"
    assert marker[5] == "rel_departure_time"


def test_interpreted_tsv_provenance_columns(ontologies, time_question_annotated):
    interpreted = interpret(time_question_annotated, *ontologies)
    lines = interpreted_to_tsv([interpreted]).splitlines()
    first = lines[1].split("\t")
    assert first[0:3] == ["a01", "0", "wqtA$"]
    assert first[4] == "Departure_Time_Request"
    assert first[6] == "resolved"
    assert first[7] == "rel_departure_time"
    assert first[8] == "1"
    unchanged = lines[3].split("\t")
    assert unchanged[6] == "unchanged"
    assert unchanged[7] == "-"


# the characters XML 1.0 forbids, even as a character reference
NOT_XML = [chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"] + ["\ud800", "\udfff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", NOT_XML, ids=lambda c: f"U+{ord(c):04X}")
def test_xml_writers_reject_characters_xml_forbids(ontologies, char):
    annotated = annotate_surfaces(["OtrAn", f"a{char}b"], *ontologies)
    message = f"cannot write XML for utterance 'u': U+{ord(char):04X} is not allowed in XML 1.0"
    with pytest.raises(XMLCharacterError) as err:
        annotated_to_xml([annotated])
    assert str(err.value) == message
    with pytest.raises(XMLCharacterError):
        interpreted_to_xml([interpret(annotated, *ontologies)])
    assert f"a{char}b" in annotated_to_tsv([annotated])  # TSV holds any character


@settings(max_examples=200)
@given(st.text(min_size=1, max_size=6), st.text(min_size=1, max_size=6))
def test_xml_writers_write_well_formed_xml_or_raise(ontologies, uid, surface):
    annotated = annotate_surfaces([surface, "OtrAn"], *ontologies, uid=uid)
    try:
        text = interpreted_to_xml([interpret(annotated, *ontologies)])
    except XMLCharacterError as err:
        assert any(char in uid + surface for char in NOT_XML)
        # one line that names the utterance, whatever its id holds
        assert str(err).startswith(f"cannot write XML for utterance {uid!r}: ")
        assert len(str(err).splitlines()) == 1
        return
    utterance = ET.fromstring(text).find("utterance")
    assert (utterance.get("id"), utterance.find("token").get("value")) == (uid, surface)


# the characters XML escaping treats specially, beside plain letters and Arabic
XML_TEXT = st.text(st.sampled_from("&<>\"'\n\r\t") | st.characters(whitelist_categories=("Lu", "Ll"))
                   | st.characters(min_codepoint=0x0600, max_codepoint=0x06FF))


@given(XML_TEXT)
def test_escape_and_quoteattr_equal_the_standard_library(text):
    assert escape(text) == xml.sax.saxutils.escape(text)
    assert quoteattr(text) == xml.sax.saxutils.quoteattr(text)


def test_import_leaves_out_the_network_stack():
    """`xml.sax.saxutils` imports `urllib.request`; the package escapes XML
    itself so that no process importing it loads the network stack."""
    code = ("import sys, ontosem.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'email', 'ssl') if m in sys.modules))")
    assert run_python(code) == "[]\n"
