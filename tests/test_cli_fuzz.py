"""Generated junk through every input option of the CLI, in process.

Each of --domain, --task, --tables, --in and --gold is the bundled file, random
bytes, a random JSON value, or the bundled file with one field replaced by a
random JSON value (a JSON document) or random text (a TSV file). Whatever the
files hold, `cli.main` must return a documented exit code and let no
exception escape, and any XML it writes must be well-formed. A refusal (any
non-zero exit but `validate`'s findings, exit 2) prints one stderr line that
starts with `ontosem: ` and writes no --out file.
"""

import contextlib
import io
import json
import xml.etree.ElementTree as ET

from hypothesis import HealthCheck, given, settings, strategies as st

from ontosem import samples
from ontosem.cli import main

BUNDLED = {
    "--domain": samples.domain_ontology_path(),
    "--task": samples.task_ontology_path(),
    "--tables": samples.tables_path(),
    "--in": samples.corpus_path(),
    "--gold": samples.gold_path(),
}

COMMANDS = {
    "eval": ("--domain", "--task", "--tables", "--in", "--gold"),
    "interpret": ("--domain", "--task", "--tables", "--in"),
    "validate": ("--domain", "--task"),
    "export-owl": ("--domain", "--task"),
    "stats": ("--in",),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@st.composite
def replaced_json_field(draw, path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        else:
            node[key] = draw(json_values)
            return json.dumps(doc, ensure_ascii=False).encode("utf-8")


@st.composite
def replaced_tsv_field(draw, path):
    lines = path.read_text(encoding="utf-8").splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split("\t")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(st.text(max_size=8))
    lines[row] = "\t".join(fields)
    return "\n".join(lines).encode("utf-8")


def file_contents(option):
    path = BUNDLED[option]
    replaced = replaced_json_field if path.suffix == ".json" else replaced_tsv_field
    return st.one_of(
        st.just(path.read_bytes()),
        st.binary(max_size=64),
        json_values.map(lambda value: json.dumps(value).encode("utf-8")),
        replaced(path),
    )


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return command, {option: draw(file_contents(option)) for option in COMMANDS[command]}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_cli_survives_junk_inputs(tmp_path_factory, command_line):
    command, contents = command_line
    directory = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--out", str(directory / "out")]
    for option, data in contents.items():
        path = directory / option.lstrip("-")
        path.write_bytes(data)
        argv += [option, str(path)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in {0, 1, 2, 3}
    if code != 0 and (command, code) != ("validate", 2):
        message = stderr.getvalue()
        assert message.startswith("ontosem: ") and message.count("\n") == 1 and message.endswith("\n")
        assert not (directory / "out").exists()
    if code == 0 and command in ("interpret", "export-owl"):
        ET.fromstring((directory / "out").read_bytes())
