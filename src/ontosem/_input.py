"""How every input file is read. Each step raises the calling loader's own
`error` class with a one-line message that starts with the file at fault."""

from __future__ import annotations

import json
import re
from pathlib import Path

FORMAT_VERSION = 1

# a JSON escape of a UTF-16 surrogate; only a text holding one can decode to
# a string that is not valid Unicode (a lone surrogate cannot be written out)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}")


def read(path: Path, error: type[Exception], parse=json.loads):
    """`parse` (JSON by default) applied to the text of UTF-8 file `path`."""
    try:
        text = path.read_text(encoding="utf-8")
        doc = parse(text)
        if _SURROGATE_ESCAPE.search(text):
            # paired surrogates decode to one character; a lone one stays
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8: {err.reason} at byte {err.start}") from None
    except UnicodeEncodeError as err:
        escape = f"\\u{ord(err.object[err.start]):04x}"
        raise error(f"{path}: string escape {escape} is not valid Unicode (a lone surrogate)") from None
    except json.JSONDecodeError as err:
        raise error(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply") from None


def reader(doc: object, source: str, error: type[Exception]):
    """Check the header of `doc`; return the readers of its sections and fields."""
    if not isinstance(doc, dict):
        raise error(f"{source}: top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
        raise error(f"{source}: unsupported format_version {version!r} (expected {FORMAT_VERSION})")

    def records(key: str) -> list[dict]:
        value = doc.get(key, [])  # an absent section is empty
        if not isinstance(value, list) or any(not isinstance(r, dict) for r in value):
            raise error(f"{source}: {key!r} must be an array of objects")
        return value

    def field(record: dict, key: str, where: str, default=..., array=False):
        """A string, or with `array` a tuple from an array of strings. Absent
        gives `default` (`...`: required); so does null if `default` is None."""
        value = record.get(key, default)
        if value is ...:
            raise error(f"{source}: {where} record missing {key!r}")
        if array and isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        if value is default or (not array and isinstance(value, str)):
            return value
        raise error(f"{source}: {where} {key!r} must be {'an array of strings' if array else 'a string'}")

    return records, field
