"""Shared pieces of the JSON reader fuzz tests: arbitrary JSON values, and
a way to put one anywhere inside a valid document."""

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def json_paths(value, path=()):
    """The path of every value nested in a JSON document, the root included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from json_paths(inner, path + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced; ``doc`` is
    left as it was."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy
