"""`cli._dumps`, the `--format json` writer, against `json.dumps(v, indent=2)`
as its oracle: byte-identical on every supported document, TypeError on
anything else."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxcurves import cli
from test_golden import ARGVS


def oracle(doc) -> str:
    return json.dumps(doc, indent=2)


# strings that take every escape path: control characters, DEL, quote,
# backslash, printable ASCII, non-ASCII BMP, non-BMP and lone surrogates
chars = st.one_of(
    st.sampled_from('\x00\x01\x08\t\n\x0c\r\x1f\x7f"\\ /~aé€'),
    st.characters(),
    st.characters(min_codepoint=0x10000),
    st.integers(0xD800, 0xDFFF).map(chr),
)
texts = st.text(chars, max_size=8)
ints = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
keys = st.one_of(texts, ints, st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),
                           st.lists(ints, max_size=5),
                           st.dictionaries(keys, kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert cli._dumps(doc) == oracle(doc)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_strings_escape_as_json_does(s):
    assert cli._quote(s) == json.dumps(s)
    assert cli._dumps({s: [s]}) == oracle({s: [s]})


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]], {"": ""},
    [True, False, 1, 0], {"x": [1, True]}, {True: 1, None: 2, 3: False, "4": None},
    [{1: 0}, {True: 0}, {0: 1}, {False: 1}, {"1": None}],  # equal keys, other types
    [-0, -1, 2 ** 100], "top", 7, None, True,
])
def test_edge_documents(doc):
    assert cli._dumps(doc) == oracle(doc)


@pytest.mark.parametrize("argv", [a for a in ARGVS if "--format json" in a])
def test_every_golden_document_matches_json_dumps(argv, monkeypatch, capsys):
    seen = []
    dumps = cli._dumps

    def checked(doc):
        out = dumps(doc)
        assert out == oracle(doc)
        seen.append(doc)
        return out

    monkeypatch.setattr(cli, "_dumps", checked)
    cli.run(argv.split())
    capsys.readouterr()
    assert len(seen) == 1


@pytest.mark.parametrize("doc, name", [
    ({"x": 1.5}, "float"),
    ([0.0], "float"),
    ({1.5: 1}, "float"),
    ({"s": {1, 2}}, "set"),
    ([Fraction(1, 2)], "Fraction"),
    ({Fraction(1, 2): 0}, "Fraction"),
    ({(1, 2): 0}, "tuple"),
])
def test_other_types_raise_naming_the_type(doc, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        cli._dumps(doc)
