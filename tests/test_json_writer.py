"""`cli._dumps`, the `--format json` writer, against `json.dumps(v, indent=2)`
as its oracle: byte-identical on every document of the kind the commands
build, TypeError naming the culprit on anything else."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maxcurves import cli, gf
from test_golden import ARGVS


def oracle(doc) -> str:
    return json.dumps(doc, indent=2)


# the writer's strings: printable ASCII with no quote or backslash
texts = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                              exclude_characters='"\\'), max_size=8)
ints = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
documents = st.recursive(
    scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(ints, max_size=5),
                           st.dictionaries(st.one_of(texts, ints), kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert cli._dumps(doc) == oracle(doc)


# every kind of character: control characters, DEL, quote, backslash,
# printable ASCII, non-ASCII BMP, non-BMP and lone surrogates
chars = st.one_of(
    st.sampled_from('\x00\x01\x08\t\n\x0c\r\x1f\x7f"\\ /~aé€'),
    st.characters(),
    st.characters(min_codepoint=0x10000),
    st.integers(0xD800, 0xDFFF).map(chr),
)


@settings(max_examples=200, deadline=None)
@given(st.text(chars, max_size=8))
@example("é")  # one of each class json escapes
@example("\x00")
@example("\t")
@example("\x7f")
@example('"')
@example("a\\b")
@example("\U0001f600")
@example("\ud800")
def test_strings_that_need_an_escape_raise(s):
    """A string json.dumps would escape raises wherever it stands, value
    or key, naming it; any other string is written as json.dumps writes
    it."""
    places = [s, [s], {"k": s}, {"k": [s]}, {s: 0}, [{s: None}]]
    if json.dumps(s) == '"' + s + '"':
        for doc in places:
            assert cli._dumps(doc) == oracle(doc)
    else:
        for doc in places:
            with pytest.raises(TypeError, match=re.escape(repr(s))):
                cli._dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], [{}], {"a": {}}, {"a": []}, [[], {}], [[[]]], {"": ""},
    [True, False, 1, 0], {"x": [1, True]}, {3: False, "4": None, -1: True},
    [{1: 0}, {"1": None}, {0: 1}, {"0": 1}],  # equal key text, int and str
    [-0, -1, 2 ** 100], "top", 7, None, True,
])
def test_edge_documents(doc):
    assert cli._dumps(doc) == oracle(doc)


def _checked_run(argv, monkeypatch, capsys) -> None:
    """Run argv with each document _dumps writes held to the oracle."""
    seen = []
    dumps = cli._dumps

    def checked(doc):
        out = dumps(doc)
        assert out == oracle(doc)
        seen.append(doc)
        return out

    monkeypatch.setattr(cli, "_dumps", checked)
    assert cli.run(argv.split()) == 0
    capsys.readouterr()
    assert len(seen) == 1


@pytest.mark.parametrize("argv", [a for a in ARGVS if "--format json" in a])
def test_every_golden_document_matches_json_dumps(argv, monkeypatch, capsys):
    _checked_run(argv, monkeypatch, capsys)


@pytest.mark.parametrize("argv", ["verify gk --qbar 5 --format json",
                                  "verify fk --q 89 --format json",
                                  "verify fk --q 125 --format json"])
def test_reports_beyond_the_catalog_match_json_dumps(argv, monkeypatch, capsys):
    monkeypatch.setattr(gf, "FIELD_CAP", 5 ** 6)  # fields up to 5^6 elements
    _checked_run(argv, monkeypatch, capsys)


@pytest.mark.parametrize("doc, name", [
    ({"x": 1.5}, "float"),
    ([0.0], "float"),
    ({1.5: 1}, "float"),
    ({"s": {1, 2}}, "set"),
    ([Fraction(1, 2)], "Fraction"),
    ({Fraction(1, 2): 0}, "Fraction"),
    ({(1, 2): 0}, "tuple"),
    ({True: 1}, "bool"),
    ({None: 1}, "NoneType"),
    ([{1: 0}, {True: 0}], "bool"),  # True == 1: the key memo must not match it
    ({"x": (1, 2)}, "tuple"),
    ([[], ()], "tuple"),
    ((), "tuple"),
])
def test_other_types_raise_naming_the_type(doc, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        cli._dumps(doc)
