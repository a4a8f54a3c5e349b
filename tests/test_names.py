import pytest
from hypothesis import given, strategies as st

from cdnsim.names import Name, longest_prefix_match


def test_parse_and_str_round_trip():
    n = Name(("data_file", "segment=7"))
    assert tuple(n) == ("data_file", "segment=7")
    assert str(n) == "/data_file/segment=7"


def test_root_name():
    assert str(Name(())) == "/"
    assert tuple(Name(())) == ()


def test_escaping_slash_and_percent():
    n = Name(("a/b", "c%d"))
    text = str(n)
    assert text == "/a%2Fb/c%25d"


def test_segment_accessors():
    base = Name(("data_file",))
    n = base.with_segment(42)
    assert n.segment() == 42
    assert base.segment() is None
    with pytest.raises(ValueError):
        base.with_segment(-1)


def test_segment_requires_digits():
    assert Name(("x", "segment=abc")).segment() is None
    assert Name(("x", "segment=")).segment() is None


def test_name_is_immutable_and_hashable():
    n = Name(("a", "b"))
    with pytest.raises(TypeError):
        n[0] = "c"
    assert len({n, Name(("a", "b"))}) == 1
    assert n == ("a", "b") and hash(n) == hash(("a", "b"))
    assert n != ("a",) and n != "/a/b"


component = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    min_size=1, max_size=8)
names = st.lists(component, max_size=5).map(Name)


@given(names, st.integers(min_value=0, max_value=10**9))
def test_segment_round_trip_property(name, k):
    n = name.with_segment(k)
    assert n.segment() == k


def test_lpm_examples():
    table = {
        Name(("t",)): "t",
        Name(("te",)): "te",
        Name(("te", "st")): "te/st",
    }
    assert longest_prefix_match(table, Name(("te", "st", "x"))) == "te/st"
    assert longest_prefix_match(table, Name(("te",))) == "te"
    # no component of /test equals "t" or "te"
    assert longest_prefix_match(table, Name(("test",))) is None
    assert longest_prefix_match({}, Name(("a",))) is None


def test_lpm_accepts_component_tuple_keys():
    table = {("a", "b"): 1, ("a",): 2}
    assert longest_prefix_match(table, Name(("a", "b", "c"))) == 1


@given(st.dictionaries(st.lists(component, max_size=4).map(tuple),
                       st.integers(), max_size=8),
       st.lists(component, max_size=6).map(Name))
def test_lpm_matches_brute_force(table, query):
    expected = None
    best = -1
    for comps, value in table.items():
        if tuple(query)[:len(comps)] == comps and len(comps) > best:
            best = len(comps)
            expected = value
    assert longest_prefix_match(table, query) == expected


# --- Name is a component tuple --------------------------------------------------

def _reference_str(components):
    # The text form as the original Name class formatted it.
    if not components:
        return "/"
    return "/" + "/".join(c.replace("%", "%25").replace("/", "%2F")
                          for c in components)


@given(names)
def test_name_equals_and_hashes_as_its_components(name):
    comps = tuple(name)
    assert Name(comps) == comps and comps == Name(comps)
    assert hash(Name(comps)) == hash(comps)


@given(names)
def test_str_and_repr_match_the_reference_formatter(name):
    text = _reference_str(tuple(name))
    assert str(name) == text
    assert repr(name) == f"Name({text!r})"


@given(names)
def test_slicing_a_name_gives_a_plain_tuple(name):
    assert type(name[:-1]) is tuple
    assert name[:-1] == tuple(name)[:-1]


def test_name_has_no_instance_attributes():
    n = Name(("a",))
    with pytest.raises(AttributeError):
        n.extra = 1
    assert not hasattr(n, "__dict__")


@given(names)
def test_name_pickles(name):
    # `--jobs` starts its workers with spawn, which pickles what it sends.
    import pickle
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(name, protocol))
        assert type(copy) is Name and copy == name and str(copy) == str(name)
