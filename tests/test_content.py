import pytest
from hypothesis import given, strategies as st

from cdnsim.content import ContentObject, Data, Interest, InvalidContentError
from cdnsim.names import Name

PREFIX = Name(("data_file",))


def test_single_segment_content():
    c = ContentObject(PREFIX, 100, chunk_size=8800)
    assert c.segment_count == 1
    assert c.payload_of(1) == 100
    d = c.segment_data(1)
    assert d.final_block == 1
    assert d.name == PREFIX.with_segment(1)
    assert d.wire_size == 100 + 32


def test_exact_multiple_of_chunk():
    c = ContentObject(PREFIX, 3 * 500, chunk_size=500)
    assert c.segment_count == 3
    assert [c.payload_of(k) for k in (1, 2, 3)] == [500, 500, 500]


def test_20mb_segmentation():
    c = ContentObject(PREFIX, 20 * (1 << 20), chunk_size=8800)
    assert c.segment_count == 2384
    # independent oracle: payloads must sum to the total
    total = sum(c.payload_of(k) for k in range(1, c.segment_count + 1))
    assert total == 20 * (1 << 20)
    assert c.payload_of(2384) == 20 * (1 << 20) - 2383 * 8800 == 1120


def test_payload_out_of_range():
    c = ContentObject(PREFIX, 100)
    with pytest.raises(IndexError):
        c.payload_of(0)
    with pytest.raises(IndexError):
        c.payload_of(2)


def test_invalid_content():
    with pytest.raises(InvalidContentError):
        ContentObject(PREFIX, 0)
    with pytest.raises(InvalidContentError):
        ContentObject(PREFIX, 10, chunk_size=0)


def test_interest_validation():
    with pytest.raises(ValueError):
        Interest(PREFIX.with_segment(1), nonce=1, lifetime=0)


def test_data_wire_size():
    d = Data(PREFIX.with_segment(1), payload_size=8800, signature_size=32)
    assert d.wire_size == 8832


@given(st.integers(min_value=1, max_value=10**4),
       st.integers(min_value=1, max_value=500),
       st.data())
def test_segmentation_reconstructs_total(chunk, nseg, data):
    rem = data.draw(st.integers(min_value=1, max_value=chunk))
    total = chunk * (nseg - 1) + rem
    c = ContentObject(PREFIX, total, chunk_size=chunk)
    n = c.segment_count
    assert n == nseg
    assert (n - 1) * chunk < total <= n * chunk
    assert sum(c.payload_of(k) for k in range(1, n + 1)) == total
    assert all(1 <= c.payload_of(k) <= chunk for k in range(1, n + 1))
