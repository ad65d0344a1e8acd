"""Property-based and unit tests for the cut-layer payload codecs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.channel import PayloadModel
from repro.split.codecs import (
    CODEC_NAMES,
    DOWNLINK_STREAM,
    UPLINK_STREAM,
    IdentityCodec,
    TopKCodec,
    UniformQuantizerCodec,
    codec_from_name,
    encode_decode_stacked,
)

TENSORS = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
    elements=st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
    ),
)


# -- identity -------------------------------------------------------------------------


@given(TENSORS)
@settings(max_examples=60, deadline=None)
def test_identity_is_exact_and_full_width(values):
    codec = IdentityCodec(bits_per_value=32)
    decoded, bits = codec.encode_decode(values, UPLINK_STREAM)
    assert decoded is values
    assert bits == values.size * 32
    assert codec.preview(values) is values
    assert codec.state_dict() == {}


def test_identity_bits_match_payload_model():
    # The invariant the goldens rely on: identity sizing is exactly the
    # pre-codec PayloadModel arithmetic.
    payload = PayloadModel(pooling_height=2, pooling_width=2)
    batch = 16
    elements = payload.values_per_image * payload.sequence_length * batch
    codec = IdentityCodec(bits_per_value=payload.bits_per_value)
    assert codec.sized_payload_bits(elements) == payload.uplink_payload_bits(batch)


# -- uniform quantizer ----------------------------------------------------------------


@given(TENSORS, st.sampled_from([2, 4, 8]))
@settings(max_examples=80, deadline=None)
def test_quantizer_error_bounded_by_half_step(values, bits):
    codec = UniformQuantizerCodec(bits)
    decoded, payload_bits = codec.encode_decode(values, UPLINK_STREAM)
    low, high = float(values.min()), float(values.max())
    if high == low:
        np.testing.assert_array_equal(decoded, np.full_like(values, low))
    else:
        step = (high - low) / (2**bits - 1)
        assert np.abs(decoded - values).max() <= step / 2 + 1e-12 * abs(high - low)
    assert payload_bits == values.size * bits + 64
    assert decoded.shape == values.shape


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_quantizer_passes_an_underflowing_subnormal_range_through(bits):
    # (high - low) / levels underflows to 0 here: no NaN, and no error.
    values = np.array([0.0, 5e-324, 0.0])
    decoded, _ = UniformQuantizerCodec(bits).encode_decode(values, UPLINK_STREAM)
    np.testing.assert_array_equal(decoded, values)


@given(TENSORS)
@settings(max_examples=40, deadline=None)
def test_quantizer_preview_matches_encode_decode(values):
    codec = UniformQuantizerCodec(8)
    decoded, _ = codec.encode_decode(values, UPLINK_STREAM)
    np.testing.assert_array_equal(codec.preview(values), decoded)


def test_quantizer_preserves_range_endpoints():
    values = np.array([0.0, 0.3, 0.7, 1.0])
    decoded, _ = UniformQuantizerCodec(4).encode_decode(values, UPLINK_STREAM)
    assert decoded[0] == 0.0
    assert decoded[-1] == 1.0


# -- top-k with error feedback --------------------------------------------------------


@given(TENSORS, st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_topk_support_size_and_sized_bound(values, fraction):
    codec = TopKCodec(fraction=fraction)
    decoded, bits = codec.encode_decode(values, UPLINK_STREAM)
    k = codec.keep_count(values.size)
    assert np.count_nonzero(decoded) <= k
    # The data-dependent payload never exceeds the deterministic bound the
    # protocol uses to size the downlink before the gradient exists.
    assert bits <= codec.sized_payload_bits(values.size)
    assert decoded.shape == values.shape


@given(
    st.lists(
        hnp.arrays(
            dtype=np.float64,
            shape=(24,),
            elements=st.floats(
                min_value=-10.0,
                max_value=10.0,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_topk_error_feedback_telescopes(tensors):
    # Sum of decoded outputs == sum of inputs + (initial - final residual):
    # the per-step bias cancels over a run instead of accumulating.
    codec = TopKCodec(fraction=0.25)
    decoded_sum = np.zeros(24)
    for values in tensors:
        decoded, _ = codec.encode_decode(values, UPLINK_STREAM)
        decoded_sum += decoded
    final_residual = codec.state_dict()["residuals"][UPLINK_STREAM]
    np.testing.assert_allclose(
        decoded_sum + final_residual, np.sum(tensors, axis=0), atol=1e-9
    )


def test_topk_streams_have_independent_residuals():
    codec = TopKCodec(fraction=0.5)
    up = np.array([1.0, 0.1, 0.2, 3.0])
    down = np.array([-2.0, 0.5, 0.0, 0.4])
    codec.encode_decode(up, UPLINK_STREAM)
    codec.encode_decode(down, DOWNLINK_STREAM)
    residuals = codec.state_dict()["residuals"]
    assert set(residuals) == {UPLINK_STREAM, DOWNLINK_STREAM}
    assert not np.array_equal(residuals[UPLINK_STREAM], residuals[DOWNLINK_STREAM])


def test_topk_residual_resets_on_shape_change():
    codec = TopKCodec(fraction=0.5)
    codec.encode_decode(np.arange(8.0), UPLINK_STREAM)
    decoded, _ = codec.encode_decode(np.arange(4.0), UPLINK_STREAM)
    # A fresh (zero) residual: the short batch is plain top-k of its input.
    np.testing.assert_array_equal(decoded, TopKCodec(fraction=0.5).preview(np.arange(4.0)))


def test_topk_preview_does_not_advance_residual():
    codec = TopKCodec(fraction=0.5)
    codec.encode_decode(np.arange(8.0), UPLINK_STREAM)
    before = codec.state_dict()
    codec.preview(np.arange(8.0) * 3.0)
    after = codec.state_dict()
    np.testing.assert_array_equal(
        before["residuals"][UPLINK_STREAM], after["residuals"][UPLINK_STREAM]
    )


def test_topk_state_round_trip():
    codec = TopKCodec(fraction=0.25)
    rng = np.random.default_rng(3)
    for _ in range(3):
        codec.encode_decode(rng.normal(size=16), UPLINK_STREAM)
    state = codec.state_dict()

    restored = TopKCodec(fraction=0.25)
    restored.load_state_dict(state)
    probe = rng.normal(size=16)
    decoded_a, bits_a = codec.encode_decode(probe, UPLINK_STREAM)
    decoded_b, bits_b = restored.encode_decode(probe, UPLINK_STREAM)
    np.testing.assert_array_equal(decoded_a, decoded_b)
    assert bits_a == bits_b
    # The captured state is a snapshot, not a view of the live buffers.
    state["residuals"][UPLINK_STREAM][:] = 99.0
    decoded_c, _ = restored.encode_decode(probe, UPLINK_STREAM)
    assert not np.array_equal(decoded_c, np.full(16, 99.0))


# -- registry -------------------------------------------------------------------------


@pytest.mark.parametrize("name", CODEC_NAMES)
def test_registry_round_trip(name):
    codec = codec_from_name(name)
    assert codec.name == name
    values = np.linspace(0.0, 1.0, 32).reshape(4, 8)
    decoded, bits = codec.encode_decode(values, UPLINK_STREAM)
    assert decoded.shape == values.shape
    assert bits > 0


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown codec"):
        codec_from_name("gzip")


@pytest.mark.parametrize(
    "factory",
    [
        lambda: IdentityCodec(bits_per_value=0),
        lambda: UniformQuantizerCodec(0),
        lambda: TopKCodec(fraction=0.0),
        lambda: TopKCodec(fraction=1.5),
        lambda: TopKCodec(bits_per_value=-1),
    ],
)
def test_invalid_parameters_rejected(factory):
    with pytest.raises(ValueError):
        factory()


# -- stacked (fleet) encode/decode --------------------------------------------------


def _member_loop(codec_factory, values, stream):
    codecs = [codec_factory() for _ in values]
    decoded = np.empty_like(values)
    bits = np.empty(len(values))
    for member, codec in enumerate(codecs):
        decoded[member], bits[member] = codec.encode_decode(values[member], stream)
    return decoded, bits


@pytest.mark.parametrize(
    "codec_factory",
    [
        lambda: IdentityCodec(),
        lambda: UniformQuantizerCodec(8),
        lambda: UniformQuantizerCodec(4),
    ],
)
def test_stacked_homogeneous_matches_member_loop(codec_factory):
    rng = np.random.default_rng(6)
    values = rng.standard_normal((5, 3, 2, 4))
    values[2] = 1.25  # one constant member tensor (degenerate range)
    codecs = [codec_factory() for _ in range(5)]
    decoded, bits = encode_decode_stacked(codecs, values, UPLINK_STREAM)
    expected_decoded, expected_bits = _member_loop(
        codec_factory, values, UPLINK_STREAM
    )
    assert np.array_equal(decoded, expected_decoded)
    assert np.array_equal(bits, expected_bits)


def test_stacked_quantizer_passes_a_subnormal_range_through():
    """A member whose level spacing underflows to zero is passed through, as
    the scalar codec does, next to a member quantized as usual."""
    codec = UniformQuantizerCodec(8)
    values = np.stack(
        [
            np.array([0.0, 1e-322, 3e-322, 5e-322]),
            np.array([0.0, 0.25, 0.5, 1.0]),
        ]
    )
    decoded, _ = encode_decode_stacked([codec, codec], values, UPLINK_STREAM)
    for member in range(2):
        expected, _ = codec.encode_decode(values[member], UPLINK_STREAM)
        np.testing.assert_array_equal(decoded[member], expected)
    np.testing.assert_array_equal(decoded[0], values[0])


def test_stacked_topk_advances_per_member_residuals():
    """Stateful codecs fall back to the member loop on the canonical objects."""
    rng = np.random.default_rng(9)
    stacked_codecs = [TopKCodec(fraction=0.25) for _ in range(3)]
    loop_codecs = [TopKCodec(fraction=0.25) for _ in range(3)]
    for _ in range(4):
        values = rng.standard_normal((3, 2, 8))
        decoded, bits = encode_decode_stacked(
            stacked_codecs, values, DOWNLINK_STREAM
        )
        for member, codec in enumerate(loop_codecs):
            expected_decoded, expected_bits = codec.encode_decode(
                values[member], DOWNLINK_STREAM
            )
            assert np.array_equal(decoded[member], expected_decoded)
            assert bits[member] == expected_bits
    for stacked_codec, loop_codec in zip(stacked_codecs, loop_codecs):
        assert np.array_equal(
            stacked_codec._residuals[DOWNLINK_STREAM],
            loop_codec._residuals[DOWNLINK_STREAM],
        )


def test_stacked_mixed_codecs_fall_back_to_member_loop():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((2, 4, 4))
    codecs = [IdentityCodec(), UniformQuantizerCodec(8)]
    decoded, bits = encode_decode_stacked(codecs, values, UPLINK_STREAM)
    assert np.array_equal(decoded[0], values[0])
    expected, expected_bits = UniformQuantizerCodec(8).encode_decode(
        values[1], UPLINK_STREAM
    )
    assert np.array_equal(decoded[1], expected)
    assert bits[1] == expected_bits


def test_stacked_accepts_unequal_member_lists():
    """A list of unequal per-member tensors runs member-wise and stays a list."""
    rng = np.random.default_rng(4)
    values = [rng.standard_normal((16, 3)), rng.standard_normal((15, 3))]
    for codec_factory in (IdentityCodec, lambda: UniformQuantizerCodec(8)):
        decoded, bits = encode_decode_stacked(
            [codec_factory(), codec_factory()], values, UPLINK_STREAM
        )
        assert isinstance(decoded, list)
        for member, value in enumerate(values):
            expected, expected_bits = codec_factory().encode_decode(
                value, UPLINK_STREAM
            )
            assert np.array_equal(decoded[member], expected)
            assert bits[member] == expected_bits


def test_stacked_validates_member_count():
    with pytest.raises(ValueError):
        encode_decode_stacked([], np.zeros((0, 2)), UPLINK_STREAM)
    with pytest.raises(ValueError):
        encode_decode_stacked(
            [IdentityCodec()], np.zeros((2, 3)), UPLINK_STREAM
        )
