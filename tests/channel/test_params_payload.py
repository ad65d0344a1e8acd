"""Tests for the SL-link channel parameters and payload accounting."""
import numpy as np
import pytest

from repro.channel import LinkParams, PAPER_CHANNEL_PARAMS, PayloadModel, WirelessChannelParams


def test_paper_channel_parameter_values():
    params = PAPER_CHANNEL_PARAMS
    assert params.uplink.transmit_power_dbm == pytest.approx(7.5)
    assert params.downlink.transmit_power_dbm == pytest.approx(40.0)
    assert params.uplink.bandwidth_hz == pytest.approx(30e6)
    assert params.downlink.bandwidth_hz == pytest.approx(100e6)
    assert params.distance_m == pytest.approx(4.0)
    assert params.path_loss_exponent == pytest.approx(5.0)
    assert params.slot_duration_s == pytest.approx(1e-3)
    assert params.noise_psd_dbm_per_hz == pytest.approx(-174.0)


def test_mean_snr_formula():
    params = PAPER_CHANNEL_PARAMS
    # Manual computation of P r^-alpha / (sigma^2 W) for the uplink.
    signal_mw = 10 ** (7.5 / 10.0) * 4.0**-5
    noise_mw = 10 ** (-174.0 / 10.0) * 30e6
    assert params.mean_snr("uplink") == pytest.approx(signal_mw / noise_mw, rel=1e-9)


def test_mean_snr_uplink_around_77_db():
    snr_db = 10 * np.log10(PAPER_CHANNEL_PARAMS.mean_snr("uplink"))
    assert snr_db == pytest.approx(76.6, abs=0.5)


def test_downlink_snr_higher_than_uplink():
    params = PAPER_CHANNEL_PARAMS
    assert params.mean_snr("downlink") > params.mean_snr("uplink")


def test_direction_aliases_and_validation():
    params = PAPER_CHANNEL_PARAMS
    assert params.direction("UL") is params.uplink
    assert params.direction("downlink") is params.downlink
    with pytest.raises(ValueError):
        params.direction("sidelink")


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(transmit_power_dbm=10.0, bandwidth_hz=0.0)
    assert LinkParams(0.0, 1e6).transmit_power_mw == pytest.approx(1.0)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        WirelessChannelParams(distance_m=0.0)
    with pytest.raises(ValueError):
        WirelessChannelParams(slot_duration_s=0.0)
    with pytest.raises(ValueError):
        WirelessChannelParams(path_loss_exponent=-1.0)


@pytest.mark.parametrize(
    "field", ["distance_m", "path_loss_exponent", "slot_duration_s"]
)
def test_channel_params_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        WirelessChannelParams(**{field: float("nan")})


def test_link_params_reject_nan_bandwidth():
    with pytest.raises(ValueError, match="bandwidth_hz"):
        LinkParams(transmit_power_dbm=10.0, bandwidth_hz=float("nan"))


# -- payload model -----------------------------------------------------------------


def test_paper_payload_formula():
    """B_UL = NH*NW*B*R*L / (wH*wW) from the paper."""
    model = PayloadModel(
        image_height=40, image_width=40, pooling_height=4, pooling_width=4,
        sequence_length=4, bits_per_value=32,
    )
    expected = 40 * 40 * 64 * 32 * 4 / (4 * 4)
    assert model.uplink_payload_bits(64) == pytest.approx(expected)


def test_one_pixel_payload():
    model = PayloadModel(pooling_height=40, pooling_width=40)
    assert model.values_per_image == 1
    assert model.feature_map_height == 1 and model.feature_map_width == 1
    assert model.uplink_payload_bits(64) == pytest.approx(64 * 32 * 4)


def test_payload_scales_inversely_with_pooling_area():
    coarse = PayloadModel(pooling_height=10, pooling_width=10)
    fine = PayloadModel(pooling_height=1, pooling_width=1)
    assert fine.uplink_payload_bits(8) == pytest.approx(
        100 * coarse.uplink_payload_bits(8)
    )


def test_raw_image_payload_is_upper_bound():
    # Without pooling the payload is the raw images: N_H * N_W * B * R * L.
    no_pool = PayloadModel(pooling_height=1, pooling_width=1)
    raw_bits = (
        no_pool.image_height * no_pool.image_width * 16
        * no_pool.bits_per_value * no_pool.sequence_length
    )
    assert no_pool.uplink_payload_bits(16) == pytest.approx(raw_bits)
    model = PayloadModel(pooling_height=4, pooling_width=4)
    assert model.uplink_payload_bits(16) < raw_bits


def test_compression_ratio():
    # Pooling sends one value per w_H x w_W region of the 40 x 40 image.
    assert PayloadModel(pooling_height=4, pooling_width=4).values_per_image * 16 == 1600
    assert PayloadModel(pooling_height=40, pooling_width=40).values_per_image == 1


def test_payload_validation():
    with pytest.raises(ValueError):
        PayloadModel(pooling_height=3)  # 40 not divisible by 3
    with pytest.raises(ValueError):
        PayloadModel(bits_per_value=0)
    model = PayloadModel()
    with pytest.raises(ValueError):
        model.uplink_payload_bits(0)
