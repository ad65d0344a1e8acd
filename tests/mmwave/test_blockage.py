"""Tests for the human-body blockage models."""
import numpy as np
import pytest

from repro.mmwave import (
    KnifeEdgeBlockageModel,
    PiecewiseLinearBlockageModel,
    fresnel_parameter,
    knife_edge_loss_db,
)
from repro.scene.environment import BlockerArrays, BlockerGeometry


def make_blocker(clearance, d_tx=2.0, d_rx=2.0, width=0.5, blocking=None):
    if blocking is None:
        blocking = clearance <= width / 2.0
    return BlockerGeometry(
        blocking=blocking,
        clearance_m=clearance,
        distance_from_tx_m=d_tx,
        distance_from_rx_m=d_rx,
        body_width_m=width,
    )


def test_knife_edge_loss_zero_below_threshold():
    assert knife_edge_loss_db(-1.0) == pytest.approx(0.0)
    assert knife_edge_loss_db(-0.79) == pytest.approx(0.0)


def test_knife_edge_loss_value_at_zero():
    # Grazing incidence: the classical 6 dB knife-edge loss (ITU formula ~6.0).
    assert knife_edge_loss_db(0.0) == pytest.approx(6.0, abs=0.5)


def test_knife_edge_loss_monotone_increasing():
    values = knife_edge_loss_db(np.linspace(-0.5, 5.0, 30))
    assert np.all(np.diff(values) >= -1e-9)


def test_fresnel_parameter_sign_and_scale():
    v_inside = fresnel_parameter(0.25, 2.0, 2.0, 60e9)
    v_outside = fresnel_parameter(-0.25, 2.0, 2.0, 60e9)
    assert v_inside > 0 > v_outside
    assert v_inside == pytest.approx(-v_outside)
    # At 60 GHz the Fresnel zone is tiny, so 25 cm is many Fresnel radii.
    assert v_inside > 3.0


def test_fresnel_parameter_validation():
    with pytest.raises(ValueError):
        fresnel_parameter(0.1, 0.0, 2.0, 60e9)


def test_knife_edge_model_deep_shadow_attenuation():
    model = KnifeEdgeBlockageModel()
    [attenuation] = model.body_attenuations_db(BlockerArrays.from_lists([[make_blocker(0.0)]]))
    assert 15.0 <= attenuation <= model.max_attenuation_db


def test_knife_edge_model_clear_path_no_attenuation():
    model = KnifeEdgeBlockageModel()
    [attenuation] = model.body_attenuations_db(BlockerArrays.from_lists([[make_blocker(1.5)]]))
    assert attenuation == pytest.approx(0.0, abs=0.1)


def test_knife_edge_model_monotone_in_clearance():
    model = KnifeEdgeBlockageModel()
    clearances = [0.0, 0.1, 0.2, 0.3, 0.5, 1.0]
    rows = BlockerArrays.from_lists([[make_blocker(c) for c in clearances]])
    attenuations = model.body_attenuations_db(rows)
    assert np.all(np.diff(attenuations) <= 1e-9)


def test_knife_edge_model_total_capped_for_multiple_bodies():
    model = KnifeEdgeBlockageModel(max_attenuation_db=20.0)
    blockers = [make_blocker(0.0, d_tx=1.0, d_rx=3.0), make_blocker(0.0, d_tx=3.0, d_rx=1.0)]
    rows = BlockerArrays.from_lists([blockers])
    [total] = model.frame_attenuations_db(rows)
    assert total <= 1.5 * model.max_attenuation_db + 1e-9
    assert total >= model.body_attenuations_db(rows)[0] - 1e-9


def test_knife_edge_model_no_blockers():
    rows = BlockerArrays.from_lists([[]])
    assert KnifeEdgeBlockageModel().frame_attenuations_db(rows).tolist() == [0.0]


def test_knife_edge_model_validation():
    with pytest.raises(ValueError):
        KnifeEdgeBlockageModel(frequency_hz=0.0)
    with pytest.raises(ValueError):
        KnifeEdgeBlockageModel(max_attenuation_db=0.0)


def test_piecewise_model_regions():
    model = PiecewiseLinearBlockageModel(
        max_attenuation_db=20.0, inner_clearance_m=0.2, outer_clearance_m=0.6
    )
    rows = BlockerArrays.from_lists([[make_blocker(c) for c in (0.0, 0.1, 0.4, 0.8)]])
    attenuations = model.body_attenuations_db(rows)
    assert attenuations.tolist() == pytest.approx([20.0, 20.0, 10.0, 0.0])


def test_piecewise_model_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearBlockageModel(inner_clearance_m=0.7, outer_clearance_m=0.6)
    with pytest.raises(ValueError):
        PiecewiseLinearBlockageModel(max_attenuation_db=-1.0)


def test_both_models_agree_on_qualitative_shape():
    knife = KnifeEdgeBlockageModel()
    piecewise = PiecewiseLinearBlockageModel()
    for model in (knife, piecewise):
        rows = BlockerArrays.from_lists([[make_blocker(0.0)], [make_blocker(1.5)]])
        blocked, clear = model.frame_attenuations_db(rows)
        assert blocked > 10.0
        assert clear < 1.0
