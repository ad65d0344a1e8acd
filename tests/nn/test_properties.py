"""Property-based tests (hypothesis) for core nn invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Dense, MeanSquaredError, ReLU, average_pool
from repro.nn.layers.activations import stable_sigmoid

FINITE = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(
    arrays(dtype=np.float64, shape=array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8), elements=FINITE)
)
@settings(max_examples=40, deadline=None)
def test_relu_output_nonnegative_and_idempotent(values):
    layer = ReLU()
    output = layer.forward(values)
    assert np.all(output >= 0.0)
    assert np.allclose(layer.forward(output), output)


@given(
    arrays(dtype=np.float64, shape=(4, 6), elements=FINITE)
)
@settings(max_examples=40, deadline=None)
def test_sigmoid_bounded_and_monotone(values):
    output = stable_sigmoid(values)
    assert np.all((output >= 0.0) & (output <= 1.0))
    shifted = stable_sigmoid(values + 1.0)
    assert np.all(shifted >= output - 1e-12)


@given(
    arrays(dtype=np.float64, shape=(2, 1, 4, 4), elements=FINITE),
    st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_average_pooling_preserves_global_mean(images, pool):
    output = average_pool(images, pool)
    assert np.allclose(output.mean(), images.mean(), atol=1e-9)


@given(
    arrays(dtype=np.float64, shape=(5, 3), elements=FINITE),
    arrays(dtype=np.float64, shape=(5, 3), elements=FINITE),
)
@settings(max_examples=40, deadline=None)
def test_mse_nonnegative_and_symmetric(predictions, targets):
    loss = MeanSquaredError()
    forward = loss.forward(predictions, targets)
    backward_order = loss.forward(targets, predictions)
    assert forward >= 0.0
    assert np.isclose(forward, backward_order)


@given(
    arrays(dtype=np.float64, shape=(4, 5), elements=FINITE),
    arrays(dtype=np.float64, shape=(4, 5), elements=FINITE),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_dense_is_linear_operator(inputs_a, inputs_b, scale):
    layer = Dense(5, 3, seed=0)
    layer.bias.value[...] = 0.0  # without its offset the affine map is linear
    combined = layer.forward(inputs_a + scale * inputs_b)
    separate = layer.forward(inputs_a) + scale * layer.forward(inputs_b)
    assert np.allclose(combined, separate, atol=1e-8)


@given(arrays(dtype=np.float64, shape=(6, 4), elements=FINITE))
@settings(max_examples=40, deadline=None)
def test_dense_batch_independence(inputs):
    layer = Dense(4, 2, seed=1)
    full = layer.forward(inputs)
    per_sample = np.vstack([layer.forward(row[None, :]) for row in inputs])
    assert np.allclose(full, per_sample, atol=1e-10)
