"""Stacked passes cut into blocks of members, against the member-loop oracle.

Each stacked pass of :class:`~repro.fleet.bank.StackedUEBank` runs the UE
network over blocks of consecutive members whose column buffer fits
:data:`repro.fleet.bank.BLOCK_BYTES`, one whole block at a time; backward
recomputes the state of every block but the one its buffers still hold.  At
the test geometries every pass fits one block,
so these tests patch the budget (as other tests patch the CPU count) to one
member per block, two members per block (with an uneven last block) and the
whole pass, and check bit for bit: the bank against
``tests/fleet/member_loop_oracle.py`` over equal and uneven shards, every
codec family, 1 and 2 workers and kernel sizes 1, 3 and 5; an interrupted and
resumed fit against an uninterrupted one; and ``UEClient.backward`` after
``forward``.  A last test bounds the memory of two N=260 bank steps.
"""
import tracemalloc

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetTrainer, bank, shard_indices
from repro.fleet.bank import StackedUEBank
from repro.split import ExperimentConfig, TrainingConfig
from repro.split.config import ModelConfig
from repro.split.ue import UEClient
from repro.utils import parallel

from tests.fleet.member_loop_oracle import MemberNetwork
from tests.fleet.test_fleet_batched import _assert_bank_matches_oracle, _assert_same_run

MAX_ROUNDS = 2

#: Members per block the patched budget fits (``None``: the whole pass).
BUDGETS = [
    pytest.param(1, id="one-member"),
    pytest.param(2, id="two-members"),
    pytest.param(None, id="whole-pass"),
]


def _config(kernel_size=3, codec="identity"):
    # Two hidden convolutions, so backward recomputes the columns of a conv
    # whose input gradient it also computes.
    return ExperimentConfig(
        model=ModelConfig(
            image_height=12,
            image_width=12,
            pooling_height=4,
            pooling_width=4,
            cnn_channels=(2, 3),
            cnn_kernel_size=kernel_size,
            rnn_hidden_size=8,
            head_hidden_size=4,
            codec=codec,
        ),
        training=TrainingConfig(
            batch_size=16, max_epochs=MAX_ROUNDS, steps_per_epoch=2, seed=5
        ),
    )


def _member_bytes(model: ModelConfig, frames: int) -> int:
    """One member's widest float64 column buffer at ``frames`` frames."""
    channels = (1,) + tuple(model.cnn_channels)
    rows = max(channels) * model.cnn_kernel_size**2
    return frames * rows * model.image_height * model.image_width * 8


def _set_budget(monkeypatch, members_per_block, config):
    """Patch the budget to fit ``members_per_block`` of the config's largest
    batches (``None``: every pass in one block)."""
    if members_per_block is None:
        budget = 1 << 62
    else:
        frames = config.training.batch_size * config.model.sequence_length
        budget = members_per_block * _member_bytes(config.model, frames)
    monkeypatch.setattr(bank, "BLOCK_BYTES", budget)


def _block_sizes(trainer):
    return [
        [block.stop - block.start for block in cache["blocks"]]
        for _, cache in trainer.fleet.bank._passes
    ]


def _expected_blocks(pass_members, members_per_block):
    size = members_per_block or pass_members
    whole, rest = divmod(pass_members, size)
    return [size] * whole + ([rest] if rest else [])


@pytest.mark.parametrize("members_per_block", BUDGETS)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "num_ues, batch_sizes",
    [(7, {16: 7}), (12, {15: 2, 16: 10})],
    ids=["equal-n7", "uneven-n12"],
)
def test_blocked_bank_matches_the_member_oracle(
    monkeypatch, small_split, members_per_block, workers, num_ues, batch_sizes
):
    monkeypatch.setattr(parallel, "_available_cpus", lambda: workers)
    shards = shard_indices(len(small_split.train), num_ues)
    sizes = [min(16, len(shard)) for shard in shards]
    assert {size: sizes.count(size) for size in set(sizes)} == batch_sizes
    # Every codec family and kernel size, each once per budget and shard mix.
    for codec, kernel_size in (("identity", 1), ("uint8", 3), ("topk", 5)):
        config = _config(kernel_size, codec)
        _set_budget(monkeypatch, members_per_block, config)
        trainer, _ = _assert_bank_matches_oracle(config, small_split, num_ues)
        assert _block_sizes(trainer) == [
            _expected_blocks(len(np.arange(num_ues)[selector]), members_per_block)
            for selector, _ in trainer.fleet.bank._passes
        ]


@pytest.mark.parametrize("members_per_block", BUDGETS)
def test_blocked_resume_is_bit_identical(
    monkeypatch, small_split, tmp_path, members_per_block
):
    config = _config()
    _set_budget(monkeypatch, members_per_block, config)
    fleet_config = FleetConfig(num_ues=7, mode="parallel_average")
    reference_trainer = FleetTrainer(config, fleet_config)
    reference = reference_trainer.fit(
        small_split.train, small_split.validation, max_rounds=MAX_ROUNDS
    )
    path = tmp_path / "interrupted.npz"
    FleetTrainer(config, fleet_config).fit(
        small_split.train,
        small_split.validation,
        max_rounds=MAX_ROUNDS - 1,
        checkpoint_path=path,
    )
    resumed_trainer = FleetTrainer(config, fleet_config)
    resumed = resumed_trainer.fit(
        small_split.train,
        small_split.validation,
        max_rounds=MAX_ROUNDS,
        resume_from=path,
    )
    _assert_same_run(resumed_trainer, resumed, reference_trainer, reference)


@pytest.mark.parametrize("members_per_block", BUDGETS)
def test_client_backward_after_forward(monkeypatch, members_per_block):
    config = _config()
    _set_budget(monkeypatch, members_per_block, config)
    rng = np.random.default_rng(3)
    client = UEClient(config.model, TrainingConfig(), seed=2)
    oracle = MemberNetwork(client)
    images = rng.random((16, config.model.sequence_length, 12, 12))
    features = client.forward(images)
    assert np.array_equal(features, oracle.forward(images))
    gradient = rng.standard_normal(features.shape)
    client.backward(gradient)
    oracle.backward(gradient)
    for param, expected in zip(client.cnn.parameters(), oracle.parameters):
        assert np.array_equal(param.grad, expected.grad), param.name


def test_only_cut_passes_recompute_columns(monkeypatch):
    """A bank of one runs one block and recomputes nothing; a pass cut into
    k blocks recomputes k - 1 blocks per backward, starting from the block
    whose state the buffers hold, and a second backward gives the same
    gradients bit for bit."""
    config = _config()
    recomputed = []
    original = bank.ue_forward

    def counting(*args, _block=None, **kwargs):
        if _block is not None:
            recomputed.append(_block)
        return original(*args, _block=_block, **kwargs)

    monkeypatch.setattr(bank, "ue_forward", counting)
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    client = UEClient(config.model, config.training, seed=0)
    initial = [param.value for param in client.cnn.parameters()]
    rng = np.random.default_rng(0)
    images = rng.random((3, 16, 4, 12, 12))

    one = StackedUEBank.broadcast(client.plan, initial, 1, config.training)
    features = one.forward(images[:1])
    one.backward(np.ones_like(features))
    assert recomputed == []

    _set_budget(monkeypatch, 1, config)
    fleet = StackedUEBank.broadcast(client.plan, initial, 3, config.training)
    features = fleet.forward(images)
    (_, cache), = fleet._passes
    assert len(cache["blocks"]) == 3
    fleet.backward(np.ones_like(features))
    grads = [grad.copy() for grad in fleet._grads]
    assert recomputed == [1, 0]  # block 2 is still in the buffers
    fleet.backward(np.ones_like(features))
    assert all(map(np.array_equal, fleet._grads, grads))
    assert recomputed == [1, 0, 2, 1]  # then block 0 is


def test_n260_bank_steps_stay_cache_sized(monkeypatch):
    """Two N=260 bank steps at fast geometry on one worker: the tracemalloc
    peak stays far below the whole fleet's columns (about 437 MiB when every
    pass held them) and its padded inputs (about 105 MiB when every pass
    held those), the pass holds column buffers of at most two blocks per
    conv step, and no cache entry grows with channels x members x frames."""
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    members, batch, length = 260, 2, 4
    model = ModelConfig(
        image_height=20,
        image_width=20,
        pooling_height=20,
        pooling_width=20,
        cnn_channels=(4,),
        cnn_kernel_size=3,
        sequence_length=length,
    )
    training = TrainingConfig()
    client = UEClient(model, training, seed=0)
    initial = [param.value for param in client.cnn.parameters()]
    stacked = StackedUEBank.broadcast(client.plan, initial, members, training)
    images = np.random.default_rng(0).random((members, batch, length, 20, 20))
    tracemalloc.start()
    try:
        for _ in range(2):
            features = stacked.forward(images)
            stacked.backward(np.ones_like(features))
            stacked.apply_updates(np.ones(members, dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"{peak / 2**20:.0f} MiB"

    (_, cache), = stacked._passes
    block_members = cache["blocks"][0].stop - cache["blocks"][0].start
    block_bytes = block_members * _member_bytes(model, batch * length)
    assert block_bytes <= bank.BLOCK_BYTES
    convs = [step for step, spec in enumerate(client.plan.steps) if spec[0] == "conv"]
    for step in convs:
        columns = [
            value.nbytes
            for key, value in cache.items()
            if key in (f"cols/{step}", f"grad_cols/{step}")
        ]
        assert columns and sum(columns) <= 2 * block_bytes, step
    # The one-channel pass-sized arrays (images, sigmoid output) stay; every
    # conv's padded input, output and columns, and every ReLU mask, is
    # block-sized.
    multi_channel = max(model.cnn_channels) * members * batch * length * 20 * 20
    sizes = {
        key: value.size for key, value in cache.items() if isinstance(value, np.ndarray)
    }
    assert all(size < multi_channel for size in sizes.values()), sizes
