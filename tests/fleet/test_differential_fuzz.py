"""Random fleets at smoke geometry: the engine against its oracles.

One Hypothesis suite draws the fleet shape (size, mode, scheduler), the
payload codec, the retransmission cap, uneven shards and the round after
which a run is interrupted, and checks two identities bit for bit:

* the engine (every UE step in :class:`~repro.fleet.bank.StackedUEBank`)
  against the same fit with every UE step taken by the per-member
  :class:`~tests.fleet.member_loop_oracle.MemberLoop`;
* a run checkpointed after the drawn round and resumed in a fresh trainer
  against the uninterrupted run.

Both compare histories and whole flattened state trees.  The link is lossy
(unpooled payloads over a 32 m link with a weak downlink), so the cap
decides how many uplinks, downlinks and whole steps are lost.

The suite runs twice: with the bank's own block budget, which fits every
drawn fleet in one block per pass, and with a budget of one member per
block, so backward recomputes the forward of every member of a pass but the
one whose state the block buffers still hold.
"""
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import PAPER_CHANNEL_PARAMS
from repro.channel.params import LinkParams
from repro.fleet import FLEET_MODES, FleetConfig, FleetTrainer, bank
from repro.fleet.scheduler import SCHEDULERS
from repro.split import ExperimentConfig

from tests.fleet.member_loop_oracle import oracle_trainer
from tests.fleet.test_fleet_batched import _assert_same_run

ROUNDS = 3


def _config(smoke_scale, codec, max_retransmissions):
    return ExperimentConfig(
        model=dataclasses.replace(
            smoke_scale.base_model_config().with_pooling(1), codec=codec
        ),
        training=dataclasses.replace(
            smoke_scale.training_config(),
            max_epochs=ROUNDS,
            max_retransmissions=max_retransmissions,
        ),
        channel=dataclasses.replace(
            PAPER_CHANNEL_PARAMS,
            distance_m=32.0,
            downlink=LinkParams(transmit_power_dbm=-10.0, bandwidth_hz=100e6),
        ),
    )


@settings(max_examples=12, deadline=None)
@given(
    num_ues=st.integers(1, 5),
    mode=st.sampled_from(FLEET_MODES),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    codec=st.sampled_from(["identity", "uint8", "topk"]),
    max_retransmissions=st.sampled_from([0, 1, 8]),
    short_by=st.integers(0, 4),
    interrupt_after=st.integers(1, ROUNDS - 1),
)
def test_random_fleets_match_the_oracle_and_resume_bitwise(
    smoke_scale,
    smoke_split,
    tmp_path_factory,
    num_ues,
    mode,
    scheduler,
    codec,
    max_retransmissions,
    short_by,
    interrupt_after,
):
    config = _config(smoke_scale, codec, max_retransmissions)
    fleet_config = FleetConfig(num_ues=num_ues, mode=mode, scheduler=scheduler)
    train = smoke_split.train
    # Uneven shards: strided shards of N*B - r windows hold B or B - 1 each.
    short_by = min(short_by, num_ues - 1)
    if short_by:
        windows = num_ues * config.training.batch_size - short_by
        train = train.subset(range(windows))
    data = (train, smoke_split.validation)

    trainer = FleetTrainer(config, fleet_config)
    history = trainer.fit(*data, max_rounds=ROUNDS)
    oracle = oracle_trainer(config, fleet_config)
    oracle_history = oracle.fit(*data, max_rounds=ROUNDS)
    _assert_same_run(trainer, history, oracle, oracle_history)

    path = tmp_path_factory.mktemp("fuzz") / "interrupted.npz"
    FleetTrainer(config, fleet_config).fit(
        *data, max_rounds=interrupt_after, checkpoint_path=path
    )
    resumed = FleetTrainer(config, fleet_config)
    resumed_history = resumed.fit(*data, max_rounds=ROUNDS, resume_from=path)
    _assert_same_run(resumed, resumed_history, trainer, history)


def test_random_fleets_in_one_member_blocks(
    smoke_scale, smoke_split, tmp_path_factory, monkeypatch
):
    """The same suite with every stacked pass cut into one-member blocks."""
    monkeypatch.setattr(bank, "BLOCK_BYTES", 1)
    test_random_fleets_match_the_oracle_and_resume_bitwise(
        smoke_scale, smoke_split, tmp_path_factory
    )
