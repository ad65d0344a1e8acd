"""Fleet benchmarks: parallel-average rounds must scale sublinearly in N.

A rotation round is N serial turns, so its simulated duration grows linearly
with the fleet.  A parallel-average round amortizes compute (UEs run in
parallel, the shared BS steps once on the concatenated batch) and pays only
the serialized communication per extra UE, so doubling the fleet must cost
strictly less than doubling the round time.  The bar asserted here:

    T_round(2N) < 2 * T_round(N)            (parallel-average mode)

measured on the simulated, medium-occupancy-accurate clock at the selected
benchmark scale (``REPRO_BENCH_SCALE``, default fast).  The rotation round is
reported alongside as the linear baseline.

A second benchmark times the *host* wall clock, not the simulated one.  The
stacked UE bank fuses the N per-member forward/backward passes into stacked
GEMMs (:mod:`repro.nn.stacked`), so a full N=1000 round must stay under
``N1000_ROUND_BUDGET_S`` of wall clock.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.fleet import FleetConfig, FleetTrainer
from repro.fleet.trainer import joint_step
from repro.split import ExperimentConfig, TrainingConfig
from repro.split.config import ModelConfig

#: Doubling the fleet must beat doubling the round time by at least this
#: margin (T(2N) <= SUBLINEAR_MARGIN * 2 * T(N)).
SUBLINEAR_MARGIN = 0.95

#: Host wall-clock budget for one full batched round (the joint steps, then
#: FedAvg) at N=1000.  Measured ~0.15 s; a regression to per-member-loop
#: cost (~1.8 s) must fail even on a fast machine.
N1000_ROUND_BUDGET_S = 1.0

#: Joint steps per measured N=1000 round.
N1000_STEPS_PER_ROUND = 4


@dataclass
class FleetRow:
    mode: str
    num_ues: int
    round_duration_s: float
    medium_occupancy: float


def _one_round(config: ExperimentConfig, split, mode: str, num_ues: int) -> FleetRow:
    trainer = FleetTrainer(config, FleetConfig(num_ues=num_ues, mode=mode))
    history = trainer.fit(split.train, split.validation, max_rounds=1)
    record = history.records[0]
    return FleetRow(
        mode=mode,
        num_ues=num_ues,
        round_duration_s=record.round_duration_s,
        medium_occupancy=record.medium_occupancy,
    )


def test_parallel_average_round_time_sublinear_in_fleet_size(scale, bench_split):
    split = bench_split
    config = ExperimentConfig.for_scenario(
        scale.scenario,
        model=scale.base_model_config(),
        training=scale.training_config(),
    )
    counts = (2, 4, 8)
    rows: List[FleetRow] = []
    for num_ues in counts:
        rows.append(_one_round(config, split, "parallel_average", num_ues))
        rows.append(_one_round(config, split, "rotation", num_ues))

    print()
    print(f"{'mode':<17s} {'N':>3s} {'round [s]':>10s} {'occupancy':>10s}")
    for row in rows:
        print(
            f"{row.mode:<17s} {row.num_ues:>3d} "
            f"{row.round_duration_s:>10.4f} {row.medium_occupancy:>10.3f}"
        )

    parallel = {
        row.num_ues: row.round_duration_s
        for row in rows
        if row.mode == "parallel_average"
    }
    rotation = {
        row.num_ues: row.round_duration_s for row in rows if row.mode == "rotation"
    }
    for small, large in ((2, 4), (4, 8)):
        ratio = parallel[large] / parallel[small]
        assert ratio < 2.0 * SUBLINEAR_MARGIN, (
            f"parallel-average round time scaled superlinearly: "
            f"T({large}) / T({small}) = {ratio:.2f}"
        )
    # Sanity: a parallel-average round never costs more than the serial
    # rotation round over the same number of member-steps.
    for num_ues in counts:
        assert parallel[num_ues] < rotation[num_ues]


# -- the stacked bank: host wall clock at large N ------------------------------------


def _large_fleet_model() -> ModelConfig:
    """Compact per-member geometry for large-N wall-clock benchmarks.

    The point of these benchmarks is the member axis, not the per-member
    model, so each UE is shrunk to a single pooled cut value per image and a
    small simple-RNN BS stage.  At this size a per-member loop would be
    dominated by Python dispatch, exactly the overhead the batched kernels
    remove.
    """
    return ModelConfig(
        image_height=4,
        image_width=4,
        pooling_height=4,
        pooling_width=4,
        cnn_channels=(2,),
        rnn_type="simple",
        rnn_hidden_size=8,
        head_hidden_size=4,
        sequence_length=1,
    )


def _large_fleet_trainer(num_ues: int) -> FleetTrainer:
    config = ExperimentConfig(
        model=_large_fleet_model(), training=TrainingConfig(seed=3)
    )
    return FleetTrainer(config, FleetConfig(num_ues=num_ues, mode="parallel_average"))


def _member_batches(num_ues: int, seed: int = 0):
    """Synthesized one-sample member batches (the joint step needs no dataset)."""
    model = _large_fleet_model()
    rng = np.random.default_rng(seed)
    images = rng.random(
        (num_ues, 1, model.sequence_length, model.image_height, model.image_width)
    )
    powers = rng.random((num_ues, 1, model.sequence_length))
    targets = rng.random((num_ues, 1))
    return [(images[i], powers[i], targets[i]) for i in range(num_ues)]


def _best_times(*fns: Callable[[], None], repeats: int) -> List[float]:
    """Best wall time of each callable over ``repeats`` alternating rounds."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_n1000_batched_round_time_bounded(scale):
    """A full N=1000 batched round stays under the wall-clock budget."""
    num_ues = 1000
    trainer = _large_fleet_trainer(num_ues)
    batches = _member_batches(num_ues)

    def one_round() -> None:
        fleet = trainer.fleet
        protocols = [member.protocol for member in fleet]
        for _ in range(N1000_STEPS_PER_ROUND):
            joint_step(protocols, fleet.bs, fleet.bank, trainer.scheduler, batches)
        fleet.average_ue_weights()

    one_round()  # warm up
    (round_s,) = _best_times(one_round, repeats=2)
    per_step_ms = round_s / N1000_STEPS_PER_ROUND * 1e3

    print()
    print(
        f"N=1000 batched round: {round_s * 1e3:.1f} ms "
        f"({N1000_STEPS_PER_ROUND} joint steps, {per_step_ms:.1f} ms/step, "
        f"budget {N1000_ROUND_BUDGET_S * 1e3:.0f} ms)"
    )

    assert round_s < N1000_ROUND_BUDGET_S, (
        f"an N=1000 batched round took {round_s:.2f} s "
        f"(budget {N1000_ROUND_BUDGET_S:.2f} s): the member axis has "
        f"regressed toward per-member loop cost"
    )
