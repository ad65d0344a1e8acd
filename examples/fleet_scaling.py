"""Train a fleet of UEs over one shared mmWave medium.

The paper's protocol is one UE against one BS.  The fleet subsystem scales it
out: N UE clients with independent, placement-jittered channels share a
single BS and a single slotted medium.  Two training modes are available:

* ``rotation`` — classic split learning: the logical UE model is handed
  client-to-client and each client trains alone during its turn;
* ``parallel_average`` — splitfed-style: every client steps each round, a
  medium scheduler (TDMA round-robin or proportional-to-payload) serializes
  the cut-layer payloads, the shared BS RNN steps once on the concatenated
  batch, and client CNN weights are averaged after every round.

This script trains fleets of 1, 2 and 4 UEs in both modes at the fast scale
and prints the learning-curve endpoints plus medium-occupancy accounting —
the numbers the experiment CLI writes under its artifact's ``figure`` key:

    python -m repro.experiments.run --experiment fleet --scale fast --ues 1 2 4

Run with:  python examples/fleet_scaling.py
"""
from __future__ import annotations

from repro.experiments import ExperimentScale, prepare_split, run_fleet_scaling
from repro.fleet import FleetConfig, FleetTrainer
from repro.split import ExperimentConfig


def main() -> None:
    scale = ExperimentScale.fast()
    split = prepare_split(scale)

    print("Fleet scaling at fast scale (N = 1, 2, 4; both modes) ...\n")
    result = run_fleet_scaling(
        scale=scale, split=split, ue_counts=(1, 2, 4), max_rounds=10
    )
    print(result.format_table())

    # A fleet of one reproduces the single-UE experiments draw for draw; the
    # interesting row is the parallel-average fleet, whose rounds amortize
    # compute across clients and pay only the serialized communication.
    history = result.history("parallel_average", 4)
    print(
        f"\nparallel_average N=4: {len(history.records)} rounds, "
        f"medium busy {history.medium_busy_s:.3f}s of "
        f"{history.total_elapsed_s:.3f}s simulated "
        f"({history.medium_occupancy:.0%} occupancy)"
    )
    merged = history.communication
    print(
        f"merged fleet communication: {merged.steps} exchanges, "
        f"{merged.mean_slots_per_step:.2f} slots/step, "
        f"{merged.mean_step_latency_s * 1e3:.2f} ms mean latency"
    )

    # The proportional scheduler matters once payloads are heterogeneous;
    # with a homogeneous fleet it degenerates to round-robin TDMA.
    trainer = FleetTrainer(
        ExperimentConfig.for_scenario(
            scale.scenario,
            model=scale.base_model_config(),
            training=scale.training_config(),
        ),
        FleetConfig(num_ues=4, mode="parallel_average", scheduler="proportional"),
    )
    proportional = trainer.fit(split.train, split.validation, max_rounds=10)
    print(
        f"\nproportional scheduler, N=4: final RMSE "
        f"{proportional.final_rmse_db:.2f} dB, "
        f"occupancy {proportional.medium_occupancy:.0%}"
    )


if __name__ == "__main__":
    main()
