"""Trade accuracy against wall-clock with cut-layer payload codecs.

The paper ships the cut-layer activations and gradients at full float32
width over the lossy 60 GHz link.  The codec layer (`repro.split.codecs`)
can compress them instead:

* ``identity`` — the paper's float32 baseline, bit-for-bit;
* ``uint8`` / ``int4`` — per-tensor dynamic-range uniform quantization
  (the UE CNN ends in a sigmoid, so activations are bounded in [0, 1]);
* ``topk`` — magnitude top-k sparsification with error feedback: values
  left behind accumulate in a residual and compensate later steps.

The ARQ layer transmits the *encoded* payload sizes, so slot counts — and
therefore the simulated wall-clock — respond to compression, while the BS
trains on the *decoded* (lossy) tensors.  This script runs the Pareto
experiment at the fast scale and prints the accuracy/latency frontier —
the numbers the experiment CLI writes under its artifact's ``figure`` key:

    python -m repro.experiments.run --experiment pareto --scale fast

Run with:  python examples/compression_pareto.py
"""
from __future__ import annotations

from repro.experiments import (
    ExperimentScale,
    prepare_split,
    run_compression_pareto,
)


def main() -> None:
    scale = ExperimentScale.fast()
    split = prepare_split(scale)

    print("Compression Pareto at fast scale (all codecs) ...\n")
    result = run_compression_pareto(scale=scale, split=split)
    print(result.format_table())

    identity = result.history("identity")
    for codec in result.codecs:
        if codec == "identity":
            continue
        history = result.history(codec)
        bits_ratio = (
            result.uplink_payload_bits["identity"]
            / result.uplink_payload_bits[codec]
        )
        speedup = identity.total_elapsed_s / history.total_elapsed_s
        print(
            f"\n{codec}: {bits_ratio:.1f}x smaller uplink payloads, "
            f"{speedup:.2f}x faster simulated run, "
            f"{history.final_rmse_db - identity.final_rmse_db:+.3f} dB final RMSE"
        )

    # A sparser top-k run: keep 1% of the cut tensor instead of 5%.  Error
    # feedback keeps training stable; the payload shrinks by another ~5x.
    sparse = run_compression_pareto(
        scale=scale, split=split, codecs=("topk",), topk_fraction=0.01
    )
    history = sparse.history("topk")
    print(
        f"\ntopk @ 1%: {sparse.uplink_payload_bits['topk']:.0f} uplink bits/step, "
        f"final RMSE {history.final_rmse_db:.2f} dB"
    )

    # The fast scale pools to one pixel, so every codec fits in a single
    # slot and the simulated times coincide.  At the paper's hardest
    # configuration (40x40, no pooling) the slot counts diverge sharply:
    from repro.channel import PAPER_CHANNEL_PARAMS, PayloadModel, WirelessLink
    from repro.split.codecs import codec_from_name

    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink")
    payload = PayloadModel(pooling_height=1, pooling_width=1)
    elements = payload.values_per_image * payload.sequence_length * 4
    print("\nexpected uplink slots at 40x40 / no pooling (batch 4):")
    for codec in result.codecs:
        bits = codec_from_name(codec).sized_payload_bits(elements)
        print(f"  {codec:<9s} {link.expected_slots(bits):>7.2f} slots/step")


if __name__ == "__main__":
    main()
