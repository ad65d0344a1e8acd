"""The split-learning training protocol: one SGD step including communication.

A training step of the multimodal split model proceeds as in Fig. 1 of the
paper:

1. the UE runs its CNN + pooling on the minibatch of image sequences;
2. the UE transmits the pooled cut-layer activations to the BS on the uplink
   (slot-based transmissions with retransmissions until decoded);
3. the BS concatenates the activations with its own RF power sequence, runs
   the RNN, computes the loss and the cut-layer gradient;
4. the BS transmits the cut-layer gradient back on the downlink;
5. the UE backpropagates through the CNN; both sides apply their Adam update.

The simulated elapsed time of the step is the sum of both sides' computation
time and the transmission time of both payloads, which is what produces the
"elapsed time in training" axis of Fig. 3a.  The RF-only baseline involves no
image branch and therefore no cut-layer communication at all (the BS measures
the RF powers locally), so its steps only cost BS computation time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.arq import ArqSession, StepCommunication
from repro.channel.params import WirelessChannelParams
from repro.channel.payload import PayloadModel
from repro.split.bs import BSServer
from repro.split.codecs import (
    DOWNLINK_STREAM,
    UPLINK_STREAM,
    PayloadCodec,
    codec_from_name,
)
from repro.split.config import ExperimentConfig
from repro.split.ue import UEClient
from repro.utils.seeding import SeedLike, spawn_generators


@dataclass
class StepResult:
    """Outcome of one split training step.

    Attributes:
        loss: minibatch loss (on normalized targets).
        elapsed_s: simulated wall-clock time of the step.
        communication: uplink/downlink transmission outcomes (``None`` for the
            RF-only baseline which does not communicate).
        updated: whether model parameters were updated.  A step whose uplink
            or downlink payload could not be decoded (e.g. uncompressed
            1x1-pooling payloads) is lost: time passes but no learning occurs.
    """

    loss: float
    elapsed_s: float
    communication: Optional[StepCommunication]
    updated: bool


@dataclass
class ComputePhase:
    """UE-side forward half of one training step, awaiting communication.

    Produced by :meth:`SplitTrainingProtocol.begin_step` and finished by
    :meth:`SplitTrainingProtocol.complete_step` once the communication
    outcome is known.

    Attributes:
        features: codec-decoded cut-layer activations ``(batch, L, F)`` — the
            lossy tensor the BS will see (``None`` for the RF-only baseline).
        uplink_payload_bits / downlink_payload_bits: *encoded* cut-layer
            payload sizes for this minibatch (0 when there is no image
            branch); the downlink uses the codec's deterministic bound since
            the gradient does not exist yet at phase time.
        compute_elapsed_s: UE-side computation time charged for the phase.
    """

    features: Optional[np.ndarray]
    uplink_payload_bits: float
    downlink_payload_bits: float
    compute_elapsed_s: float


class SplitTrainingProtocol:
    """Coordinates UE and BS through training and inference steps.

    Args:
        config: full experiment configuration.
        seed: RNG seed split between UE init, BS init and the fading processes.
        bs: an existing :class:`BSServer` to use instead of constructing one.
            The fleet subsystem injects one shared BS into every member's
            protocol; the UE-init and channel RNG streams are spawned exactly
            as for a standalone protocol.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        seed: SeedLike = None,
        bs: Optional[BSServer] = None,
    ):
        self.config = config
        seed = config.training.seed if seed is None else seed
        ue_rng, bs_rng, channel_rng = spawn_generators(seed, 3)

        model = config.model
        self.ue: Optional[UEClient] = None
        if model.use_image:
            self.ue = UEClient(model, config.training, seed=ue_rng)
        self.bs = bs if bs is not None else BSServer(model, config.training, seed=bs_rng)
        self._training_mode = True

        self.payload_model: Optional[PayloadModel] = None
        self.codec: Optional[PayloadCodec] = None
        self.arq: Optional[ArqSession] = None
        if model.use_image:
            self.payload_model = PayloadModel.from_model_config(model)
            self.codec = codec_from_name(
                model.codec,
                bits_per_value=model.bits_per_value,
                topk_fraction=model.codec_topk_fraction,
            )
            self.arq = ArqSession(
                params=config.channel,
                max_retransmissions=config.training.max_retransmissions,
                seed=channel_rng,
            )

    @property
    def channel_params(self) -> WirelessChannelParams:
        return self.config.channel

    # -- training ---------------------------------------------------------------------
    def training_step(
        self,
        image_sequences: Optional[np.ndarray],
        rf_sequences: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> StepResult:
        """Run one SGD step on a minibatch (already normalized inputs/targets).

        Equivalent to :meth:`begin_step` + an uncontended :meth:`ArqSession
        .exchange <repro.channel.arq.ArqSession.exchange>` + :meth:`complete_step`
        (the single-UE case: the medium belongs to this session alone).
        """
        phase = self.begin_step(image_sequences)
        communication = None
        if self.config.model.use_image:
            assert self.arq is not None
            # The exchange is gated: a lost uplink skips the downlink
            # entirely, so the step only costs the uplink slots.
            communication = self.arq.exchange(
                phase.uplink_payload_bits, phase.downlink_payload_bits
            )
        return self.complete_step(phase, rf_sequences, targets, communication)

    def begin_step(
        self, image_sequences: Optional[np.ndarray]
    ) -> ComputePhase:
        """Compute phase of a training step: UE forward pass + payload sizing.

        The cut-layer activations are passed through the payload codec here:
        ``features`` holds the *decoded* (lossy) tensor the BS will actually
        see, and ``uplink_payload_bits`` the *encoded* size the ARQ must move.
        The downlink is sized by the codec's deterministic bound — the
        gradient tensor does not exist yet when the exchange is simulated.

        No channel RNG is consumed — the communication phase is left to the
        caller (:meth:`training_step` runs it through the session's own
        :meth:`~repro.channel.arq.ArqSession.exchange`).
        """
        training = self.config.training
        if not self.config.model.use_image:
            return ComputePhase(
                features=None,
                uplink_payload_bits=0.0,
                downlink_payload_bits=0.0,
                compute_elapsed_s=0.0,
            )
        assert self.ue is not None and self.codec is not None
        features = self.ue.forward(image_sequences)
        downlink_bits = self.sized_downlink_bits(features, len(image_sequences))
        features, uplink_bits = self.codec.encode_decode(features, UPLINK_STREAM)
        return ComputePhase(
            features=features,
            uplink_payload_bits=uplink_bits,
            downlink_payload_bits=downlink_bits,
            compute_elapsed_s=training.ue_compute_time_s,
        )

    def sized_downlink_bits(self, features: np.ndarray, batch_size: int) -> float:
        """Downlink payload bound of a minibatch, after checking its cut tensor.

        ``features`` is the UE's raw cut-layer output for ``batch_size``
        sequences; a size that disagrees with the payload model raises
        ``ValueError``.  The downlink is sized by the codec's deterministic
        bound because the gradient tensor does not exist yet when the
        exchange is simulated.  :meth:`begin_step` and the fleet's joint step
        both size their payloads here.
        """
        assert self.payload_model is not None and self.codec is not None
        expected_elements = (
            self.payload_model.values_per_image
            * self.payload_model.sequence_length
            * batch_size
        )
        if features.size != expected_elements:
            raise ValueError(
                f"cut tensor holds {features.size} elements but the payload "
                f"model sizes {expected_elements}: the protocol's payload "
                "accounting has diverged from the UE architecture"
            )
        return self.codec.sized_payload_bits(expected_elements)

    def complete_step(
        self,
        phase: ComputePhase,
        rf_sequences: Optional[np.ndarray],
        targets: np.ndarray,
        communication: Optional[StepCommunication],
    ) -> StepResult:
        """BS half of a training step, given the communication outcome.

        A failed exchange aborts the step (see :meth:`abort_step`); otherwise
        the BS computes loss and cut-layer gradients, the UE backpropagates
        and both sides apply their optimizer update.
        """
        model = self.config.model
        elapsed = phase.compute_elapsed_s + self.config.training.bs_compute_time_s
        if communication is not None:
            elapsed += communication.total_elapsed_s
            if not communication.success:
                # The activations (or gradients) never got through: the step is
                # lost.  Clear any partial gradients so they do not leak into
                # the next update.
                self.abort_step()
                return StepResult(
                    loss=float("nan"),
                    elapsed_s=elapsed,
                    communication=communication,
                    updated=False,
                )

        loss_value, cut_gradient = self.bs.compute_loss_and_gradients(
            phase.features, rf_sequences if model.use_rf else None, targets
        )
        if model.use_image and cut_gradient is not None:
            assert self.ue is not None
            self.ue.backward(self.transmit_cut_gradient(cut_gradient))
            self.ue.apply_update()
        self.bs.apply_update()
        return StepResult(
            loss=loss_value,
            elapsed_s=elapsed,
            communication=communication,
            updated=True,
        )

    def transmit_cut_gradient(self, cut_gradient: np.ndarray) -> np.ndarray:
        """Pass the BS's cut-layer gradient through the downlink codec.

        Returns the decoded (lossy) gradient the UE backpropagates.  The
        payload size was already charged via the codec's deterministic bound
        in :meth:`begin_step`; this advances the codec's downlink state
        (e.g. the top-k error-feedback residual), so it is called only for
        steps whose downlink was actually delivered.
        """
        if self.codec is None:
            return cut_gradient
        decoded, _ = self.codec.encode_decode(cut_gradient, DOWNLINK_STREAM)
        return decoded

    def abort_step(self) -> None:
        """Discard a step after a lost exchange: clear both halves' gradients."""
        if self.ue is not None:
            self.ue.zero_grad()
        self.bs.zero_grad()

    # -- inference ----------------------------------------------------------------------
    def predict(
        self,
        image_sequences: Optional[np.ndarray],
        rf_sequences: Optional[np.ndarray],
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Predict normalized received power for a set of sequences.

        Inference is performed in evaluation mode and in minibatches to bound
        memory use (``batch_size`` also caps the cached im2col buffer the CNN
        reuses across minibatches); no communication time is simulated
        (prediction payloads are single feature vectors, negligible next to
        training payloads).  ``batch_size`` defaults to
        ``TrainingConfig.eval_batch_size``.
        """
        if batch_size is None:
            batch_size = self.config.training.eval_batch_size
        model = self.config.model
        if model.use_image and image_sequences is None:
            raise ValueError("image_sequences required by this configuration")
        if model.use_rf and rf_sequences is None:
            raise ValueError("rf_sequences required by this configuration")
        count = (
            len(image_sequences) if image_sequences is not None else len(rf_sequences)
        )

        was_training = self._training_mode
        self.eval()
        predictions = np.empty(count)
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            features = None
            if model.use_image:
                assert self.ue is not None and self.codec is not None
                # The BS predicts from codec-decoded activations, matching
                # what it was trained on; preview() is stateless, so
                # inference never advances codec (error-feedback) state.
                features = self.codec.preview(
                    self.ue.forward(image_sequences[start:stop])
                )
            rf_batch = rf_sequences[start:stop] if model.use_rf else None
            predictions[start:stop] = self.bs.predict(features, rf_batch)
        if was_training:
            self.train()
        return predictions

    # -- (de)serialization -------------------------------------------------------------
    def state_dict(self) -> dict:
        """Restorable state of this protocol's private half.

        Covers the UE half (weights + optimizer), the ARQ session (fading RNG
        streams and aggregate statistics) and any payload-codec state (the
        top-k error-feedback residuals).  The BS is not included: the fleet
        shares one BS across its members' protocols and stores it once.
        """
        state: dict = {}
        if self.ue is not None:
            state["ue"] = self.ue.state_dict()
        if self.arq is not None:
            state["arq"] = self.arq.state_dict()
        if self.codec is not None:
            codec_state = self.codec.state_dict()
            if codec_state:
                state["codec"] = codec_state
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore protocol state captured by :meth:`state_dict`."""
        if self.ue is not None:
            self.ue.load_state_dict(state["ue"])
        if self.arq is not None:
            self.arq.load_state_dict(state["arq"])
        if self.codec is not None:
            self.codec.load_state_dict(state.get("codec", {}))

    # -- mode switches ---------------------------------------------------------------------
    @property
    def training_mode(self) -> bool:
        """Whether the protocol (UE and BS halves) is in training mode."""
        return self._training_mode

    def train(self) -> "SplitTrainingProtocol":
        if self.ue is not None:
            self.ue.train()
        self.bs.train()
        self._training_mode = True
        return self

    def eval(self) -> "SplitTrainingProtocol":
        if self.ue is not None:
            self.ue.eval()
        self.bs.eval()
        self._training_mode = False
        return self

    def num_parameters(self) -> int:
        """Total trainable parameters across both halves."""
        total = self.bs.num_parameters()
        if self.ue is not None:
            total += self.ue.num_parameters()
        return total
