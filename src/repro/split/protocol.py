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

:meth:`SplitTrainingProtocol.training_step` runs these as the library's one
training step, :func:`repro.fleet.trainer.joint_step`, on a roster of one:
this protocol alone on an uncontended medium, its UE trained by a one-member
:class:`~repro.fleet.bank.StackedUEBank` that views the client's row of its
bank, so the step updates the UE state where it lives.  The downlink payload
is sized by the codec's bound, so its slots are drawn before the BS computes:
a step whose downlink is lost never runs the BS.

The simulated elapsed time of the step is both sides' computation time plus
the transmission time of both payloads, which is what produces the "elapsed
time in training" axis of Fig. 3a.  The RF-only baseline involves no image
branch and therefore no cut-layer communication at all (the BS measures the
RF powers locally), so its steps only cost BS computation time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.arq import ArqSession, StepCommunication
from repro.channel.payload import PayloadModel
from repro.split.bs import BSServer
from repro.split.codecs import PayloadCodec, codec_from_name
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
        self._bank = None

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

    # -- training ---------------------------------------------------------------------
    def training_step(
        self,
        image_sequences: Optional[np.ndarray],
        rf_sequences: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> StepResult:
        """Run one SGD step on a minibatch (already normalized inputs/targets).

        The fleet engine's :func:`~repro.fleet.trainer.joint_step` on a roster
        of one: the medium belongs to this protocol alone, and a lost
        exchange (uplink or gated downlink) updates nothing.
        """
        # Imported here: repro.fleet builds on this module.
        from repro.fleet.trainer import UNCONTENDED, joint_step

        bank = None
        if self.ue is not None:
            # A view of the client's row, built on first use after predict():
            # it owns only buffers, so it is never checkpointed.
            if self._bank is None:
                self._bank = self.ue.bank.member(self.ue.row)
            bank = self._bank
        (elapsed_s, _, loss, _, _), (communication,) = joint_step(
            [self],
            self.bs,
            bank,
            UNCONTENDED,
            [(image_sequences, rf_sequences, targets)],
        )
        updated = loss is not None
        return StepResult(
            loss=loss if updated else float("nan"),
            elapsed_s=elapsed_s,
            communication=communication,
            updated=updated,
        )

    def sized_downlink_bits(self, features: np.ndarray, batch_size: int) -> float:
        """Downlink payload bound of a minibatch, after checking its cut tensor.

        ``features`` is the UE's raw cut-layer output for ``batch_size``
        sequences; a size that disagrees with the payload model raises
        ``ValueError``.  The downlink is sized by the codec's deterministic
        bound because the gradient tensor does not exist yet when the
        exchange is simulated.  The training step sizes its payloads here.
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

    # -- inference ----------------------------------------------------------------------
    def predict(
        self,
        image_sequences: Optional[np.ndarray],
        rf_sequences: Optional[np.ndarray],
        batch_size: Optional[int] = None,
        frame_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predict normalized received power for a set of sequences.

        No communication time is simulated (prediction payloads are single
        feature vectors, negligible next to training payloads), and the UE's
        training bank is dropped with its buffers.

        Sliding windows share frames, so the UE CNN runs once per distinct
        frame: ``frame_ids`` is an ``(M, L)`` integer array naming the frame
        behind every window element (e.g.
        :attr:`~repro.dataset.sequences.SequenceDataset.frame_indices`), and
        elements with equal ids must hold equal images.  ``None`` treats every
        element as a distinct frame.  A frame's features do not depend on
        which other frames share its CNN batch, so the ids never change a
        prediction, only the work.

        ``batch_size`` (default ``TrainingConfig.eval_batch_size``) bounds
        the CNN batches at ``batch_size * L`` distinct frames, which caps the
        cached im2col buffers, and sets the windows per codec preview and BS
        forward pass.  The preview and the BS GEMMs see the whole chunk, so a
        different ``batch_size`` moves predictions: at the ulp level with the
        identity codec, and by up to a quantization step with the lossy
        codecs (see ``TrainingConfig.eval_batch_size``).
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

        # The training bank is a view with buffers: drop it (the next
        # training step rebuilds it), so inference buffers do not stack on
        # top of its buffers.
        self._bank = None
        features = None
        if model.use_image and count:
            features = self._frame_features(image_sequences, frame_ids, batch_size)
        predictions = np.empty(count)
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            batch_features = None
            if features is not None:
                assert self.codec is not None
                # The BS predicts from codec-decoded activations, matching
                # what it was trained on; preview() is stateless, so
                # inference never advances codec (error-feedback) state.
                batch_features = self.codec.preview(features[start:stop])
            rf_batch = rf_sequences[start:stop] if model.use_rf else None
            predictions[start:stop] = self.bs.predict(batch_features, rf_batch)
        return predictions

    def _frame_features(
        self,
        image_sequences: np.ndarray,
        frame_ids: Optional[np.ndarray],
        batch_size: int,
    ) -> np.ndarray:
        """UE cut-layer features ``(M, L, F)``, computed once per distinct frame.

        The distinct frames run through :meth:`UEClient.forward` as
        length-1 sequences, ``batch_size * L`` at a time, and their features
        are gathered back into the windows.
        """
        assert self.ue is not None
        image_sequences = np.asarray(image_sequences)
        count, length = image_sequences.shape[:2]
        if frame_ids is None:
            frame_ids = np.arange(count * length).reshape(count, length)
        frame_ids = np.asarray(frame_ids)
        if frame_ids.shape != (count, length):
            raise ValueError(
                f"frame_ids of shape {frame_ids.shape} do not match the "
                f"{(count, length)} window elements"
            )
        _, first, inverse = np.unique(
            frame_ids.ravel(), return_index=True, return_inverse=True
        )
        # Gather each chunk's frames straight from the windows: reshaping a
        # strided window view to one frame per row would copy all M * L.
        chunk = batch_size * length
        outputs = []
        for start in range(0, len(first), chunk):
            ids = first[start : start + chunk]
            frames = image_sequences[ids // length, ids % length][:, None]
            outputs.append(self.ue.forward(frames)[:, 0])
        distinct = np.concatenate(outputs)
        return distinct[inverse].reshape(count, length, -1)

    # -- (de)serialization -------------------------------------------------------------
    def state_dict(self) -> dict:
        """Restorable state of this protocol's private half.

        Covers the ARQ session (fading RNG streams and aggregate statistics)
        and any payload-codec state (the top-k error-feedback residuals).
        Neither the UE nor the BS is included: the UE state is a row of the
        fleet's bank and the fleet shares one BS across its members'
        protocols, and the fleet stores each once.
        """
        state: dict = {}
        if self.arq is not None:
            state["arq"] = self.arq.state_dict()
        if self.codec is not None:
            codec_state = self.codec.state_dict()
            if codec_state:
                state["codec"] = codec_state
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore protocol state captured by :meth:`state_dict`."""
        if self.arq is not None:
            self.arq.load_state_dict(state["arq"])
        if self.codec is not None:
            self.codec.load_state_dict(state.get("codec", {}))
