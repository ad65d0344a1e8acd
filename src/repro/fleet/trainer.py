"""Federated split training of a UE fleet over one shared medium.

``FleetTrainer`` drives an :class:`~repro.fleet.fleet.UEFleet` through rounds
of split learning in one of two modes:

* **rotation** — classic split learning.  The members take turns: the logical
  UE model is handed client-to-client (``state_dict`` copy), and the member
  whose turn it is trains alone for ``steps_per_turn`` SGD steps, exactly
  like the paper's single-UE protocol.  The medium is uncontended during a
  turn, so with ``N=1`` the trainer reproduces
  :class:`~repro.split.trainer.SplitTrainer` *draw for draw* — the
  correctness anchor of the subsystem.

* **parallel_average** — splitfed-style.  Every member steps each round:
  clients run their CNN forward in parallel, the medium scheduler serializes
  all uplink payloads onto the shared channel, the single shared BS RNN steps
  *once* on the concatenated batch, the gradients are scattered back over the
  scheduled downlinks, and after each round the client CNN weights are
  averaged and re-broadcast.  A round processes N minibatches for one BS
  computation plus the serialized communication, which is where the sublinear
  round-time scaling comes from.

Simulated wall-clock accounting is medium-occupancy-accurate: compute runs in
parallel across UEs, communication is serialized, and every round records the
fraction of its duration the medium was busy.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace as dataclass_replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.arq import (
    ArqStatistics,
    transmit_downlink_across,
    transmit_uplink_across,
)
from repro.dataset.sequences import SequenceDataset
from repro.fleet.bank import StackedUEBank
from repro.fleet.config import PARALLEL_AVERAGE, ROTATION, FleetConfig
from repro.fleet.fleet import FleetMember, UEFleet, shard_indices
from repro.fleet.scheduler import MediumScheduler, scheduler_from_name
from repro.split.codecs import DOWNLINK_STREAM, UPLINK_STREAM, encode_decode_stacked
from repro.split.checkpoint import (
    FLEET_KIND,
    Checkpoint,
    CheckpointLike,
    resolve_checkpoint,
)
from repro.split.config import ExperimentConfig
from repro.split.normalization import PowerNormalizer
from repro.split.protocol import SplitTrainingProtocol
from repro.split.trainer import (
    LearningCurveMixin,
    NormalizedEvaluationMixin,
    normalized_training_inputs,
)
from repro.utils.logging import get_logger

logger = get_logger("fleet.trainer")


@dataclass
class FleetRoundRecord:
    """One point of the fleet learning curve.

    Attributes:
        round: 1-based round index (== epoch for an N=1 rotation fleet).
        elapsed_s: cumulative simulated wall-clock time after the round.
        round_duration_s: simulated duration of this round alone.
        train_loss: mean minibatch loss over the round's updated steps.
        validation_rmse_db: validation RMSE after the round.
        steps: SGD member-steps attempted this round.
        lost_steps: member-steps lost to undecodable payloads.
        medium_busy_s: time the shared medium carried slots this round.
        medium_occupancy: ``medium_busy_s / round_duration_s``.
    """

    round: int
    elapsed_s: float
    round_duration_s: float
    train_loss: float
    validation_rmse_db: float
    steps: int
    lost_steps: int
    medium_busy_s: float
    medium_occupancy: float


@dataclass
class FleetHistory(LearningCurveMixin):
    """Full record of one fleet training run.

    The learning-curve metric helpers (``final_rmse_db``, ``best_rmse_db``,
    ``elapsed_times_s``, ``validation_rmse_curve_db``, ``time_to_reach_db``)
    come from the mixin shared with ``TrainingHistory``.
    """

    scheme: str
    num_ues: int
    mode: str
    scheduler: str
    records: List[FleetRoundRecord] = field(default_factory=list)
    reached_target: bool = False
    total_elapsed_s: float = 0.0
    medium_busy_s: float = 0.0
    communication: Optional[ArqStatistics] = None
    per_ue_communication: List[ArqStatistics] = field(default_factory=list)

    @property
    def medium_occupancy(self) -> float:
        """Run-level medium occupancy: busy time over total simulated time."""
        if self.total_elapsed_s <= 0:
            return 0.0
        return self.medium_busy_s / self.total_elapsed_s

    def state_dict(self) -> dict:
        """JSON-able history-so-far (for checkpoints; excludes the end-of-run
        totals and statistics, which ``fit`` re-derives on completion)."""
        return {
            "scheme": self.scheme,
            "num_ues": self.num_ues,
            "mode": self.mode,
            "scheduler": self.scheduler,
            "records": [asdict(record) for record in self.records],
            "reached_target": self.reached_target,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FleetHistory":
        """Rebuild a history captured by :meth:`state_dict`."""
        return cls(
            scheme=str(state["scheme"]),
            num_ues=int(state["num_ues"]),
            mode=str(state["mode"]),
            scheduler=str(state["scheduler"]),
            records=[FleetRoundRecord(**record) for record in state["records"]],
            reached_target=bool(state["reached_target"]),
        )


class FleetTrainer(NormalizedEvaluationMixin):
    """Trains a fleet of UE clients against one shared BS.

    Args:
        config: base experiment configuration (model, training protocol and
            the nominal SL channel; must include the image branch).
        fleet_config: fleet size, mode, scheduler and placement jitter.
    """

    def __init__(self, config: ExperimentConfig, fleet_config: FleetConfig):
        self.config = config
        self.fleet_config = fleet_config
        self.fleet = UEFleet(config, fleet_config)
        self.scheduler: MediumScheduler = scheduler_from_name(
            fleet_config.scheduler
        )
        self.normalizer: Optional[PowerNormalizer] = None
        self._backend = fleet_config.resolved_backend()
        self._bank: Optional[StackedUEBank] = None

    def _ensure_bank(self) -> StackedUEBank:
        """The lazily built stacked-parameter bank of the batched backend."""
        if self._bank is None:
            self._bank = StackedUEBank(
                [member.ue for member in self.fleet.members]
            )
        return self._bank

    # -- data preparation -------------------------------------------------------------
    def _prepare_inputs(self, sequences: SequenceDataset):
        """Normalize powers and targets exactly like ``SplitTrainer``."""
        assert self.normalizer is not None
        return normalized_training_inputs(
            self.config.model, self.normalizer, sequences
        )

    def _draw_batch(
        self,
        member: FleetMember,
        shard: np.ndarray,
        batch_size: int,
        images: np.ndarray,
        powers: Optional[np.ndarray],
        targets: np.ndarray,
    ):
        """One minibatch from a member's shard, drawn with its own stream."""
        local = member.batch_rng.choice(len(shard), size=batch_size, replace=False)
        indices = shard[local]
        return (
            images[indices],
            powers[indices] if powers is not None else None,
            targets[indices],
        )

    # -- run state --------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete restorable trainer state (see :mod:`repro.split.checkpoint`)."""
        state = {"fleet": self.fleet.state_dict()}
        normalizer = self._normalizer_state()
        if normalizer is not None:
            state["normalizer"] = normalizer
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore trainer state captured by :meth:`state_dict`."""
        self.fleet.load_state_dict(state["fleet"])
        self._restore_normalizer(state)

    def _capture_checkpoint(
        self, history: FleetHistory, round_index: int, elapsed_s: float, busy_s: float
    ) -> Checkpoint:
        return Checkpoint(
            kind=FLEET_KIND,
            progress=round_index,
            elapsed_s=elapsed_s,
            history=history.state_dict(),
            state=self.state_dict(),
            meta={
                "scheme": history.scheme,
                "num_ues": history.num_ues,
                "mode": history.mode,
                "scheduler": history.scheduler,
                "medium_busy_s": busy_s,
            },
        )

    def final_checkpoint(self, history: FleetHistory) -> Checkpoint:
        """Checkpoint of a finished ``fit`` (the trained-model cache entry)."""
        progress = history.records[-1].round if history.records else 0
        return self._capture_checkpoint(
            history, progress, history.total_elapsed_s, history.medium_busy_s
        )

    def _restore_checkpoint(self, checkpoint: Checkpoint) -> FleetHistory:
        expected = {
            "scheme": self.config.model.describe(),
            "num_ues": self.fleet.num_ues,
            "mode": self.fleet_config.mode,
            "scheduler": self.fleet_config.scheduler,
        }
        for key, value in expected.items():
            stored = checkpoint.meta.get(key)
            if stored != value:
                raise ValueError(
                    f"checkpoint {key} is {stored!r}, this trainer runs {value!r}"
                )
        self.load_state_dict(checkpoint.state)
        return FleetHistory.from_state(checkpoint.history)

    # -- training ---------------------------------------------------------------------
    def fit(
        self,
        train: SequenceDataset,
        validation: SequenceDataset,
        max_rounds: Optional[int] = None,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 1,
        resume_from: Optional[CheckpointLike] = None,
    ) -> FleetHistory:
        """Train until the validation RMSE target or the round budget is hit.

        ``checkpoint_path`` / ``checkpoint_every`` / ``resume_from`` follow
        :meth:`repro.split.trainer.SplitTrainer.fit`, at round granularity: a
        resumed fleet run (either mode) reproduces the uninterrupted run's
        history and final weights bit for bit, given the same data.
        """
        training = self.config.training
        fleet_config = self.fleet_config
        if max_rounds is None:
            max_rounds = (
                fleet_config.max_rounds
                if fleet_config.max_rounds is not None
                else training.max_epochs
            )
        steps_per_turn = (
            fleet_config.steps_per_turn
            if fleet_config.steps_per_turn is not None
            else training.steps_per_epoch
        )
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")

        if resume_from is not None:
            checkpoint = resolve_checkpoint(resume_from, FLEET_KIND)
            history = self._restore_checkpoint(checkpoint)
            elapsed_s = checkpoint.elapsed_s
            busy_total_s = float(checkpoint.meta["medium_busy_s"])
            start_round = checkpoint.progress
        else:
            self.normalizer = PowerNormalizer.fit(
                train.power_sequences, train.targets
            )
            self.fleet.reset_statistics()
            history = FleetHistory(
                scheme=self.config.model.describe(),
                num_ues=self.fleet.num_ues,
                mode=fleet_config.mode,
                scheduler=fleet_config.scheduler,
            )
            elapsed_s = 0.0
            busy_total_s = 0.0
            start_round = 0

        images, powers, targets = self._prepare_inputs(train)
        shards = shard_indices(len(train), self.fleet.num_ues)
        batch_sizes = [
            min(training.batch_size, len(shard)) for shard in shards
        ]

        for round_index in range(start_round + 1, max_rounds + 1):
            if history.reached_target:
                break
            if fleet_config.mode == ROTATION:
                losses, lost, duration, busy, steps = self._rotation_round(
                    shards, batch_sizes, steps_per_turn, images, powers, targets
                )
            else:
                losses, lost, duration, busy, steps = self._parallel_round(
                    shards, batch_sizes, steps_per_turn, images, powers, targets
                )
            elapsed_s += duration
            busy_total_s += busy

            validation_rmse = self.evaluate(validation)
            record = FleetRoundRecord(
                round=round_index,
                elapsed_s=elapsed_s,
                round_duration_s=duration,
                train_loss=float(np.mean(losses)) if losses else float("nan"),
                validation_rmse_db=validation_rmse,
                steps=steps,
                lost_steps=lost,
                medium_busy_s=busy,
                medium_occupancy=busy / duration if duration > 0 else 0.0,
            )
            history.records.append(record)
            logger.debug(
                "fleet N=%d %s round %d: elapsed %.2fs, occupancy %.3f, "
                "val RMSE %.2f dB",
                self.fleet.num_ues,
                fleet_config.mode,
                round_index,
                elapsed_s,
                record.medium_occupancy,
                validation_rmse,
            )
            if validation_rmse <= training.target_rmse_db:
                history.reached_target = True
            if checkpoint_path is not None and (
                history.reached_target
                or round_index == max_rounds
                or round_index % checkpoint_every == 0
            ):
                self._capture_checkpoint(
                    history, round_index, elapsed_s, busy_total_s
                ).save(checkpoint_path)
            if history.reached_target:
                break

        history.total_elapsed_s = elapsed_s
        history.medium_busy_s = busy_total_s
        history.per_ue_communication = [
            member.arq.statistics.snapshot()
            for member in self.fleet
            if member.arq is not None
        ]
        history.communication = self.fleet.merged_statistics()
        return history

    # -- rotation mode ----------------------------------------------------------------
    def _rotation_round(
        self,
        shards: Sequence[np.ndarray],
        batch_sizes: Sequence[int],
        steps_per_turn: int,
        images: np.ndarray,
        powers: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> Tuple[List[float], int, float, float, int]:
        """One rotation round: each member trains alone during its turn."""
        losses: List[float] = []
        lost = 0
        duration = 0.0
        busy = 0.0
        steps = 0
        for member, shard, batch_size in zip(self.fleet, shards, batch_sizes):
            self.fleet.hand_off_to(member.index)
            for _ in range(steps_per_turn):
                image_batch, power_batch, target_batch = self._draw_batch(
                    member, shard, batch_size, images, powers, targets
                )
                result = member.protocol.training_step(
                    image_batch, power_batch, target_batch
                )
                duration += result.elapsed_s
                if result.communication is not None:
                    busy += result.communication.total_elapsed_s
                if result.updated:
                    losses.append(result.loss)
                else:
                    lost += 1
                steps += 1
        return losses, lost, duration, busy, steps

    # -- parallel-average mode --------------------------------------------------------
    def _parallel_round(
        self,
        shards: Sequence[np.ndarray],
        batch_sizes: Sequence[int],
        steps_per_turn: int,
        images: np.ndarray,
        powers: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> Tuple[List[float], int, float, float, int]:
        """One parallel-average round: joint steps, then weight averaging."""
        losses: List[float] = []
        lost = 0
        duration = 0.0
        busy = 0.0
        steps = 0
        # The batched backend needs equal per-member batch sizes to stack
        # them; an uneven final shard falls back to the (bitwise-identical)
        # loop backend for the round.
        use_batched = self._backend == "batched" and len(set(batch_sizes)) == 1
        if use_batched:
            self._ensure_bank().gather()
        step_fn = self._joint_step_batched if use_batched else self._joint_step
        for _ in range(steps_per_turn):
            batches = [
                self._draw_batch(member, shard, batch_size, images, powers, targets)
                for member, shard, batch_size in zip(
                    self.fleet, shards, batch_sizes
                )
            ]
            loss, step_lost, step_duration, step_busy = step_fn(batches)
            duration += step_duration
            busy += step_busy
            lost += step_lost
            steps += self.fleet.num_ues
            if loss is not None:
                losses.append(loss)
        if use_batched:
            self._bank.scatter()
        self.fleet.average_ue_weights()
        return losses, lost, duration, busy, steps

    def _joint_step(
        self, batches
    ) -> Tuple[Optional[float], int, float, float]:
        """One synchronized step of every member over the shared medium.

        Returns ``(joint loss or None, lost member-steps, simulated duration,
        medium busy time)``.
        """
        training = self.config.training
        tau = self.fleet.slot_duration_s
        members = self.fleet.members

        # Compute phase: every UE runs its CNN forward in parallel, so the
        # fleet pays the per-step UE compute time once, not N times.
        duration = training.ue_compute_time_s
        phases = [
            member.protocol.begin_step(image_batch)
            for member, (image_batch, _, _) in zip(members, batches)
        ]

        # Uplink phase: every member's own session draws its slot demand; the
        # scheduler serializes the demands onto the one shared medium.
        uplinks = [
            member.arq.transmit_uplink(phase.uplink_payload_bits)
            for member, phase in zip(members, phases)
        ]
        uplink_schedule = self.scheduler.schedule(
            [result.slots_used for result in uplinks],
            payload_bits=[phase.uplink_payload_bits for phase in phases],
        )
        uplink_completions = uplink_schedule.completion_times_s(tau)
        uplink_busy = uplink_schedule.busy_time_s(tau)
        duration += uplink_busy
        busy = uplink_busy

        # The BS compute slot is charged once per joint step whether or not
        # any uplink decodes — matching the single-UE protocol, which charges
        # bs_compute_time_s on lost steps too.
        duration += training.bs_compute_time_s
        decoded = [
            index for index, result in enumerate(uplinks) if result.success
        ]
        loss_value: Optional[float] = None
        downlinks = {}
        downlink_completions = {}
        if decoded:
            # One shared BS step on the concatenated batch of every decoded
            # member: the RNN forward/backward runs once per joint step.
            features = np.concatenate(
                [phases[index].features for index in decoded], axis=0
            )
            rf_batch = (
                np.concatenate([batches[index][1] for index in decoded], axis=0)
                if self.config.model.use_rf
                else None
            )
            target_batch = np.concatenate(
                [batches[index][2] for index in decoded], axis=0
            )
            loss_value, cut_gradient = self.fleet.bs.compute_loss_and_gradients(
                features, rf_batch, target_batch
            )

            # Downlink phase (gated per member on its own uplink).
            attempts = [
                members[index].arq.transmit_downlink(
                    phases[index].downlink_payload_bits
                )
                for index in decoded
            ]
            downlink_schedule = self.scheduler.schedule(
                [result.slots_used for result in attempts],
                payload_bits=[
                    phases[index].downlink_payload_bits for index in decoded
                ],
            )
            completions = downlink_schedule.completion_times_s(tau)
            downlink_busy = downlink_schedule.busy_time_s(tau)
            duration += downlink_busy
            busy += downlink_busy
            downlinks = dict(zip(decoded, attempts))
            downlink_completions = dict(zip(decoded, completions))

            # Scatter the cut-layer gradients back to the members whose
            # downlink was decoded; the rest lose their client-side update.
            # Each delivered slice passes through its member's downlink
            # codec, exactly as complete_step does for the single-UE case.
            offset = 0
            for index in decoded:
                batch_length = len(batches[index][2])
                member_slice = cut_gradient[offset : offset + batch_length]
                offset += batch_length
                if downlinks[index].success:
                    members[index].ue.backward(
                        members[index].protocol.transmit_cut_gradient(member_slice)
                    )
                    members[index].ue.apply_update()
                else:
                    members[index].ue.zero_grad()
            # The BS updates only when the round delivered at least one
            # gradient payload: a joint step whose every downlink failed is
            # wholly lost, matching the single-UE protocol where a failed
            # exchange aborts the step before any update.  (With partial
            # downlink failures the BS gradient still includes the failed
            # members' batches — their data reached the BS; only their
            # client-side update is lost.)
            if any(downlinks[index].success for index in decoded):
                self.fleet.bs.apply_update()
            else:
                self.fleet.bs.zero_grad()
                loss_value = None

        # Record per-member communication with medium-accurate latency: the
        # elapsed time of each direction is the member's *completion* time on
        # the shared medium (own slots plus queueing), while slots_used stays
        # the member's own demand.
        lost = 0
        for index, member in enumerate(members):
            uplink_result = dataclass_replace(
                uplinks[index], elapsed_s=float(uplink_completions[index])
            )
            downlink_result = None
            if index in downlinks:
                downlink_result = dataclass_replace(
                    downlinks[index],
                    elapsed_s=float(downlink_completions[index]),
                )
            step = member.arq.record_exchange(uplink_result, downlink_result)
            if not step.success:
                lost += 1
                member.protocol.abort_step()
        return loss_value, lost, duration, busy

    def _joint_step_batched(
        self, batches
    ) -> Tuple[Optional[float], int, float, float]:
        """Batched twin of :meth:`_joint_step` (the loop reference).

        Same phases, same accounting, but the N member models run through the
        :class:`StackedUEBank` kernels, the N ARQ draws go through
        ``transmit_*_across`` and the codec calls are stacked — all of which
        are bitwise/draw-for-draw identical to the loop per member, so the
        two backends produce the same histories, RNG streams and weights.
        The caller (:meth:`_parallel_round`) brackets the round with the
        bank's ``gather``/``scatter``.
        """
        training = self.config.training
        tau = self.fleet.slot_duration_s
        members = self.fleet.members
        bank = self._bank
        assert bank is not None

        # Compute phase: all members' CNN forwards fused into stacked GEMMs.
        duration = training.ue_compute_time_s
        image_stack = np.stack([image_batch for image_batch, _, _ in batches])
        features = bank.forward(image_stack)

        # Payload accounting, mirroring SplitTrainingProtocol.begin_step; the
        # fleet builds every protocol from one config, so the deterministic
        # downlink bound is shared.
        protocol = members[0].protocol
        assert protocol.payload_model is not None and protocol.codec is not None
        batch_size = image_stack.shape[1]
        expected_elements = (
            protocol.payload_model.values_per_image
            * protocol.payload_model.sequence_length
            * batch_size
        )
        if features[0].size != expected_elements:
            raise ValueError(
                f"cut tensor holds {features[0].size} elements but the payload "
                f"model sizes {expected_elements}: the protocol's payload "
                "accounting has diverged from the UE architecture"
            )
        codecs = [member.protocol.codec for member in members]
        features, uplink_bits = encode_decode_stacked(
            codecs, features, UPLINK_STREAM
        )
        downlink_bits = float(protocol.codec.sized_payload_bits(expected_elements))

        # Uplink phase: one batched draw sweep over the members' own sessions.
        sessions = [member.arq for member in members]
        uplinks = transmit_uplink_across(sessions, uplink_bits)
        uplink_schedule = self.scheduler.schedule(
            uplinks.slots_used, payload_bits=uplink_bits
        )
        # The recorded results carry the medium completion times; stamping
        # them onto the whole batch keeps per-member bookkeeping to one
        # result object per direction.
        uplink_results = dataclass_replace(
            uplinks, elapsed_s=uplink_schedule.completion_times_s(tau)
        ).results()
        uplink_busy = uplink_schedule.busy_time_s(tau)
        duration += uplink_busy
        busy = uplink_busy

        duration += training.bs_compute_time_s
        decoded = [int(index) for index in np.flatnonzero(uplinks.success)]
        loss_value: Optional[float] = None
        downlinks = {}
        if decoded:
            bs_features = features[decoded].reshape(
                (len(decoded) * batch_size,) + features.shape[2:]
            )
            rf_batch = (
                np.concatenate([batches[index][1] for index in decoded], axis=0)
                if self.config.model.use_rf
                else None
            )
            target_batch = np.concatenate(
                [batches[index][2] for index in decoded], axis=0
            )
            loss_value, cut_gradient = self.fleet.bs.compute_loss_and_gradients(
                bs_features, rf_batch, target_batch
            )

            attempts = transmit_downlink_across(
                [sessions[index] for index in decoded], downlink_bits
            )
            downlink_schedule = self.scheduler.schedule(
                attempts.slots_used,
                payload_bits=[downlink_bits] * len(decoded),
            )
            downlink_busy = downlink_schedule.busy_time_s(tau)
            duration += downlink_busy
            busy += downlink_busy
            downlinks = dict(
                zip(
                    decoded,
                    dataclass_replace(
                        attempts,
                        elapsed_s=downlink_schedule.completion_times_s(tau),
                    ).results(),
                )
            )

            # Scatter delivered gradients through the member codecs, then one
            # masked stacked backward/update; non-delivered members' lanes
            # carry zero gradients and a False update mask.
            position = {index: k for k, index in enumerate(decoded)}
            delivered = [index for index in decoded if downlinks[index].success]
            if delivered:
                cut_stack = cut_gradient.reshape(
                    (len(decoded), batch_size) + cut_gradient.shape[1:]
                )
                decoded_grads, _ = encode_decode_stacked(
                    [members[index].protocol.codec for index in delivered],
                    cut_stack[[position[index] for index in delivered]],
                    DOWNLINK_STREAM,
                )
                grad_stack = np.zeros(features.shape)
                grad_stack[delivered] = decoded_grads
                mask = np.zeros(len(members), dtype=bool)
                mask[delivered] = True
                bank.backward(grad_stack)
                bank.apply_updates(mask)
                self.fleet.bs.apply_update()
            else:
                self.fleet.bs.zero_grad()
                loss_value = None

        lost = 0
        for index, (session, uplink_result) in enumerate(
            zip(sessions, uplink_results)
        ):
            step = session.record_exchange(uplink_result, downlinks.get(index))
            if not step.success:
                lost += 1
                members[index].protocol.abort_step()
        return loss_value, lost, duration, busy

    # -- evaluation -------------------------------------------------------------------
    def _evaluation_protocol(self) -> SplitTrainingProtocol:
        """Protocol of the member holding the freshest logical model.

        Rotation mode evaluates the member holding the freshest weights;
        parallel-average mode evaluates member 0 (all members are identical
        right after the per-round averaging).  ``predict_dbm``/``evaluate``
        come from :class:`~repro.split.trainer.NormalizedEvaluationMixin` —
        the eval path shared with the single-UE trainer.
        """
        return self.fleet.members[self.fleet.weight_holder].protocol
