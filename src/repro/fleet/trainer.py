"""The training engine: split learning of a UE fleet over one shared medium.

``FleetTrainer`` drives an :class:`~repro.fleet.fleet.UEFleet` through rounds
of split learning in one of two modes:

* **rotation** — classic split learning.  The members take turns: the logical
  UE model is handed client-to-client (``state_dict`` copy), and the member
  whose turn it is trains alone for ``steps_per_turn`` SGD steps over an
  uncontended medium.  A fleet of one in this mode *is* the paper's
  single-UE protocol, and :class:`~repro.split.trainer.SplitTrainer` is
  exactly that configuration: a round is an epoch.

* **parallel_average** — splitfed-style.  Every member steps each round:
  clients run their CNN forward in parallel, the medium scheduler serializes
  all uplink payloads onto the shared channel, the single shared BS RNN steps
  *once* on the concatenated batch, the gradients are scattered back over the
  scheduled downlinks, and after each round the client CNN weights are
  averaged and re-broadcast.  A round processes N minibatches for one BS
  computation plus the serialized communication, which is where the sublinear
  round-time scaling comes from.

Both modes train through one step, :func:`joint_step`: a parallel-average
round runs it on the whole fleet, and a rotation turn runs it on a roster of
one through :meth:`SplitTrainingProtocol.training_step
<repro.split.protocol.SplitTrainingProtocol.training_step>`.  So both modes
share one accounting rule: a step takes ``compute + (uplink busy + downlink
busy)`` of simulated time.

Every round follows the paper's training protocol: minibatches are sampled
uniformly at random from each member's training windows, validation RMSE (in
dB) is computed after the round, and training stops when it reaches the
target or the round budget is exhausted.  Simulated wall-clock accounting is
medium-occupancy-accurate: compute runs in parallel across UEs,
communication is serialized, and every round records the fraction of its
duration the medium was busy.  The run clock advances step by step, so the
elapsed time of Fig. 3a's x axis is the running sum of the step times.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace as dataclass_replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.arq import (
    ArqStatistics,
    StepCommunication,
    transmit_downlink_across,
    transmit_uplink_across,
)
from repro.dataset.sequences import SequenceDataset
from repro.fleet.bank import StackedUEBank
from repro.fleet.config import ROTATION, FleetConfig
from repro.fleet.fleet import FleetMember, UEFleet, shard_indices
from repro.fleet.scheduler import (
    MediumScheduler,
    RoundRobinScheduler,
    scheduler_from_name,
)
from repro.nn.metrics import root_mean_squared_error
from repro.split.codecs import DOWNLINK_STREAM, UPLINK_STREAM, encode_decode_stacked
from repro.split.checkpoint import (
    FLEET_KIND,
    Checkpoint,
    CheckpointLike,
    resolve_checkpoint,
)
from repro.split.bs import BSServer
from repro.split.config import ExperimentConfig
from repro.split.normalization import PowerNormalizer
from repro.split.protocol import SplitTrainingProtocol
from repro.utils.logging import get_logger

logger = get_logger("fleet.trainer")

#: What one step of a round reports to :meth:`FleetTrainer.fit`: simulated
#: duration, medium busy time, loss (``None`` when no update happened), lost
#: member-steps and attempted member-steps.
StepOutcome = Tuple[float, float, Optional[float], int, int]


@dataclass
class FleetRoundRecord:
    """One point of the learning curve.

    Attributes:
        round: 1-based round index (the epoch of an N=1 rotation run).
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
class FleetHistory:
    """Full record of one training run.

    Attributes:
        scheme: human-readable scheme label (e.g. ``"Img+RF, pooling 40x40"``).
        num_ues / mode / scheduler: the fleet shape that trained.
        records: per-round learning-curve points.
        reached_target: whether the RMSE target stopped training early.
        total_elapsed_s: simulated wall-clock time of the whole run.
        medium_busy_s: time the shared medium carried slots, whole run.
        communication: snapshot of the fleet's aggregate ARQ statistics
            (``None`` for RF-only; streaming mean/std of per-step slots and
            latency, never a per-step history).
        per_ue_communication: the same, one snapshot per member.
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
    def final_rmse_db(self) -> float:
        if not self.records:
            return float("nan")
        return self.records[-1].validation_rmse_db

    @property
    def best_rmse_db(self) -> float:
        if not self.records:
            return float("nan")
        return min(record.validation_rmse_db for record in self.records)

    @property
    def elapsed_times_s(self) -> np.ndarray:
        return np.array([record.elapsed_s for record in self.records])

    @property
    def validation_rmse_curve_db(self) -> np.ndarray:
        return np.array([record.validation_rmse_db for record in self.records])

    def time_to_reach_db(self, rmse_db: float) -> float:
        """Simulated time needed to first reach ``rmse_db`` (inf if never)."""
        for record in self.records:
            if record.validation_rmse_db <= rmse_db:
                return record.elapsed_s
        return float("inf")

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


#: Subtrees :func:`_layout` checks by presence only: top-k codec residuals
#: appear with the first step, and a fresh trainer has no normalizer yet.
_PRESENCE_ONLY = ("codec", "normalizer")
_PLAIN_LEAF = "a plain-data leaf"
_PRESENT = "present"


def _layout(tree: dict, prefix: str = "") -> dict:
    """``{key path: what the leaf must be}`` of a trainer state tree.

    Arrays map to ``(shape, dtype)``, other leaves to one marker, and a
    :data:`_PRESENCE_ONLY` subtree to its presence.  Key paths join keys
    with ``//``, as the checkpoint archive does.
    """
    layout: dict = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if key in _PRESENCE_ONLY:
            layout[path] = _PRESENT
        elif isinstance(value, np.ndarray):
            layout[path] = (value.shape, value.dtype.str)
        elif isinstance(value, dict):
            layout.update(_layout(value, f"{path}//"))
        else:
            layout[path] = _PLAIN_LEAF
    return layout


def _describe(entry) -> str:
    """One :func:`_layout` entry in words."""
    if isinstance(entry, tuple):
        shape, dtype = entry
        return f"shape {shape} {dtype}"
    return entry


class FleetTrainer:
    """Trains a fleet of UE clients against one shared BS.

    Args:
        config: base experiment configuration (model, training protocol and
            the nominal SL channel).  Only an N=1 rotation fleet accepts the
            RF-only model, which has no UE side.
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
        self._bank: Optional[StackedUEBank] = None

    def _ensure_bank(self) -> StackedUEBank:
        """The lazily built bank that trains every member in parallel rounds."""
        if self._bank is None:
            self._bank = StackedUEBank(
                [member.ue for member in self.fleet.members]
            )
        return self._bank

    # -- data preparation -------------------------------------------------------------
    def _model_inputs(self, sequences: SequenceDataset):
        """Model inputs of ``sequences``: images stay raw (already in [0, 1])
        and are ``None`` without an image branch; powers are normalized, and
        ``None`` without an RF branch."""
        assert self.normalizer is not None
        model = self.config.model
        images = sequences.image_sequences if model.use_image else None
        powers = (
            self.normalizer.normalize(sequences.power_sequences)
            if model.use_rf
            else None
        )
        return images, powers

    def _draw_batch(
        self,
        member: FleetMember,
        shard: np.ndarray,
        batch_size: int,
        images: Optional[np.ndarray],
        powers: Optional[np.ndarray],
        targets: np.ndarray,
    ):
        """One minibatch from a member's shard, drawn with its own stream."""
        local = member.batch_rng.choice(len(shard), size=batch_size, replace=False)
        indices = shard[local]
        return (
            images[indices] if images is not None else None,
            powers[indices] if powers is not None else None,
            targets[indices],
        )

    # -- run state --------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete restorable trainer state (see :mod:`repro.split.checkpoint`)."""
        state = {"fleet": self.fleet.state_dict()}
        if self.normalizer is not None:
            state["normalizer"] = asdict(self.normalizer)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore trainer state captured by :meth:`state_dict`."""
        self.fleet.load_state_dict(state["fleet"])
        if "normalizer" in state:
            self.normalizer = PowerNormalizer(**state["normalizer"])

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
        """Checkpoint of a finished ``fit`` (the trained-model cache entry).

        Resuming from it returns ``history`` immediately, which is how the
        experiment pipeline serves trained-model cache hits.
        """
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
        self._check_layout(checkpoint.state)
        self.load_state_dict(checkpoint.state)
        return FleetHistory.from_state(checkpoint.history)

    def _check_layout(self, state: dict) -> None:
        """Raise unless ``state`` has this trainer's layout, before any load.

        Keys, array shapes and dtypes must match this trainer's own state
        tree, so a dropped entry or a checkpoint of another configuration
        fails here, with nothing overwritten, instead of partway through
        :meth:`load_state_dict`.  Plain-data leaves (RNG states, statistics)
        are checked by key; the codec and normalizer subtrees by presence,
        because top-k residuals appear with the first step and a fresh
        trainer has no normalizer yet (every checkpoint has one).

        Raises:
            ValueError: ``"mismatched checkpoint: ..."``, naming the first
                bad key in sorted order.
        """
        expected = _layout(self.state_dict())
        expected.setdefault("normalizer", _PRESENT)
        stored = _layout(state)
        for key in sorted(expected.keys() | stored.keys()):
            if key not in stored:
                raise ValueError(f"mismatched checkpoint: {key!r} is missing")
            if key not in expected:
                raise ValueError(
                    f"mismatched checkpoint: {key!r} is not part of this trainer"
                )
            if stored[key] != expected[key]:
                raise ValueError(
                    f"mismatched checkpoint: {key!r} holds {_describe(stored[key])}, "
                    f"this trainer expects {_describe(expected[key])}"
                )

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

        Args:
            train / validation: sequence datasets (when resuming, pass the
                *same* data the checkpointed run used).
            max_rounds: round budget (default: the fleet config's
                ``max_rounds``, else the training config's ``max_epochs``).
            checkpoint_path: when set, a round-granular :class:`Checkpoint`
                is written (atomically) to this path every
                ``checkpoint_every`` rounds and at the end of the run.
            checkpoint_every: checkpoint cadence in rounds.
            resume_from: a :class:`Checkpoint` (or path to one) produced by a
                previous ``fit`` with the same configuration and data.  The
                continued run draws the same RNG streams the uninterrupted
                run would have drawn, so the resulting history and final
                weights are bit-identical to never having stopped.  A
                checkpoint of a finished run returns its history immediately.

        Raises:
            FloatingPointError: a step produced a non-finite BS loss, BS
                gradient or UE gradient (the message names the round and the
                step within it, and the members for a UE gradient); neither
                half of that step was updated.  The checkpoint at
                ``checkpoint_path`` keeps the last finished round.
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
            # Each fresh fit accounts its own communication: stale counts
            # from a previous run on the same trainer must not leak into this
            # one.  (A resumed fit keeps the restored counts: they belong to
            # this run.)
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

        images, powers = self._model_inputs(train)
        targets = self.normalizer.normalize(train.targets)
        shards = shard_indices(len(train), self.fleet.num_ues)
        batch_sizes = [
            min(training.batch_size, len(shard)) for shard in shards
        ]
        round_steps = (
            self._rotation_round
            if fleet_config.mode == ROTATION
            else self._parallel_round
        )

        for round_index in range(start_round + 1, max_rounds + 1):
            if history.reached_target:
                break
            losses: List[float] = []
            duration = busy = 0.0
            lost = steps = 0
            step_index = 1  # the step in progress, named by a non-finite error
            try:
                for step_s, step_busy_s, loss, step_lost, member_steps in round_steps(
                    shards, batch_sizes, steps_per_turn, images, powers, targets
                ):
                    # The run clock advances step by step; the round's own
                    # duration is summed beside it.
                    elapsed_s += step_s
                    duration += step_s
                    busy += step_busy_s
                    lost += step_lost
                    steps += member_steps
                    if loss is not None:
                        losses.append(loss)
                    step_index += 1
            except FloatingPointError as error:
                raise FloatingPointError(
                    f"round {round_index}, step {step_index}: {error}"
                ) from error
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
                "%s, N=%d %s round %d: elapsed %.2fs, occupancy %.3f, "
                "val RMSE %.2f dB",
                history.scheme,
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
        # Snapshots, not the live objects: later steps on this trainer (or a
        # second fit) must not mutate the returned history.
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
        images: Optional[np.ndarray],
        powers: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> Iterator[StepOutcome]:
        """One rotation round: each member trains alone during its turn, one
        :meth:`SplitTrainingProtocol.training_step` (a roster-of-one
        :func:`joint_step`) at a time."""
        for member, shard, batch_size in zip(self.fleet, shards, batch_sizes):
            self.fleet.hand_off_to(member.index)
            for _ in range(steps_per_turn):
                result = member.protocol.training_step(
                    *self._draw_batch(
                        member, shard, batch_size, images, powers, targets
                    )
                )
                communication = result.communication
                yield (
                    result.elapsed_s,
                    communication.total_elapsed_s if communication is not None else 0.0,
                    result.loss if result.updated else None,
                    0 if result.updated else 1,
                    1,
                )

    # -- parallel-average mode --------------------------------------------------------
    def _parallel_round(
        self,
        shards: Sequence[np.ndarray],
        batch_sizes: Sequence[int],
        steps_per_turn: int,
        images: Optional[np.ndarray],
        powers: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> Iterator[StepOutcome]:
        """One parallel-average round: one :func:`joint_step` of the whole
        fleet per step, then weight averaging.

        The fleet's bank gathers the members here and scatters back before
        the averaging, so the members hold the canonical state between rounds.
        """
        bank = self._ensure_bank()
        bank.gather()
        protocols = [member.protocol for member in self.fleet]
        for _ in range(steps_per_turn):
            batches = [
                self._draw_batch(member, shard, batch_size, images, powers, targets)
                for member, shard, batch_size in zip(
                    self.fleet, shards, batch_sizes
                )
            ]
            outcome, _ = joint_step(
                protocols, self.fleet.bs, bank, self.scheduler, batches
            )
            yield outcome
        bank.scatter()
        self.fleet.average_ue_weights()

    # -- evaluation -------------------------------------------------------------------
    def predict_dbm(self, sequences: SequenceDataset) -> np.ndarray:
        """Predict received power in dBm for every window of ``sequences``.

        The one evaluation path of every run and experiment: the protocol of
        the member holding the freshest logical model predicts (in
        parallel-average mode every member holds it right after the
        averaging), and its normalized output is mapped back to dBm.  The
        windows' frame indices let the UE CNN run once per distinct frame.
        """
        if self.normalizer is None:
            raise RuntimeError("the trainer has not been fitted yet")
        images, powers = self._model_inputs(sequences)
        protocol = self.fleet.members[self.fleet.weight_holder].protocol
        normalized = protocol.predict(
            images,
            powers,
            batch_size=self.config.training.eval_batch_size,
            frame_ids=sequences.frame_indices,
        )
        return self.normalizer.denormalize(normalized)

    def evaluate(self, sequences: SequenceDataset) -> float:
        """Validation RMSE in dB (predictions and targets in dBm)."""
        return root_mean_squared_error(self.predict_dbm(sequences), sequences.targets)


#: The medium of a protocol training alone (a rotation turn).  With one demand
#: per phase every work-conserving discipline completes it after exactly its
#: own slots, so one instance serves every protocol.
UNCONTENDED: MediumScheduler = RoundRobinScheduler()


def joint_step(
    protocols: Sequence[SplitTrainingProtocol],
    bs: BSServer,
    bank,
    scheduler: MediumScheduler,
    batches: Sequence[tuple],
) -> Tuple[StepOutcome, List[Optional[StepCommunication]]]:
    """One training step of every protocol in ``protocols`` over one medium.

    The one training step of the library: a rotation turn runs it on a
    roster of one (:meth:`SplitTrainingProtocol.training_step`), a
    parallel-average round on the whole fleet.  The protocols share ``bs``
    and one configuration, ``bank`` runs their UE CNNs (``None`` without an
    image branch; one stacked array when every batch size agrees, per-member
    lists otherwise), and ``batches`` holds one ``(images, powers,
    targets)`` minibatch per protocol.  In order:

    1. every UE runs its CNN forward and its codec encodes the cut-layer
       activations;
    2. every protocol's own ARQ session draws its uplink slot demand, and
       ``scheduler`` serializes the demands onto the shared medium;
    3. every member whose uplink decoded draws its downlink demand (sized by
       the codec's bound: the gradient does not exist yet), scheduled the
       same way;
    4. when at least one downlink is delivered, the BS steps once on the
       concatenated batch of every decoded member (a member whose downlink
       failed contributed its data and loses only its UE update), the
       delivered gradients pass the downlink codecs and the delivered UEs
       update.  Otherwise the BS never runs and the step is lost.

    The simulated duration is ``compute + (uplink busy + downlink busy)``.
    UEs compute in parallel, so ``compute`` is
    ``TrainingConfig.compute_time_per_step_s`` once per step; without an
    image branch it is the BS compute time alone, as the RF-only baseline
    measures its powers at the BS and transmits nothing.  Each session
    records its exchange with its completion time on the medium as latency
    (own slots plus queueing), while its slot count stays its own demand.

    A non-finite BS loss, BS gradient norm or UE gradient norm raises
    ``FloatingPointError`` before either half updates and leaves every codec
    as it was before the step.

    Returns:
        The step's :data:`StepOutcome` and each protocol's recorded exchange
        (``None`` without an image branch).
    """
    config = protocols[0].config
    training, model = config.training, config.model
    codecs = [protocol.codec for protocol in protocols]
    sizes = [len(target_batch) for _, _, target_batch in batches]
    decoded = list(range(len(protocols)))
    positions = decoded  # of the delivered members, within ``decoded``
    busy = 0.0
    saved: list = []
    if model.use_image:
        compute_s = training.compute_time_per_step_s
        sessions = [protocol.arq for protocol in protocols]
        tau = config.channel.slot_duration_s
        features = bank.forward([image_batch for image_batch, _, _ in batches])
        # One config builds every protocol, so one payload check per
        # distinct batch size covers every member.
        downlink_bounds = {}
        for index, size in enumerate(sizes):
            if size not in downlink_bounds:
                downlink_bounds[size] = protocols[0].sized_downlink_bits(
                    features[index], size
                )
        # Error-feedback codecs move from here on: keep their state so a
        # raise can put it back.  Stateless codecs have nothing to keep.
        saved = [
            (codec, codec.state_dict()) for codec in codecs if codec.stateful
        ]
        features, uplink_bits = encode_decode_stacked(
            codecs, features, UPLINK_STREAM
        )

        uplinks = transmit_uplink_across(sessions, uplink_bits)
        schedule = scheduler.schedule(uplinks.slots_used, payload_bits=uplink_bits)
        uplink_results = dataclass_replace(
            uplinks, elapsed_s=schedule.completion_times_s(tau)
        ).results()
        busy = schedule.busy_time_s(tau)

        # The downlink is gated per member on its own uplink.
        decoded = np.flatnonzero(uplinks.success).tolist()
        downlinks = {}
        if decoded:
            downlink_bits = [downlink_bounds[sizes[index]] for index in decoded]
            attempts = transmit_downlink_across(
                [sessions[index] for index in decoded], downlink_bits
            )
            schedule = scheduler.schedule(
                attempts.slots_used, payload_bits=downlink_bits
            )
            busy += schedule.busy_time_s(tau)
            downlinks = dict(
                zip(
                    decoded,
                    dataclass_replace(
                        attempts, elapsed_s=schedule.completion_times_s(tau)
                    ).results(),
                )
            )
        positions = [
            position
            for position, index in enumerate(decoded)
            if downlinks[index].success
        ]
    else:
        compute_s = training.bs_compute_time_s

    loss_value: Optional[float] = None
    if positions:
        rf_batch = (
            np.concatenate([batches[index][1] for index in decoded], axis=0)
            if model.use_rf
            else None
        )
        target_batch = np.concatenate([batches[index][2] for index in decoded], axis=0)
        try:
            loss_value, cut_gradient = bs.compute_loss_and_gradients(
                _concatenate_members(features, decoded) if model.use_image else None,
                rf_batch,
                target_batch,
            )
            bs.check_gradients()
            if model.use_image:
                delivered = [decoded[position] for position in positions]
                gradients = _split_members(
                    cut_gradient,
                    [sizes[index] for index in decoded],
                    positions,
                    stacked=isinstance(features, np.ndarray),
                )
                gradients, _ = encode_decode_stacked(
                    [codecs[index] for index in delivered],
                    gradients,
                    DOWNLINK_STREAM,
                )
                bank.backward_and_update(delivered, gradients)
        except FloatingPointError:
            for codec, state in saved:
                codec.load_state_dict(state)
            raise
        bs.apply_update()

    communications: List[Optional[StepCommunication]] = [None] * len(protocols)
    if model.use_image:
        communications = [
            session.record_exchange(uplink_result, downlinks.get(index))
            for index, (session, uplink_result) in enumerate(
                zip(sessions, uplink_results)
            )
        ]
    lost = sum(not step.success for step in communications if step is not None)
    return (compute_s + busy, busy, loss_value, lost, len(protocols)), communications


def _concatenate_members(batches, indices: Sequence[int]) -> np.ndarray:
    """The member batches ``batches[i]`` for ``i`` in ``indices``, as one batch.

    ``batches`` is one array with a leading member axis or, when the
    members' batch sizes differ, a list of per-member arrays.
    """
    if isinstance(batches, np.ndarray):
        return batches[indices].reshape((-1,) + batches.shape[2:])
    return np.concatenate([batches[index] for index in indices], axis=0)


def _split_members(
    rows: np.ndarray, sizes: Sequence[int], positions: Sequence[int], stacked: bool
):
    """The inverse of :func:`_concatenate_members`, for some members only.

    ``rows`` holds consecutive member batches of ``sizes`` rows each; returns
    the batches at ``positions``, stacked on a leading member axis (equal
    sizes) or as a list.
    """
    if stacked:
        return rows.reshape((len(sizes), sizes[0]) + rows.shape[1:])[positions]
    parts = np.split(rows, np.cumsum(sizes)[:-1])
    return [parts[position] for position in positions]
