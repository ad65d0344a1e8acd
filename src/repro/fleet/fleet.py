"""The fleet itself: N UE clients, one shared BS, N independent channels.

``UEFleet`` owns the per-UE machinery — each member has its own
:class:`~repro.split.ue.UEClient`, its own
:class:`~repro.channel.arq.ArqSession` over a placement-jittered channel, and
its own minibatch RNG — while the :class:`~repro.split.bs.BSServer` is a
single shared instance injected into every member's protocol.  Every
member's UE state (CNN weights, Adam moments, step count) is one row of the
fleet's :class:`~repro.fleet.bank.StackedUEBank`, ``UEFleet.bank``: the
rotation hand-off and the parallel averaging write rows of it, and a
checkpoint stores it once.

Seeding is arranged so that **member 0 is byte-for-byte the single-UE
setup**: its protocol is constructed exactly like ``SplitTrainingProtocol
(config)`` and its batch RNG is seeded by the training seed alone, so a fleet
of one is the paper's protocol (``SplitTrainer``).  Members 1..N-1 draw their
weight-init, channel and batch streams from a salted seed sequence that never
touches member 0's streams, so growing the fleet never perturbs the anchor.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from repro.channel.params import WirelessChannelParams
from repro.fleet.bank import StackedUEBank
from repro.scenarios.placement import fleet_channel_params
from repro.split.config import ExperimentConfig
from repro.split.protocol import SplitTrainingProtocol
from repro.fleet.config import ROTATION, FleetConfig
from repro.utils.seeding import (
    as_generator,
    capture_generator_state,
    restore_generator_state,
    spawn_generators,
)

#: Salt for the members-1..N-1 seed sequence (weight init, channel, batches).
FLEET_STREAM_SALT = 0xF1EE7


@dataclass
class FleetMember:
    """One UE of the fleet and everything that belongs to it alone.

    Attributes:
        index: position in the fleet (0 is the single-UE anchor).
        protocol: this member's protocol; ``protocol.bs`` is the fleet-shared
            BS instance, ``protocol.ue`` / ``protocol.arq`` are private.
        batch_rng: minibatch sampling stream.
        channel: this member's (possibly jittered) SL channel parameters.
    """

    index: int
    protocol: SplitTrainingProtocol
    batch_rng: np.random.Generator
    channel: WirelessChannelParams

    @property
    def ue(self):
        return self.protocol.ue

    @property
    def arq(self):
        return self.protocol.arq


class UEFleet:
    """N split-learning clients over one shared BS and one shared medium.

    Args:
        config: the base experiment configuration (member 0 uses it verbatim;
            members 1..N-1 get a placement-jittered copy of its channel).
        fleet_config: fleet size, mode, scheduler and jitter knobs.
    """

    def __init__(self, config: ExperimentConfig, fleet_config: FleetConfig):
        # The paper's RF-only baseline has no UE side and no cut-layer
        # traffic; it trains only as the single-UE rotation fleet.
        single_ue = fleet_config.num_ues == 1 and fleet_config.mode == ROTATION
        if not config.model.use_image and not single_ue:
            raise ValueError(
                "a fleet needs cut-layer traffic; the RF-only baseline has "
                "no UE-side model to train"
            )
        self.config = config
        self.fleet_config = fleet_config
        fleet_seed = (
            fleet_config.seed
            if fleet_config.seed is not None
            else config.training.seed
        )
        channels = fleet_channel_params(
            config.channel,
            fleet_config.num_ues,
            jitter_fraction=fleet_config.placement_jitter,
            seed=fleet_seed,
        )
        slot_durations = {channel.slot_duration_s for channel in channels}
        if len(slot_durations) != 1:
            raise ValueError(
                "all fleet channels must share one slot duration; the medium "
                "is slotted globally"
            )
        self.slot_duration_s = slot_durations.pop()

        # Member 0 IS the single-UE construction: same protocol seeding
        # (training.seed split into ue/bs/channel streams), same batch RNG.
        base_protocol = SplitTrainingProtocol(config)
        self.members: List[FleetMember] = [
            FleetMember(
                index=0,
                protocol=base_protocol,
                batch_rng=as_generator(config.training.seed),
                channel=config.channel,
            )
        ]
        if fleet_config.num_ues > 1:
            extra = spawn_generators(
                np.random.SeedSequence([int(fleet_seed), FLEET_STREAM_SALT]),
                2 * (fleet_config.num_ues - 1),
            )
            for k in range(1, fleet_config.num_ues):
                member_config = replace(config, channel=channels[k])
                protocol = SplitTrainingProtocol(
                    member_config,
                    seed=extra[2 * (k - 1)],
                    bs=base_protocol.bs,
                )
                self.members.append(
                    FleetMember(
                        index=k,
                        protocol=protocol,
                        batch_rng=extra[2 * (k - 1) + 1],
                        channel=channels[k],
                    )
                )
        # One bank holds every member's UE state.  Every row starts from the
        # same weights (member 0's init): the rotation hand-off assumes one
        # logical model, and parallel averaging assumes a common starting
        # point, exactly like splitfed.
        self.bank = None
        if config.model.use_image:
            ue = base_protocol.ue
            self.bank = StackedUEBank.broadcast(
                ue.plan,
                [param.value for param in ue.cnn.parameters()],
                fleet_config.num_ues,
                config.training,
            )
            for member in self.members:
                member.ue.join(self.bank, member.index)
        self._weight_holder = 0

    @property
    def bs(self):
        """The single shared BS instance."""
        return self.members[0].protocol.bs

    @property
    def num_ues(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    # -- rotation hand-off ------------------------------------------------------------
    @property
    def weight_holder(self) -> int:
        """Index of the member currently holding the freshest UE weights."""
        return self._weight_holder

    def hand_off_to(self, index: int) -> None:
        """Copy the logical UE model to member ``index`` (rotation mode).

        Only the weights move: the receiving member keeps its own Adam state,
        the classic split-learning hand-off.  A no-op when the member already
        holds the weights — in particular for a fleet of one, where no copy
        ever happens.
        """
        if index == self._weight_holder:
            return
        self.bank.scatter(self.bank.weights(self._weight_holder), [index])
        self._weight_holder = index

    # -- parallel averaging -----------------------------------------------------------
    def average_ue_weights(self) -> None:
        """Average all members' CNN weights and broadcast the result back.

        The per-member Adam moment estimates are *not* averaged (standard
        FedAvg practice); after this call every member holds identical
        weights, so any member can serve evaluation.
        """
        self.bank.scatter(self.bank.gather(), slice(None))
        self._weight_holder = 0

    # -- run state --------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete restorable fleet state.

        The shared BS and the UE bank (every member's weights and Adam
        state) are stored once; each member contributes the rest of its
        private half (ARQ session, codec state, batch stream).
        """
        state = {
            "bs": self.bs.state_dict(),
            "weight_holder": self._weight_holder,
            "members": {
                str(member.index): {
                    "protocol": member.protocol.state_dict(),
                    "batch_rng": capture_generator_state(member.batch_rng),
                }
                for member in self.members
            },
        }
        if self.bank is not None:
            state["ue"] = self.bank.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore fleet state captured by :meth:`state_dict`."""
        members = state["members"]
        if len(members) != self.num_ues:
            raise ValueError(
                f"checkpoint holds {len(members)} members, this fleet has "
                f"{self.num_ues}"
            )
        self.bs.load_state_dict(state["bs"])
        if self.bank is not None:
            self.bank.load_state_dict(state["ue"])
        self._weight_holder = int(state["weight_holder"])
        for member in self.members:
            member_state = members[str(member.index)]
            member.protocol.load_state_dict(member_state["protocol"])
            restore_generator_state(member.batch_rng, member_state["batch_rng"])

    # -- statistics -------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Clear every member's ARQ session statistics (start of a fit)."""
        for member in self.members:
            if member.arq is not None:
                member.arq.reset_statistics()

    def merged_statistics(self):
        """Fleet-level :class:`~repro.channel.arq.ArqStatistics` across members."""
        merged = None
        for member in self.members:
            if member.arq is None:
                continue
            stats = member.arq.statistics
            merged = stats.snapshot() if merged is None else merged.merge(stats)
        return merged


def shard_indices(num_windows: int, num_shards: int) -> List[np.ndarray]:
    """Strided split of window indices across shards.

    Striding interleaves the shards temporally so every UE sees blockage
    events from the whole capture, not one contiguous stretch.  A single
    shard is the identity (the N=1 anchor).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if num_windows < num_shards:
        raise ValueError(
            f"cannot shard {num_windows} training windows across "
            f"{num_shards} UEs; every UE needs at least one window"
        )
    return [
        np.arange(shard, num_windows, num_shards, dtype=np.intp)
        for shard in range(num_shards)
    ]
