"""Per-member UE compute: the test oracle of ``StackedUEBank``.

:class:`MemberLoop` answers the bank's joint-step calls by running every
member's own ``UEClient`` one at a time, through the per-member reference
``UEClient.forward`` / ``backward`` / ``apply_update``.  Installed as a
trainer's bank (``trainer._bank = MemberLoop(...)``), it replays a fleet run
the way the per-member code would; the bank must match it bit for bit.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.split.ue import UEClient


class MemberLoop:
    """Each member's own ``UEClient``, one at a time.

    Same calls as :class:`~repro.fleet.bank.StackedUEBank`, on lists of
    per-member arrays.  The clients are updated in place, so ``gather`` and
    ``scatter`` have nothing to do.

    Args:
        clients: the fleet members' ``UEClient`` objects, in member order.
    """

    def __init__(self, clients: Sequence[UEClient]):
        self._clients: List[UEClient] = list(clients)

    def gather(self) -> None:
        """Nothing to snapshot: the clients are the state."""

    def scatter(self) -> None:
        """Nothing to write back: the clients were updated in place."""

    def forward(self, image_sequences: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every member's ``UEClient.forward`` on its own minibatch."""
        return [
            client.forward(images)
            for client, images in zip(self._clients, image_sequences)
        ]

    def backward_and_update(
        self, members: Sequence[int], cut_gradients: Sequence[np.ndarray]
    ) -> None:
        """Backpropagate and update the listed members, one gradient each."""
        for member, gradient in zip(members, cut_gradients):
            client = self._clients[member]
            client.backward(gradient)
            client.apply_update()
