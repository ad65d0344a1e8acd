"""Cut-layer payload codecs: lossy compression of activations and gradients.

The paper ships the cut-layer tensors at full float32 width; ROADMAP item 2
calls compressed payloads the biggest raw-latency lever available to the
protocol.  A :class:`PayloadCodec` simulates the encode -> transmit -> decode
round trip of one cut-layer tensor: it returns the *decoded* (lossy) tensor —
what the receiving side actually sees — together with the *encoded* payload
size in bits, which is what the ARQ session must transmit.

Three codec families are provided:

* :class:`IdentityCodec` — bit-for-bit today's behaviour: the decoded tensor
  is the input and the payload is ``elements * bits_per_value``, matching
  :meth:`repro.channel.payload.PayloadModel.uplink_payload_bits` exactly, so
  identity runs stay RNG-draw-for-draw and golden-identical to the
  pre-codec protocol.
* :class:`UniformQuantizerCodec` — per-tensor dynamic-range uniform
  quantization at a reduced bit width (uint8 / int4 presets).  The tensor's
  min/max travel as two float32 scalars, so the same codec handles the
  bounded sigmoid activations ([0, 1]) and the unbounded cut gradients.
* :class:`TopKCodec` — magnitude top-k sparsification with an error-feedback
  residual per stream (uplink activations, downlink gradients): values left
  behind are accumulated and compensated into later steps, so the per-step
  bias telescopes away over a run.  The payload is data-dependent (only
  nonzero selected values are shipped, each with an index), which is why the
  ARQ layer accepts one payload size per link.

Error-feedback residuals are run state: they join the protocol
``state_dict`` so checkpointed runs resume bit-identically.
"""
from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

#: Stream names a codec is asked to transmit (one residual buffer each).
UPLINK_STREAM = "uplink"
DOWNLINK_STREAM = "downlink"

#: Default fraction of cut-tensor elements kept by the top-k codec.
DEFAULT_TOPK_FRACTION = 0.05

#: Bits of side information per dynamic-range scalar (float32 min / max).
_RANGE_SCALAR_BITS = 32

#: Bits of the top-k payload header (the transmitted-value count).
_TOPK_HEADER_BITS = 32


class PayloadCodec:
    """Simulated encode/decode of one cut-layer tensor transmission.

    Subclasses implement :meth:`encode_decode` (the stateful training-time
    round trip), :meth:`preview` (a *stateless* lossy transform used at
    inference, where no residual bookkeeping may advance) and
    :meth:`sized_payload_bits` (a deterministic upper bound used to size a
    payload before its tensor exists — the downlink gradient is exchanged
    before the BS computes it).
    """

    name: str = ""

    #: Whether :meth:`encode_decode` carries state from one call to the next
    #: (error feedback); the training step restores such state when it
    #: raises.
    stateful: bool = False

    def encode_decode(
        self, values: np.ndarray, stream: str
    ) -> Tuple[np.ndarray, float]:
        """Transmit ``values`` on ``stream``; return ``(decoded, payload_bits)``."""
        raise NotImplementedError

    def preview(self, values: np.ndarray) -> np.ndarray:
        """Stateless lossy transform (inference path; must not mutate state)."""
        raise NotImplementedError

    def sized_payload_bits(self, num_elements: int) -> float:
        """Deterministic payload-size bound for a tensor of ``num_elements``."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Restorable codec state (empty for stateless codecs)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""


class IdentityCodec(PayloadCodec):
    """No compression: full-width payload, exact reconstruction."""

    name = "identity"

    def __init__(self, bits_per_value: int = 32):
        if bits_per_value <= 0:
            raise ValueError("bits_per_value must be positive")
        self.bits_per_value = int(bits_per_value)

    def encode_decode(self, values, stream):
        return values, self.sized_payload_bits(values.size)

    def preview(self, values):
        return values

    def sized_payload_bits(self, num_elements):
        return float(num_elements * self.bits_per_value)


class UniformQuantizerCodec(PayloadCodec):
    """Per-tensor dynamic-range uniform quantization at ``bits`` per value.

    Values are mapped to ``2**bits - 1`` evenly spaced levels spanning the
    tensor's [min, max]; the two range scalars ship as float32 side
    information.  Deterministic and stateless: the decoded tensor depends
    only on the input.
    """

    def __init__(self, bits: int, name: str = ""):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = int(bits)
        self.name = name or f"uniform{self.bits}"
        self._levels = float(2**self.bits - 1)

    def encode_decode(self, values, stream):
        return self._quantize(values), self.sized_payload_bits(values.size)

    def preview(self, values):
        return self._quantize(values)

    def sized_payload_bits(self, num_elements):
        return float(num_elements * self.bits + 2 * _RANGE_SCALAR_BITS)

    def _quantize(self, values: np.ndarray) -> np.ndarray:
        low = float(values.min())
        high = float(values.max())
        if high == low:
            # A constant tensor is carried entirely by the range scalars.
            return np.full_like(values, low)
        step = (high - low) / self._levels
        if step == 0.0:  # repro: noqa[HYG001] -- exact underflow guard
            # The level spacing of a subnormal range this narrow underflows to
            # zero; every value is within a few ulps of the range scalars, so
            # the tensor passes through unquantized.
            return values.copy()
        quantized = np.rint((values - low) / step)
        return low + quantized * step


class TopKCodec(PayloadCodec):
    """Magnitude top-k sparsification with per-stream error feedback.

    Each transmission keeps the ``k = ceil(fraction * n)`` entries of largest
    magnitude of the *residual-compensated* tensor and accumulates the rest
    into the stream's residual buffer, which is added to the next tensor on
    the same stream (error feedback): over a run the decoded sum telescopes
    to the input sum plus the initial-minus-final residual.

    The residual buffers are run state (captured by :meth:`state_dict`) and
    reset whenever the tensor shape changes — e.g. a final short minibatch.
    """

    name = "topk"
    stateful = True

    def __init__(
        self,
        fraction: float = DEFAULT_TOPK_FRACTION,
        bits_per_value: int = 32,
    ):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if bits_per_value <= 0:
            raise ValueError("bits_per_value must be positive")
        self.fraction = float(fraction)
        self.bits_per_value = int(bits_per_value)
        self._residuals: Dict[str, np.ndarray] = {}

    def keep_count(self, num_elements: int) -> int:
        """Number of values transmitted for a tensor of ``num_elements``."""
        if num_elements <= 0:
            raise ValueError("num_elements must be positive")
        return max(1, int(math.ceil(self.fraction * num_elements)))

    def _index_bits(self, num_elements: int) -> int:
        return max(1, int(math.ceil(math.log2(num_elements))))

    def _select_top_k(self, values: np.ndarray) -> np.ndarray:
        """Dense tensor keeping only the top-k entries of ``values``."""
        flat = values.reshape(-1)
        k = self.keep_count(flat.size)
        kept = np.zeros_like(flat)
        if k >= flat.size:
            kept[:] = flat
        else:
            indices = np.argpartition(np.abs(flat), flat.size - k)[flat.size - k:]
            kept[indices] = flat[indices]
        return kept.reshape(values.shape)

    def encode_decode(self, values, stream):
        residual = self._residuals.get(stream)
        if residual is None or residual.shape != values.shape:
            residual = np.zeros_like(values)
        compensated = values + residual
        decoded = self._select_top_k(compensated)
        self._residuals[stream] = compensated - decoded
        # Data-dependent payload: only nonzero selected values ship, each as
        # (value, index); a fixed header carries the count.
        transmitted = int(np.count_nonzero(decoded))
        bits = _TOPK_HEADER_BITS + transmitted * (
            self.bits_per_value + self._index_bits(values.size)
        )
        return decoded, float(bits)

    def preview(self, values):
        # Inference-time transform: plain top-k, no residual compensation —
        # error feedback is a training-time mechanism and previewing must not
        # advance the residual state.
        return self._select_top_k(values)

    def sized_payload_bits(self, num_elements):
        k = self.keep_count(num_elements)
        return float(
            _TOPK_HEADER_BITS
            + k * (self.bits_per_value + self._index_bits(num_elements))
        )

    def state_dict(self) -> dict:
        return {"residuals": {k: v.copy() for k, v in self._residuals.items()}}

    def load_state_dict(self, state: dict) -> None:
        residuals = state.get("residuals", {})
        self._residuals = {
            key: np.asarray(value).copy() for key, value in residuals.items()
        }


def encode_decode_stacked(
    codecs: "list[PayloadCodec]",
    values: "np.ndarray | list[np.ndarray]",
    stream: str,
) -> Tuple["np.ndarray | list[np.ndarray]", np.ndarray]:
    """Batched :meth:`PayloadCodec.encode_decode` across fleet members.

    ``values`` holds one tensor slice per codec: either one array with a
    leading member axis, or a list of per-member arrays whose shapes may
    differ.  The result is the decoded slices in the same form plus one
    payload size per member, member-for-member bitwise identical to calling
    each codec on its own slice.  Stacked homogeneous identity and
    uniform-quantizer fleets vectorize — the quantizer's per-member range
    scalars reduce along the flattened member rows, and every other
    operation is elementwise with member-scalar broadcasts.  Lists and
    stateful or mixed codec fleets fall back to a per-member loop on the
    canonical codec objects, so data-dependent payloads, residual
    error-feedback state and ``argpartition`` tie-ordering advance exactly
    as on the scalar path.
    """
    members = len(codecs)
    if members == 0 or len(values) != members:
        raise ValueError("need one codec per member tensor slice")
    first = codecs[0]
    # Only a stacked tensor of one codec type vectorizes.
    vectorizable = isinstance(values, np.ndarray) and all(
        type(codec) is type(first) for codec in codecs[1:]
    )
    if vectorizable and type(first) is IdentityCodec:
        if all(codec.bits_per_value == first.bits_per_value for codec in codecs):
            per_member = float(first.sized_payload_bits(values[0].size))
            return values, np.full(members, per_member)
    if vectorizable and type(first) is UniformQuantizerCodec:
        if all(codec.bits == first.bits for codec in codecs):
            rows = values.reshape(members, -1)
            low = rows.min(axis=1)
            high = rows.max(axis=1)
            constant = high == low
            lanes = (members,) + (1,) * (values.ndim - 1)
            step = (high - low) / first._levels
            # As in _quantize: a range whose level spacing underflows to zero
            # passes through unquantized.
            underflow = step == 0.0  # repro: noqa[HYG001] -- exact underflow guard
            underflow &= ~constant
            step = np.where(constant | underflow, 1.0, step)
            low_lane = low.reshape(lanes)
            step_lane = step.reshape(lanes)
            quantized = np.rint((values - low_lane) / step_lane)
            decoded = np.where(
                constant.reshape(lanes),
                np.broadcast_to(low_lane, values.shape),
                low_lane + quantized * step_lane,
            )
            if underflow.any():
                decoded = np.where(underflow.reshape(lanes), values, decoded)
            per_member = float(first.sized_payload_bits(values[0].size))
            return decoded, np.full(members, per_member)
    decoded = [None] * members
    bits = np.empty(members)
    for member, codec in enumerate(codecs):
        decoded[member], bits[member] = codec.encode_decode(values[member], stream)
    if isinstance(values, np.ndarray):
        return np.stack(decoded), bits
    return decoded, bits


#: Registered codec names, as accepted by ``ModelConfig.codec``.
CODEC_NAMES = ("identity", "uint8", "int4", "topk")


def codec_from_name(
    name: str,
    *,
    bits_per_value: int = 32,
    topk_fraction: float = DEFAULT_TOPK_FRACTION,
) -> PayloadCodec:
    """Instantiate a registered codec by name.

    ``bits_per_value`` is the full-width bit depth (identity payloads and
    top-k values); the quantizer presets fix their own reduced widths.
    """
    key = name.lower()
    if key == "identity":
        return IdentityCodec(bits_per_value=bits_per_value)
    if key == "uint8":
        return UniformQuantizerCodec(8, name="uint8")
    if key == "int4":
        return UniformQuantizerCodec(4, name="int4")
    if key == "topk":
        return TopKCodec(fraction=topk_fraction, bits_per_value=bits_per_value)
    raise ValueError(f"unknown codec {name!r}; expected one of {CODEC_NAMES}")
