"""Rate-1/2, constraint-length-7 convolutional code of IEEE 802.11.

Generator polynomials g0 = 133 (octal) and g1 = 171 (octal). Higher rates
(2/3, 3/4) are derived by puncturing. Decoding is hard-decision Viterbi with
traceback over the full message (adequate for the short emulation blocks the
paper needs).

The emulation pipeline (paper Fig. 1) runs the *decoder* on quantized
waveform bits to discover a feasible payload, then re-encodes it — so both
directions here must be exact inverses on valid codewords.

The hot paths are fully vectorised: the encoder is two binary convolutions,
puncturing indexes with cached boolean keep-masks, and the Viterbi
add-compare-select step reduces a precomputed branch-mismatch tensor over a
static predecessor table. The original per-bit/per-state loops live with
the test oracles (``tests/oracles/kernels.py``), where the equivalence
suite and the kernel benchmarks pin the fast path bit-for-bit against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import DecodingError, EncodingError
from repro.phy.bits import BitArray, as_bits

#: Constraint length.
CONSTRAINT_LENGTH = 7

#: Generator polynomials, octal 133 and 171.
G0 = 0o133
G1 = 0o171

_NUM_STATES = 1 << (CONSTRAINT_LENGTH - 1)

#: Puncturing patterns from IEEE 802.11-2016 §17.3.5.7, expressed over the
#: (A, B) output streams. A ``1`` keeps the bit, a ``0`` deletes it.
PUNCTURE_PATTERNS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "1/2": ((1,), (1,)),
    "2/3": ((1, 1), (1, 0)),
    "3/4": ((1, 1, 0), (1, 0, 1)),
}


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Precompute next-state and output tables indexed by (state, input)."""
    next_state = np.zeros((_NUM_STATES, 2), dtype=np.int32)
    outputs = np.zeros((_NUM_STATES, 2, 2), dtype=np.uint8)
    for state in range(_NUM_STATES):
        for bit in (0, 1):
            register = (bit << (CONSTRAINT_LENGTH - 1)) | state
            out0 = _parity(register & G0)
            out1 = _parity(register & G1)
            next_state[state, bit] = register >> 1
            outputs[state, bit, 0] = out0
            outputs[state, bit, 1] = out1
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()


def _build_predecessors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the trellis: the two (state, input) transitions into each state.

    Flat transition index is ``state * 2 + input`` — the same packing the
    survivor array uses — and each row is sorted ascending so that ties in
    the add-compare-select step resolve to the lowest flat index, exactly
    like the reference decoder's stable argsort.
    """
    pred_flat = np.zeros((_NUM_STATES, 2), dtype=np.int64)
    flat_next = _NEXT_STATE.ravel()
    for ns in range(_NUM_STATES):
        pred_flat[ns] = np.nonzero(flat_next == ns)[0]
    pred_out = _OUTPUTS.reshape(-1, 2).astype(np.int64)[pred_flat]
    return pred_flat, pred_flat >> 1, pred_out


#: ``_PRED_FLAT[ns, j]`` — flat index of the j-th transition into ``ns``;
#: ``_PRED_STATE`` its originating state; ``_PRED_OUT[ns, j]`` its (A, B)
#: output pair.
_PRED_FLAT, _PRED_STATE, _PRED_OUT = _build_predecessors()

#: Tap vectors over ``b_i .. b_{i-6}`` for the two generators (tap ``k`` is
#: register bit ``6 - k``), so each output stream is a binary convolution.
_TAPS = np.array(
    [
        [(g >> (CONSTRAINT_LENGTH - 1 - k)) & 1 for k in range(CONSTRAINT_LENGTH)]
        for g in (G0, G1)
    ],
    dtype=np.int64,
)


@dataclass(frozen=True)
class CodeRate:
    """A supported coding rate with its puncturing pattern."""

    name: str
    numerator: int
    denominator: int

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator

    @classmethod
    def from_name(cls, name: str) -> "CodeRate":
        if name not in PUNCTURE_PATTERNS:
            raise EncodingError(
                f"unsupported code rate {name!r}; expected one of "
                f"{sorted(PUNCTURE_PATTERNS)}"
            )
        num, den = (int(p) for p in name.split("/"))
        return cls(name=name, numerator=num, denominator=den)


def conv_encode(bits: "np.typing.ArrayLike") -> BitArray:
    """Encode ``bits`` at rate 1/2; output interleaves the A and B streams.

    The encoder starts in the all-zero state; the caller is responsible for
    appending tail bits if state termination is wanted (the Wi-Fi chain
    appends six zero tail bits).
    """
    arr = as_bits(bits)
    out = np.empty(arr.size * 2, dtype=np.uint8)
    if arr.size == 0:
        return out
    x = arr.astype(np.int64)
    out[0::2] = np.convolve(x, _TAPS[0])[: arr.size] & 1
    out[1::2] = np.convolve(x, _TAPS[1])[: arr.size] & 1
    return out


@lru_cache(maxsize=None)
def _keep_mask(rate: str, half_len: int) -> np.ndarray:
    """Read-only boolean keep-mask for ``half_len`` (A, B) pairs."""
    pat_a, pat_b = PUNCTURE_PATTERNS[rate]
    keep = np.empty(half_len * 2, dtype=bool)
    keep[0::2] = np.resize(np.asarray(pat_a, dtype=bool), half_len)
    keep[1::2] = np.resize(np.asarray(pat_b, dtype=bool), half_len)
    keep.setflags(write=False)
    return keep


def puncture(coded: "np.typing.ArrayLike", rate: str) -> BitArray:
    """Delete bits from a rate-1/2 stream according to ``rate``'s pattern."""
    arr = as_bits(coded)
    if arr.size % 2:
        raise EncodingError("coded stream length must be even before puncturing")
    return arr[_keep_mask(CodeRate.from_name(rate).name, arr.size // 2)]


def depuncture(punctured: "np.typing.ArrayLike", rate: str) -> tuple[BitArray, np.ndarray]:
    """Re-insert erasures removed by :func:`puncture`.

    Returns ``(bits, known_mask)`` where erased positions hold 0 and the mask
    marks positions that carry real channel observations.
    """
    arr = as_bits(punctured)
    rate_name = CodeRate.from_name(rate).name
    pat_a, pat_b = PUNCTURE_PATTERNS[rate_name]
    period = len(pat_a)
    kept_per_period = sum(pat_a) + sum(pat_b)
    if arr.size % kept_per_period:
        raise DecodingError(
            f"punctured length {arr.size} is not a multiple of the "
            f"{rate} pattern ({kept_per_period} bits/period)"
        )
    periods = arr.size // kept_per_period
    mask = _keep_mask(rate_name, periods * period).copy()
    full = np.zeros(mask.size, dtype=np.uint8)
    # Kept positions ascend, so a masked scatter reproduces the sequential
    # fill order of the pattern walk.
    full[mask] = arr
    return full, mask


def _decode_args(
    coded: "np.typing.ArrayLike", known_mask: np.ndarray | None
) -> tuple[BitArray, np.ndarray, int]:
    arr = as_bits(coded)
    if arr.size % 2:
        raise DecodingError("coded stream length must be even")
    if known_mask is None:
        known_mask = np.ones(arr.size, dtype=bool)
    else:
        known_mask = np.asarray(known_mask, dtype=bool).ravel()
        if known_mask.size != arr.size:
            raise DecodingError("known_mask length must match coded length")
    return arr, known_mask, arr.size // 2


def viterbi_decode(
    coded: "np.typing.ArrayLike",
    *,
    known_mask: np.ndarray | None = None,
    terminated: bool = False,
) -> BitArray:
    """Hard-decision Viterbi decode of a rate-1/2 stream.

    Parameters
    ----------
    coded:
        Interleaved (A, B) channel bits; length must be even.
    known_mask:
        Optional boolean mask (same length) marking which positions carry
        real observations; erased positions contribute no branch metric.
        Produced by :func:`depuncture`.
    terminated:
        If true, assume the encoder was driven back to state 0 by tail bits
        and trace back from state 0; otherwise from the best end state.

    The add-compare-select loop gathers from the static predecessor table
    and reduces a branch-mismatch tensor precomputed for all trellis steps;
    results are bit-identical to the per-step reference decoder in
    ``tests/oracles/kernels.py`` (pinned by the equivalence suite).
    """
    arr, known_mask, steps = _decode_args(coded, known_mask)

    inf = np.iinfo(np.int32).max // 2
    metrics = np.full(_NUM_STATES, inf, dtype=np.int64)
    metrics[0] = 0
    # survivors[t, s] = (previous state << 1) | input bit
    survivors = np.zeros((steps, _NUM_STATES), dtype=np.int32)

    received = arr.reshape(steps, 2).astype(np.int64)
    known = known_mask.reshape(steps, 2)
    # mismatch[t, ns, j]: Hamming distance between the received pair at step
    # t and the output pair of the j-th transition into state ns, counting
    # only positions the mask marks as observed.
    mismatch = (
        ((_PRED_OUT[None, :, :, 0] != received[:, None, None, 0])
         & known[:, 0, None, None]).astype(np.int64)
        + ((_PRED_OUT[None, :, :, 1] != received[:, None, None, 1])
           & known[:, 1, None, None])
    )
    states = np.arange(_NUM_STATES)
    for t in range(steps):
        cand = metrics[_PRED_STATE] + mismatch[t]
        # argmin ties pick j = 0 — the lower flat transition index — exactly
        # the reference decoder's stable-argsort first occurrence.
        choice = cand.argmin(axis=1)
        metrics = cand[states, choice]
        survivors[t] = _PRED_FLAT[states, choice]

    state = 0 if terminated else int(np.argmin(metrics))
    decoded = np.empty(steps, dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        packed = int(survivors[t, state])
        decoded[t] = packed & 1
        state = packed >> 1
    return decoded


def encode_with_rate(bits: "np.typing.ArrayLike", rate: str = "1/2") -> BitArray:
    """Convenience: rate-1/2 encode then puncture to ``rate``."""
    coded = conv_encode(bits)
    if rate == "1/2":
        return coded
    return puncture(coded, rate)


def decode_with_rate(
    coded: "np.typing.ArrayLike", rate: str = "1/2", *, terminated: bool = False
) -> BitArray:
    """Convenience: depuncture from ``rate`` then Viterbi decode."""
    if rate == "1/2":
        return viterbi_decode(coded, terminated=terminated)
    full, mask = depuncture(coded, rate)
    return viterbi_decode(full, known_mask=mask, terminated=terminated)


__all__ = [
    "CONSTRAINT_LENGTH",
    "G0",
    "G1",
    "PUNCTURE_PATTERNS",
    "CodeRate",
    "conv_encode",
    "puncture",
    "depuncture",
    "viterbi_decode",
    "encode_with_rate",
    "decode_with_rate",
]
