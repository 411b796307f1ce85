"""Linear deterministic channel over bit vectors, with exact information
checks.

Two transmitters send length-q binary columns; each receiver sees the XOR
of down-shifted copies, the shift being q minus the link's integer
strength, so y = (x1 >> (q - s1)) XOR (x2 >> (q - s2)) with independent
inputs.  XOR with a fixed value is a bijection, so H(y | x1) is the entropy
of the interference image, and the law of y is the XOR-convolution of the
two image laws: one Walsh-Hadamard transform product, O(q 2^q) per input
distribution.

One batched pass serves both receivers for n distributions at once, in
the two checks and in the single-distribution helpers alike.  The four
images (signal and interference, at a and at b) are stacked as the columns
of one (2^q, 4n) array; one butterfly transforms all four, the elementwise
products are inverted by one more butterfly over the (2^q, 2n) output
laws, and one entropy pass validates and measures those laws, read back
as rows.  H(y | x1) is taken only where it is read: by
``check_less_noisy`` and the single-distribution helpers.

A batch is either a sequence of ``AdtDistribution`` or one float64 array of
shape (n, 2, 2^q), row i holding the marginals p1, p2 of law i; both are
validated the same way and read into the same (2, n, 2^q) block.  The
``adt`` verb draws its laws as one such array (``random_product_laws``)
and builds an ``AdtDistribution`` only for the worst law it reports; the
list generators (``random_product_dists``, ``random_table_dists``) and the
single-distribution helpers still build one object per law.  The two
checks:

* ``check_less_noisy``  — receiver b learns at least as much about x1 as
  receiver a whenever its interference-free headroom covers the whole of
  x1 (n1 - n2 >= m1).
* ``check_entropy_diff`` — the output-entropy difference H(ya) - H(yb) is
  at most m2 - n2 bits whenever n1 - 2 n2 >= m1 - m2 and n2 <= m2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError

DEFAULT_Q_CAP = 8
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class AdtParams:
    """Integer link strengths: (m1, m2) at receiver a, (n1, n2) at receiver b.

    Each strength is read with ``operator.index`` and stored as a plain int,
    so numpy integers are accepted and floats are refused.
    """

    m1: int
    m2: int
    n1: int
    n2: int

    def __post_init__(self):
        for name in ("m1", "m2", "n1", "n2"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if min(self.m1, self.m2, self.n1, self.n2) < 0:
            raise ValueError("strengths must be nonnegative")
        if self.m1 < self.m2 or self.n1 < self.n2:
            raise ValueError("need m1 >= m2 and n1 >= n2")

    @property
    def q(self) -> int:
        return max(self.m1, self.m2, self.n1, self.n2)


def _bit(b) -> int:
    """``b`` as the int 0 or 1; a non-integer such as 1.0 is refused, not coerced."""
    try:
        b = operator.index(b)
    except TypeError:
        raise ValueError("entries must be bits") from None
    if b not in (0, 1):
        raise ValueError("entries must be bits")
    return int(b)


def bits_to_int(bits: Sequence[int]) -> int:
    """Binary column to integer; index 0 is the top (most significant) level."""
    v = 0
    for b in bits:
        v = (v << 1) | _bit(b)
    return v


def int_to_bits(v: int, q: int) -> tuple[int, ...]:
    """Length-q binary column of ``v``, top level first; needs 0 <= v < 2^q."""
    if not 0 <= v < 1 << q:
        raise ValueError(f"value {v} does not fit in q = {q} bits")
    return tuple((v >> (q - 1 - i)) & 1 for i in range(q))


def downshift(bits: Sequence[int], t: int) -> tuple[int, ...]:
    """Move the top q-t levels down by t positions, zero-filling the top."""
    q = len(bits)
    if not 0 <= t <= q:
        raise ValueError("shift must be in 0..q")
    return tuple([0] * t + list(bits[: q - t]))


def adt_output(params: AdtParams, x1: Sequence[int], x2: Sequence[int]):
    """Channel outputs (ya, yb) for one input pair of length-q bit columns."""
    q = params.q
    if len(x1) != q or len(x2) != q:
        raise ValueError(f"inputs must have length q = {q}")
    x1, x2 = tuple(map(_bit, x1)), tuple(map(_bit, x2))
    ya = tuple(
        a ^ b
        for a, b in zip(downshift(x1, q - params.m1), downshift(x2, q - params.m2))
    )
    yb = tuple(
        a ^ b
        for a, b in zip(downshift(x1, q - params.n1), downshift(x2, q - params.n2))
    )
    return ya, yb


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of every row of ``p``, with 0 log 0 = 0.

    Rows must be nonnegative and sum to 1; masses in [-1e-12, 0] (transform
    round-off) count as 0.
    """
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1)


def entropy(probs: Iterable[float]) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0.  Masses must sum to 1."""
    return float(_entropy_rows(np.asarray(list(probs), dtype=np.float64)[None])[0])


@dataclass(frozen=True)
class AdtDistribution:
    """Independent input distributions, one marginal per transmitter.

    Each marginal is a length-2^q vector over integer-coded bit columns
    (index 0 bit = top level).  Independence is structural: the joint is
    always the product of the two marginals.
    """

    p1: tuple[float, ...]
    p2: tuple[float, ...]

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            n = len(p)
            if n == 0 or n & (n - 1):
                raise ValueError(f"{name} must have length 2^q")
            # negated so that a NaN or infinite mass, whose sum is not finite, fails too
            if min(p) < 0 or not abs(sum(p) - 1.0) <= 1e-12:
                raise ValueError(f"{name} must be a probability vector (sum within 1e-12 of 1)")
        if len(self.p1) != len(self.p2):
            raise ValueError("marginals must share the same q")

    @property
    def q(self) -> int:
        return len(self.p1).bit_length() - 1

    @staticmethod
    def uniform(q: int) -> "AdtDistribution":
        p = (1.0 / (1 << q),) * (1 << q)
        return AdtDistribution(p, p)

    @staticmethod
    def point(q: int, v1: int, v2: int) -> "AdtDistribution":
        if not (0 <= v1 < 1 << q and 0 <= v2 < 1 << q):
            raise ValueError(f"point values must lie in [0, 2^q) = [0, {1 << q})")
        zeros = (0.0,) * (1 << q)
        return AdtDistribution(*(zeros[:v] + (1.0,) + zeros[v + 1 :] for v in (v1, v2)))

    @staticmethod
    def product_bernoulli(theta1: Sequence[float], theta2: Sequence[float]) -> "AdtDistribution":
        """Per-level independent bits; theta[i] is P(top-level-i bit = 1)."""
        if len(theta1) != len(theta2):
            raise ValueError("sources must share the same q")
        return _as_dists(_product_laws(np.array([[theta1, theta2]], dtype=np.float64)))[0]


def _product_laws(theta: np.ndarray) -> np.ndarray:
    """Laws over 2^q bit columns of independent levels, P(level i = 1) = theta[..., i]."""
    p = np.ones(theta.shape[:-1] + (1,))
    for i in range(theta.shape[-1]):
        t = theta[..., i, None]
        p = np.stack((p * (1.0 - t), p * t), axis=-1).reshape(*theta.shape[:-1], 2 << i)
    return p / p.sum(axis=-1, keepdims=True)


def _wht(a: np.ndarray, b: np.ndarray):
    """Unnormalised Walsh-Hadamard transform of every column of ``a``.

    ``a`` is a C-ordered (2^q, m) block, one law per column, so each
    butterfly stage adds and subtracts contiguous runs of h * m values.
    Each stage writes into the other buffer of the same shape, so both are
    overwritten: returns (the buffer holding the result, the other).
    """
    size, m = a.shape
    for h in (1 << k for k in range(size.bit_length() - 1)):
        x, y = a.reshape(size // (2 * h), 2, h * m), b.reshape(size // (2 * h), 2, h * m)
        np.add(x[:, 0], x[:, 1], out=y[:, 0])
        np.subtract(x[:, 0], x[:, 1], out=y[:, 1])
        a, b = b, a
    return a, b


# a batch of laws: AdtDistribution objects, or one (n, 2, 2^q) float64 array
Laws = Union[Sequence[AdtDistribution], np.ndarray]


def _marginals(params: AdtParams, dists: Laws) -> np.ndarray:
    """The batch as one C-ordered (2, n, 2^q) block: every p1, then every p2.

    An array is checked as ``AdtDistribution`` checks each law: shape
    (n, 2, 2^q) for this q, every mass >= 0 and each marginal's sum within
    1e-12 of 1, so a NaN or infinite mass fails.
    """
    size = 1 << params.q
    if isinstance(dists, np.ndarray):
        if dists.ndim != 3 or dists.shape[1] != 2:
            raise ValueError(f"laws must be an (n, 2, 2^q) array, got shape {dists.shape}")
        if dists.shape[2] != size:
            raise ValueError(f"every distribution must have q = {params.q}")
        laws = np.asarray(dists, dtype=np.float64)
        if not (np.all(laws >= 0) and np.all(np.abs(laws.sum(axis=2) - 1.0) <= 1e-12)):
            raise ValueError("every marginal must be a probability vector (sum within 1e-12 of 1)")
        return np.ascontiguousarray(laws.transpose(1, 0, 2))
    n = len(dists)
    if any(len(d.p1) != size for d in dists):
        raise ValueError(f"every distribution must have q = {params.q}")
    masses = chain.from_iterable(chain([d.p1 for d in dists], [d.p2 for d in dists]))
    return np.fromiter(masses, np.float64, count=2 * n * size).reshape(2, n, size)


def _entropies(params: AdtParams, dists: Laws, conditional: bool = False):
    """(H(y), H(y | x1) or None): (2, n) rows each, receiver a then b.

    y is the XOR of the x1 image and the interference image: its law is
    their XOR-convolution, and given x1 it relabels the interference image.
    ``_marginals`` reads the batch, a list of distributions or an
    (n, 2, 2^q) array, into one (2, n, 2^q) block p: p[0] holds every p1
    and p[1] every p2.  The image of x at strength s, the law of
    x >> (q - s), fills the first 2^s rows of a zeroed column of a
    (2^q, 4n) block; the column blocks are signal a, signal b, interference
    a, interference b.  Laws lie along columns so that every butterfly
    stage runs over contiguous memory; each entropy is then taken over a
    C-ordered row copy, so its sum sees the masses in the same order
    whatever the layout.  H(y | x1) is measured only if ``conditional``,
    and before the butterflies, which overwrite the images.
    """
    p = _marginals(params, dists)
    n, size = p.shape[1], p.shape[2]
    images = np.zeros((size, 4 * n))
    for k, s in enumerate((params.m1, params.n1, params.m2, params.n2)):
        images[: 1 << s, k * n : (k + 1) * n] = p[k // 2].reshape(n, 1 << s, size >> s).sum(axis=2).T
    h_cond = None
    if conditional:
        h_cond = _entropy_rows(np.ascontiguousarray(images[:, 2 * n :].T)).reshape(2, n)
    spectra, spare = _wht(images, np.empty_like(images))
    laws, scratch = spare.reshape(2, size, 2 * n)  # two C-ordered (2^q, 2n) halves of spare
    laws = _wht(np.multiply(spectra[:, : 2 * n], spectra[:, 2 * n :], out=laws), scratch)[0]
    return _entropy_rows(np.divide(laws.T, size, out=np.empty((2 * n, size)))).reshape(2, n), h_cond


def _receiver(receiver: str) -> int:
    """Row of receiver 'a' or 'b' in the (2, n) entropy arrays."""
    if receiver not in ("a", "b"):
        raise ValueError(f"receiver must be 'a' or 'b', got {receiver!r}")
    return 0 if receiver == "a" else 1


def interference_image_entropy(params: AdtParams, dist: AdtDistribution, receiver: str) -> float:
    """H of the shifted interference seen at the receiver (H(y | x1))."""
    r = _receiver(receiver)
    return float(_entropies(params, [dist], conditional=True)[1][r, 0])


def mutual_information_x1(params: AdtParams, dist: AdtDistribution, receiver: str) -> float:
    """Exact I(x1; y) at receiver 'a' or 'b'."""
    r = _receiver(receiver)
    h_y, h_cond = _entropies(params, [dist], conditional=True)
    return float(h_y[r, 0] - h_cond[r, 0])


def output_entropy(params: AdtParams, dist: AdtDistribution, receiver: str) -> float:
    """Exact H(y) at receiver 'a' or 'b'."""
    r = _receiver(receiver)
    return float(_entropies(params, [dist])[0][r, 0])


@dataclass(frozen=True)
class AdtCheckReport:
    """Outcome of one inequality check over a batch of input distributions."""

    mode: str
    params: AdtParams
    n_dists: int
    min_slack: float
    worst_index: Optional[int]

    @property
    def passed(self) -> bool:
        return self.min_slack >= -DEFAULT_TOL


def require_q_cap(params: AdtParams) -> None:
    """Refuse parameters whose 2^q-point laws exceed the cap (checked before any law is built)."""
    if params.q > DEFAULT_Q_CAP:
        raise PreconditionError(
            f"q = {params.q} exceeds the cap {DEFAULT_Q_CAP} on the 2^q-point laws held per distribution"
        )


def _report(mode: str, params: AdtParams, slack: np.ndarray) -> AdtCheckReport:
    """Report the smallest slack and the first index attaining it."""
    if slack.size == 0:
        return AdtCheckReport(mode, params, 0, float("inf"), None)
    worst = int(np.argmin(slack))
    return AdtCheckReport(mode, params, slack.size, float(slack[worst]), worst)


def check_less_noisy(params: AdtParams, dists: Laws) -> AdtCheckReport:
    """Verify I(x1; yb) >= I(x1; ya) for every distribution.

    Slack per distribution is I(x1; yb) - I(x1; ya); requires the regime
    n1 - n2 >= m1.
    """
    if params.n1 - params.n2 < params.m1:
        raise PreconditionError("requires n1 - n2 >= m1")
    require_q_cap(params)
    (ha, hb), (ca, cb) = _entropies(params, dists, conditional=True)
    return _report("lessnoisy", params, (hb - cb) - (ha - ca))


def check_entropy_diff(params: AdtParams, dists: Laws) -> AdtCheckReport:
    """Verify H(ya) - H(yb) <= m2 - n2 bits for every distribution.

    Slack per distribution is (m2 - n2) - (H(ya) - H(yb)); requires the
    regime n1 - 2 n2 >= m1 - m2 and n2 <= m2.
    """
    if params.n1 - 2 * params.n2 < params.m1 - params.m2 or params.n2 > params.m2:
        raise PreconditionError("requires n1 - 2*n2 >= m1 - m2 and n2 <= m2")
    require_q_cap(params)
    (ha, hb), _ = _entropies(params, dists)
    return _report("entropydiff", params, (params.m2 - params.n2) - (ha - hb))


def random_product_laws(q: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Product-Bernoulli marginals with per-level probabilities ~ U(0,1).

    Returns a (count, 2, 2^q) float64 array, row i holding p1, p2 of law i.
    The levels come from one draw, p1 then p2 per distribution: the same
    stream, so the same laws, as drawing each distribution in turn.
    """
    return _product_laws(rng.uniform(size=(count, 2, q)))


def random_product_dists(q: int, count: int, rng: np.random.Generator) -> list[AdtDistribution]:
    """The laws of ``random_product_laws`` as a list of distributions."""
    return _as_dists(random_product_laws(q, count, rng))


def _as_dists(laws: np.ndarray) -> list[AdtDistribution]:
    """One distribution per (2, 2^q) block of marginals p1, p2."""
    return [AdtDistribution(tuple(p1), tuple(p2)) for p1, p2 in laws.tolist()]


def random_table_dists(q: int, count: int, rng: np.random.Generator) -> list[AdtDistribution]:
    """Arbitrary per-source tables drawn from a flat Dirichlet."""
    tables = rng.dirichlet(np.ones(1 << q), size=(count, 2))
    return _as_dists(tables / tables.sum(axis=-1, keepdims=True))


def regime_params(q_max: int, mode: str) -> list[AdtParams]:
    """All parameter tuples with q <= q_max satisfying the given regime."""
    out = []
    for m1 in range(q_max + 1):
        for m2 in range(m1 + 1):
            for n1 in range(q_max + 1):
                for n2 in range(n1 + 1):
                    if max(m1, m2, n1, n2) == 0:
                        continue
                    if mode == "lessnoisy" and n1 - n2 < m1:
                        continue
                    if mode == "entropydiff" and (n1 - 2 * n2 < m1 - m2 or n2 > m2):
                        continue
                    out.append(AdtParams(m1, m2, n1, n2))
    return out
