"""Seeded synthetic instances: sparse low-rank products, uniform full-rank
matrices, Poisson noising, and scaled random initialization.

Every generator is a pure function of its spec and seed: draws come from a
counter-based bit generator keyed on (seed, stream role) and are consumed in
a fixed row-major order, so two calls agree bitwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DegenerateInputError
from .matrices import Factorization, NonnegMatrix

KINDS = ("low-rank", "full-rank")
NOISES = ("none", "poisson")

# Stream tags keep the factor, data, noise and init draws independent.
_STREAM_W, _STREAM_H, _STREAM_FULL, _STREAM_NOISE, _STREAM_INIT = range(5)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), stream))))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic data matrix."""

    kind: str
    m: int
    n: int
    r_true: int = 1
    density: float = 1.0
    noise: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}, got {self.noise!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if not 0 < self.density <= 1:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if self.kind == "low-rank" and not 1 <= self.r_true <= min(self.m, self.n):
            raise ValueError(
                f"r_true must be in [1, {min(self.m, self.n)}], got {self.r_true}"
            )

    @property
    def class_label(self) -> str:
        if self.kind == "full-rank":
            return "full-rank"
        return f"low-rank-l{self.density:g}-{self.noise}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        return cls(**d)


def _sprand(m: int, n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Exactly ceil(density*m*n) uniform(0,1) values at positions drawn
    without replacement; the rest are exact zeros."""
    count = math.ceil(density * m * n)
    out = np.zeros(m * n)
    positions = rng.choice(m * n, size=count, replace=False)
    out[positions] = rng.random(count)
    return out.reshape(m, n)


def gen_low_rank(spec: SyntheticSpec) -> tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]:
    """Ground-truth factors and their exact product (noiseless data).

    The product has rank at most r_true and zero KL divergence from the
    returned factor pair.
    """
    if spec.kind != "low-rank":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'low-rank'")
    W = _sprand(spec.m, spec.r_true, spec.density, _rng(spec.seed, _STREAM_W))
    H = _sprand(spec.r_true, spec.n, spec.density, _rng(spec.seed, _STREAM_H))
    return NonnegMatrix(W), NonnegMatrix(H), NonnegMatrix(W @ H)


def gen_full_rank(spec: SyntheticSpec) -> NonnegMatrix:
    """I.i.d. uniform(0,1) data matrix."""
    if spec.kind != "full-rank":
        raise ValueError(f"spec kind is {spec.kind!r}, expected 'full-rank'")
    rng = _rng(spec.seed, _STREAM_FULL)
    return NonnegMatrix(rng.random((spec.m, spec.n)))


def poissonize(V, seed: int) -> NonnegMatrix:
    """Replace each entry by a Poisson draw with that entry as its mean.

    Zeros stay zero with probability 1; the output is integer-valued.
    """
    arr = np.asarray(V, dtype=np.float64)
    rng = _rng(seed, _STREAM_NOISE)
    return NonnegMatrix(rng.poisson(arr).astype(np.float64))


def generate(spec: SyntheticSpec) -> NonnegMatrix:
    """The data matrix a spec describes, noise included."""
    if spec.kind == "full-rank":
        return gen_full_rank(spec)
    _, _, V = gen_low_rank(spec)
    if spec.noise == "poisson":
        V = poissonize(V, spec.seed)
    return V


def init_random_scaled(m: int, n: int, r: int, V, seed: int) -> Factorization:
    """Uniform(0,1) factors rescaled so the product's sum matches the data's.

    Both factors are multiplied by the square root of sum(V)/sum(WH), which
    makes the pair scaled by construction.
    """
    arr = np.asarray(V, dtype=np.float64)
    total_v = float(arr.sum())
    if total_v <= 0:
        raise DegenerateInputError("data matrix sums to zero; cannot scale an init")
    rng = _rng(seed, _STREAM_INIT)
    W = rng.random((m, r))
    H = rng.random((r, n))
    total_wh = float(W.sum(axis=0) @ H.sum(axis=1))
    if total_wh <= 0:  # pragma: no cover - probability zero
        raise DegenerateInputError("drew an initialization that sums to zero")
    root = math.sqrt(total_v / total_wh)
    return Factorization(NonnegMatrix(W * root), NonnegMatrix(H * root))
