"""The iteration state every solver step updates in place.

Each update is written for H only. Since KL(V || WH) = KL(V.T || H.T W.T),
the update of W is the same code run on the transposed state and data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SolverState:
    """Factors plus the caches every sweep maintains.

    Every step leaves the product cache exact: the multiplicative and
    mirror halves recompute it, and a Newton sweep, which adjusts the
    product incrementally (at the nonzeros of sparse data, ``WH`` itself on
    dense data), ends with :meth:`resync`. So no drift outlives a sweep.
    """

    W: np.ndarray
    H: np.ndarray
    WH: np.ndarray
    col_sums_W: np.ndarray
    row_sums_H: np.ndarray

    #: Set on the W half made by :meth:`halves`: the shared update reads its
    #: data transposed and names entries as the caller's state does.
    transposed = False

    @classmethod
    def from_factors(cls, W, H) -> "SolverState":
        W = np.array(W, dtype=np.float64)
        H = np.array(H, dtype=np.float64)
        return cls(W=W, H=H, WH=W @ H,
                   col_sums_W=W.sum(axis=0), row_sums_H=H.sum(axis=1))

    @property
    def T(self) -> "SolverState":
        """The state of V.T ~ H.T W.T, made of views of this state's arrays.

        H.T plays W, W.T plays H, the product is WH.T and the sums swap, so
        an update that writes them in place updates this state.
        """
        return SolverState(self.H.T, self.W.T, self.WH.T, self.row_sums_H,
                           self.col_sums_W)

    def halves(self, h_first: bool = True) -> tuple["SolverState", "SolverState"]:
        """The states whose H the two halves of a sweep update, in order:
        this state and :attr:`T`, flagged as transposed."""
        w_half = self.T
        w_half.transposed = True
        return (self, w_half) if h_first else (w_half, self)

    def oriented(self, A: np.ndarray) -> np.ndarray:
        """A.T on a W half, else A: maps data-shaped arrays both ways."""
        return A.T if self.transposed else A

    def resync(self) -> None:
        np.matmul(self.W, self.H, out=self.WH)
        self.col_sums_W = self.W.sum(axis=0)
        self.row_sums_H = self.H.sum(axis=1)
