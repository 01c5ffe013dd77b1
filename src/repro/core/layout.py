"""Custom memory layouts of paper Table 1 (Sec. 4.1).

Five arrays flow through the pipeline; each has a layout chosen so that

1. every access in the hot loops is one aligned ``S``-wide vector
   load/store (channels are blocked into groups of ``S`` on the
   fastest-varying axis), and
2. each codelet/microkernel scatters into a small contiguous range
   (minimizing TLB misses).

Layout summary (3D notation; N-D generalizes by replacing ``d,h,w``):

=====================  =========================================================
Array                  Shape (as stored)
=====================  =========================================================
Input images           ``B x ceil(C/S) x D x H x W x S``
Transformed inputs     ``ceil(NB/n_blk) x (C/C_blk) x T x n_blk x C_blk``
Kernels                ``C x ceil(C'/S) x r_D x r_H x r_W x S``
Transformed kernels    ``(C/C_blk) x (C'/C'_blk) x T x C_blk x C'_blk``
Transformed outputs    ``ceil(NB/n_blk) x (C'/C'_blk) x T x n_blk x C'_blk``
Output images          ``B x ceil(C'/S) x D x H x W x S``
=====================  =========================================================

Every class provides ``pack``/``unpack`` (between the "plain"
``(B, C, *spatial)`` convention used by the numpy pipeline and the stored
layout) and ``locate`` (the Table-1 address-translation formula returning
the flat element offset) -- the latter is what the machine model uses to
derive access strides and scattering ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod

import numpy as np

from repro.core.blocking import BlockingConfig


def _flat_index(shape: tuple[int, ...], index: tuple[int, ...]) -> int:
    """Row-major flat offset with bounds checking."""
    if len(shape) != len(index):
        raise ValueError(f"index rank {len(index)} != shape rank {len(shape)}")
    off = 0
    for extent, i in zip(shape, index):
        if not 0 <= i < extent:
            raise IndexError(f"index {index} out of bounds for shape {shape}")
        off = off * extent + i
    return off


@dataclass(frozen=True)
class ImageLayout:
    """``I[b][c/S][d][h][w][c mod S]`` -- SIMD-blocked image storage.

    This is the N-D generalization of the nChw16c layout [29, 58]; the
    output of one layer is directly the input of the next (no reshuffling
    between layers, Sec. 4.1).
    """

    batch: int
    channels: int
    spatial: tuple[int, ...]
    simd_width: int = 16

    def __post_init__(self) -> None:
        if self.channels % self.simd_width != 0:
            raise ValueError(
                f"C={self.channels} must be divisible by S={self.simd_width} (Sec. 4.1)"
            )

    @property
    def stored_shape(self) -> tuple[int, ...]:
        return (
            (self.batch, self.channels // self.simd_width)
            + self.spatial
            + (self.simd_width,)
        )

    @property
    def size(self) -> int:
        return prod(self.stored_shape)

    def pack(self, images: np.ndarray) -> np.ndarray:
        """``(B, C, *spatial)`` -> stored layout."""
        expected = (self.batch, self.channels) + self.spatial
        if tuple(images.shape) != expected:
            raise ValueError(f"images shape {images.shape} != {expected}")
        s = self.simd_width
        blocked = images.reshape(
            (self.batch, self.channels // s, s) + self.spatial
        )
        # Move the intra-block channel axis to the end.
        return np.ascontiguousarray(np.moveaxis(blocked, 2, -1))

    def unpack(self, stored: np.ndarray) -> np.ndarray:
        """Stored layout -> ``(B, C, *spatial)``."""
        if tuple(stored.shape) != self.stored_shape:
            raise ValueError(f"stored shape {stored.shape} != {self.stored_shape}")
        unblocked = np.moveaxis(stored, -1, 2)
        return np.ascontiguousarray(
            unblocked.reshape((self.batch, self.channels) + self.spatial)
        )

    def locate(self, b: int, c: int, pos: tuple[int, ...]) -> int:
        """Table-1 address: ``I[b][c/S][*pos][c mod S]`` as a flat offset."""
        s = self.simd_width
        return _flat_index(self.stored_shape, (b, c // s) + tuple(pos) + (c % s,))


def pack_padded(
    images: np.ndarray,
    padding: tuple[int, ...],
    padded_input: tuple[int, ...],
    simd_width: int,
) -> np.ndarray:
    """Zero-padded images in the Table-1 input layout.

    ``(B, C, *spatial)`` images land at offset ``padding`` of an
    ``ImageLayout(B, C, padded_input, S)`` buffer, i.e.
    ``(B, C/S, *padded_input, S)``, zero everywhere else.
    """
    b, c, *spatial = images.shape
    out = np.zeros(
        ImageLayout(b, c, padded_input, simd_width).stored_shape, images.dtype
    )
    interior = (slice(None), slice(None)) + tuple(
        slice(p, p + n) for p, n in zip(padding, spatial)
    )
    blocked = images.reshape((b, c // simd_width, simd_width, *spatial))
    out[interior] = np.moveaxis(blocked, 2, -1)
    return out


@dataclass(frozen=True)
class KernelLayout:
    """``W[c][c'/S][*r][c' mod S]`` -- SIMD-blocked kernel storage."""

    c_in: int
    c_out: int
    kernel: tuple[int, ...]
    simd_width: int = 16

    def __post_init__(self) -> None:
        if self.c_out % self.simd_width != 0:
            raise ValueError(
                f"C'={self.c_out} must be divisible by S={self.simd_width}"
            )

    @property
    def stored_shape(self) -> tuple[int, ...]:
        return (
            (self.c_in, self.c_out // self.simd_width)
            + self.kernel
            + (self.simd_width,)
        )

    def pack(self, kernels: np.ndarray) -> np.ndarray:
        """``(C, C', *r)`` -> stored layout."""
        expected = (self.c_in, self.c_out) + self.kernel
        if tuple(kernels.shape) != expected:
            raise ValueError(f"kernels shape {kernels.shape} != {expected}")
        s = self.simd_width
        blocked = kernels.reshape((self.c_in, self.c_out // s, s) + self.kernel)
        return np.ascontiguousarray(np.moveaxis(blocked, 2, -1))

    def unpack(self, stored: np.ndarray) -> np.ndarray:
        if tuple(stored.shape) != self.stored_shape:
            raise ValueError(f"stored shape {stored.shape} != {self.stored_shape}")
        unblocked = np.moveaxis(stored, -1, 2)
        return np.ascontiguousarray(
            unblocked.reshape((self.c_in, self.c_out) + self.kernel)
        )

    def locate(self, c: int, cprime: int, offset: tuple[int, ...]) -> int:
        s = self.simd_width
        return _flat_index(
            self.stored_shape, (c, cprime // s) + tuple(offset) + (cprime % s,)
        )


@dataclass(frozen=True)
class TransformedImageLayout:
    """``I[n'/n_blk][c/C_blk][t][n' mod n_blk][c mod C_blk]``.

    Stores the ``T`` stage-2 operand matrices of size ``NB x C`` directly
    in the blocked order the GEMM microkernel consumes, so stage 2 reads
    U sub-matrices from consecutive memory.  ``n' = b*N + n`` is the
    global tile-row index (Table 1).
    """

    nb: int  # N*B rows
    channels: int
    t: int  # tile elements (number of matrices)
    blocking: BlockingConfig

    def __post_init__(self) -> None:
        if self.channels % self.blocking.c_blk != 0:
            raise ValueError(
                f"C={self.channels} must be divisible by C_blk={self.blocking.c_blk}"
            )

    @property
    def row_blocks(self) -> int:
        return ceil(self.nb / self.blocking.n_blk)

    @property
    def stored_shape(self) -> tuple[int, ...]:
        b = self.blocking
        return (
            self.row_blocks,
            self.channels // b.c_blk,
            self.t,
            b.n_blk,
            b.c_blk,
        )

    @property
    def padded_rows(self) -> int:
        """Rows including the zero padding of the last U sub-matrix."""
        return self.row_blocks * self.blocking.n_blk

    def scattering_range(self) -> int:
        """Elements written contiguously per transform task:
        ``T x n_blk x C_blk`` (Sec. 4.2.1, "scattering range of (2)")."""
        return self.t * self.blocking.n_blk * self.blocking.c_blk

    def pack(self, matrices: np.ndarray) -> np.ndarray:
        """``(T, NB, C)`` matrices -> stored layout (zero-padding rows)."""
        if tuple(matrices.shape) != (self.t, self.nb, self.channels):
            raise ValueError(
                f"matrices shape {matrices.shape} != {(self.t, self.nb, self.channels)}"
            )
        b = self.blocking
        padded = np.zeros((self.t, self.padded_rows, self.channels), matrices.dtype)
        padded[:, : self.nb, :] = matrices
        # (T, RB*n_blk, CB*C_blk) -> (RB, CB, T, n_blk, C_blk)
        shaped = padded.reshape(
            self.t, self.row_blocks, b.n_blk, self.channels // b.c_blk, b.c_blk
        )
        return np.ascontiguousarray(shaped.transpose(1, 3, 0, 2, 4))

    def unpack(self, stored: np.ndarray) -> np.ndarray:
        """Stored layout -> ``(T, NB, C)`` (padding rows dropped)."""
        if tuple(stored.shape) != self.stored_shape:
            raise ValueError(f"stored shape {stored.shape} != {self.stored_shape}")
        shaped = stored.transpose(2, 0, 3, 1, 4)
        flat = shaped.reshape(self.t, self.padded_rows, self.channels)
        return np.ascontiguousarray(flat[:, : self.nb, :])

    def locate(self, n_prime: int, c: int, t: int) -> int:
        b = self.blocking
        return _flat_index(
            self.stored_shape,
            (n_prime // b.n_blk, c // b.c_blk, t, n_prime % b.n_blk, c % b.c_blk),
        )


@dataclass(frozen=True)
class TransformedKernelLayout:
    """``W[c/C_blk][c'/C'_blk][t][c mod C_blk][c' mod C'_blk]``.

    The ``T`` stationary ``C x C'`` matrices, blocked so each V sub-matrix
    is contiguous (it is loaded once and kept in L2, Sec. 4.3).
    """

    channels: int
    c_out: int
    t: int
    blocking: BlockingConfig

    def __post_init__(self) -> None:
        b = self.blocking
        if self.channels % b.c_blk != 0:
            raise ValueError(f"C={self.channels} not divisible by C_blk={b.c_blk}")
        if self.c_out % b.cprime_blk != 0:
            raise ValueError(f"C'={self.c_out} not divisible by C'_blk={b.cprime_blk}")

    @property
    def stored_shape(self) -> tuple[int, ...]:
        b = self.blocking
        return (
            self.channels // b.c_blk,
            self.c_out // b.cprime_blk,
            self.t,
            b.c_blk,
            b.cprime_blk,
        )

    def scattering_range(self) -> int:
        """``T x C_blk x C'_blk`` (Sec. 4.2.1, "scattering range of (4)")."""
        b = self.blocking
        return self.t * b.c_blk * b.cprime_blk

    def pack(self, matrices: np.ndarray) -> np.ndarray:
        """``(T, C, C')`` -> stored layout."""
        if tuple(matrices.shape) != (self.t, self.channels, self.c_out):
            raise ValueError(
                f"matrices shape {matrices.shape} != {(self.t, self.channels, self.c_out)}"
            )
        b = self.blocking
        shaped = matrices.reshape(
            self.t,
            self.channels // b.c_blk,
            b.c_blk,
            self.c_out // b.cprime_blk,
            b.cprime_blk,
        )
        return np.ascontiguousarray(shaped.transpose(1, 3, 0, 2, 4))

    def unpack(self, stored: np.ndarray) -> np.ndarray:
        if tuple(stored.shape) != self.stored_shape:
            raise ValueError(f"stored shape {stored.shape} != {self.stored_shape}")
        shaped = stored.transpose(2, 0, 3, 1, 4)
        return np.ascontiguousarray(
            shaped.reshape(self.t, self.channels, self.c_out)
        )

    def locate(self, c: int, cprime: int, t: int) -> int:
        b = self.blocking
        return _flat_index(
            self.stored_shape,
            (c // b.c_blk, cprime // b.cprime_blk, t, c % b.c_blk, cprime % b.cprime_blk),
        )


def transformed_output_layout(
    nb: int, c_out: int, t: int, blocking: BlockingConfig
) -> TransformedImageLayout:
    """The ``I'_tmp`` layout of Table 1 -- identical in structure to the
    transformed-input layout with ``C'``/``C'_blk`` in place of
    ``C``/``C_blk``."""
    out_blocking = BlockingConfig(
        n_blk=blocking.n_blk,
        c_blk=blocking.cprime_blk,
        cprime_blk=blocking.c_blk,
        simd_width=blocking.simd_width,
    )
    return TransformedImageLayout(nb=nb, channels=c_out, t=t, blocking=out_blocking)
