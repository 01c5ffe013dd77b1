"""C source generation for the compiled Winograd backend (Sec. 4.2).

The Python executors interpret one numpy call per vector op, so the
paper's minimal-op codelets buy nothing: interpreter and allocator
overheads dominate.  This module lowers the whole hot path to C once per
plan -- the reproduction's analog of the paper's templated C++
instantiation at compile time:

* the per-dimension transform :class:`~repro.core.codelets.Codelet` op
  lists (sparsity-elided, even/odd-paired -- the paper's Fig. 2 output)
  are replayed symbolically into straight-line C statements, composed
  across dimensions exactly like the mode-n product evaluation the
  Python paths use (dimension 0 first);
* transform arithmetic is emitted on GNU vector-extension types, ``S``
  channels wide (``S`` a power of two) -- the paper's "vectorize across
  the C/C' channel dimension" strategy (Sec. 4.2), which the
  channel-blocked ``padded`` and channel-last ``u``/``x`` layouts make
  unit-stride;
* the blocked stage-2 GEMM loop nest (Fig. 3/4) is emitted with the
  plan's geometry and blocking baked in as literals around a
  multi-row register-tiled microkernel;
* every stage function takes ``[start, stop)`` range arguments matching
  the :class:`~repro.core.scheduling.GridSlice` grids, so the very same
  entry points serve the sequential executor (full ranges) and the
  thread executor (one slice per worker).

Numerics: coefficients are emitted as hex float literals, pre-rounded to
float32 for single-precision plans (mirroring NEP-50 scalar conversion
in the numpy codelets).  The build allows FMA contraction
(``-ffp-contract=fast``), so compiled results can differ from the
Python paths in the last bits -- they remain within differential-test
tolerance of the direct-convolution oracle, and are deterministic
across runs and bit-identical across compiled executors (sequential
and thread) by construction: every executor runs this same
translation unit, and the per-output arithmetic order is fixed by the
emitted source, not by the schedule.

Buffer layouts match the parallel executor exactly:
``padded (B, C/S, *padded_input, S)`` (the Table-1 image layout),
``u (T, NB, C)``, ``v (T, C, C')``, ``x (T, NB, C')``,
``out_tiles (B, C', *counts, *m)``.
Stage 3 is emitted twice: ``wino_stage3`` scatters into ``out_tiles``
(the parallel executor's layout), ``wino_stage3_direct`` writes the
final cropped ``out (B, C', *output)`` tensor so the sequential path
skips ``assemble_output`` entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.codelets import Codelet, generate_codelet
from repro.core.convolution import WinogradPlan

#: Rows per stage-2 register tile.  10 accumulator vectors plus the
#: shared ``vr`` line fit the 32-register AVX-512 file with room to
#: spare, and 10 divides the default ``n_blk=30`` so most row blocks
#: take the wide path.  The remainder rows use a single-row *vector*
#: kernel -- a scalar tail is latency-bound and would dominate.
_S2_ROWS = 10


def float_literal(value: float, dtype: np.dtype) -> str:
    """Exact C literal for a codelet coefficient.

    Hex float notation round-trips the binary value exactly.  For
    float32 plans the coefficient is rounded to float32 *first* (numpy
    converts the Python-float scalar to the array dtype before the
    multiply), then emitted with an ``f`` suffix so C performs the same
    single-precision arithmetic.
    """
    if np.dtype(dtype) == np.float32:
        lit = f"{float(np.float32(value)).hex()}f"
    else:
        lit = float(value).hex()
    return f"({lit})" if lit.startswith("-") else lit


class _Emitter:
    """Accumulates C statements and vends fresh SSA temp names.

    ``rtype`` is the C type codelet values are computed in: the scalar
    ``real_t``, or a GNU vector type (``vchan``) to carry ``S``
    channels per value.  Vector/scalar mixed arithmetic broadcasts the
    scalar, so the same replayed op list serves both.
    """

    def __init__(self, dtype: np.dtype, rtype: str = "real_t"):
        self.dtype = np.dtype(dtype)
        self.rtype = rtype
        self.lines: list[str] = []
        self._n = 0

    @property
    def zero(self) -> str:
        if self.rtype == "real_t":
            return "(real_t)0"
        return f"(({self.rtype}){{0}})"

    def fresh(self) -> str:
        self._n += 1
        return f"t{self._n}"

    def stmt(self, indent: str, text: str) -> None:
        self.lines.append(indent + text)


def replay_codelet(
    codelet: Codelet, inputs: list[str], em: _Emitter, indent: str
) -> list[str]:
    """Replay a codelet's abstract op list as C statements.

    ``inputs`` holds one C expression (a variable name) per matrix
    column.  Returns one output expression per matrix row.  An SSA name
    that is referenced but never defined denotes an all-zero row (the
    Python source's ``zeros`` placeholder) and resolves to a zero
    literal.
    """
    env: dict[str, str] = {}
    outs: list[str | None] = [None] * codelet.rows

    def val(name: str) -> str:
        return env.get(name, em.zero)

    for op in codelet.ops:
        if op.kind == "load":
            env[op.dst] = inputs[int(op.dst[1:])]
        elif op.kind == "alias":
            env[op.dst] = val(op.args[0])
        elif op.kind == "store":
            outs[int(op.dst[3:])] = val(op.args[0])
        else:
            if op.kind == "neg":
                expr = f"-{val(op.args[0])}"
            elif op.kind == "add":
                expr = f"{val(op.args[0])} + {val(op.args[1])}"
            elif op.kind == "sub":
                expr = f"{val(op.args[0])} - {val(op.args[1])}"
            elif op.kind == "mul":
                expr = f"{float_literal(op.coeff, em.dtype)} * {val(op.args[0])}"
            elif op.kind == "fma":
                expr = (
                    f"{val(op.args[0])} + "
                    f"{float_literal(op.coeff, em.dtype)} * {val(op.args[1])}"
                )
            else:  # pragma: no cover - codelet op kinds are closed
                raise ValueError(f"unknown codelet op kind {op.kind!r}")
            name = em.fresh()
            em.stmt(indent, f"const {em.rtype} {name} = {expr};")
            env[op.dst] = name
    assert all(o is not None for o in outs)
    return outs  # type: ignore[return-value]


def emit_separable_transform(
    codelets: list[Codelet],
    in_shape: tuple[int, ...],
    inputs: dict[tuple[int, ...], str],
    em: _Emitter,
    indent: str,
) -> dict[tuple[int, ...], str]:
    """Compose per-dimension codelets into one straight-line N-D transform.

    Applies ``codelets[d]`` along axis ``d`` of the symbolic value grid,
    dimension 0 first -- the same evaluation order as
    :func:`repro.core.transforms.transform_tensor`, so the arithmetic
    matches the numpy codelet path up to FMA contraction.
    """
    cur = inputs
    shape = list(in_shape)
    for d, cod in enumerate(codelets):
        if cod.cols != shape[d]:
            raise ValueError(
                f"codelet for dim {d} expects {cod.cols} inputs, grid has {shape[d]}"
            )
        nxt: dict[tuple[int, ...], str] = {}
        outer = [range(n) for n in shape]
        outer[d] = [None]  # type: ignore[list-item]
        for fixed in product(*outer):
            fiber = [
                cur[tuple(j if i == d else f for i, f in enumerate(fixed))]
                for j in range(shape[d])
            ]
            outs = replay_codelet(cod, fiber, em, indent)
            for i, expr in enumerate(outs):
                nxt[tuple(i if k == d else f for k, f in enumerate(fixed))] = expr
        cur = nxt
        shape[d] = cod.rows
    return cur


# ----------------------------------------------------------------------
# Plan geometry -- every constant the emitted C bakes in
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanGeometry:
    """Integer constants shared by the four stage functions."""

    ndim: int
    batch: int
    c_in: int
    c_out: int
    t: int            # T  = prod(tile_shape): independent GEMMs
    n: int            # N  = tiles per image
    nb: int           # NB = B*N GEMM rows
    counts: tuple[int, ...]
    m: tuple[int, ...]
    tile_shape: tuple[int, ...]
    r: tuple[int, ...]
    pin: tuple[int, ...]          # padded input spatial extent
    out: tuple[int, ...]          # cropped output spatial extent
    simd: int
    n_blk: int
    cprime_blk: int

    @classmethod
    def from_plan(
        cls, plan: WinogradPlan, blocking: BlockingConfig, simd_width: int
    ) -> "PlanGeometry":
        if simd_width < 1 or simd_width & (simd_width - 1):
            raise ValueError(
                f"S={simd_width} is not a power of two: stages 1 and 3 "
                "run on S-wide GNU vector types"
            )
        if plan.c_in % simd_width or plan.c_out % simd_width:
            raise ValueError(
                f"channels ({plan.c_in}, {plan.c_out}) must be divisible "
                f"by S={simd_width}"
            )
        if plan.c_out % blocking.cprime_blk:
            raise ValueError(
                f"C'={plan.c_out} not divisible by C'_blk={blocking.cprime_blk}"
            )
        return cls(
            ndim=plan.spec.ndim,
            batch=plan.batch,
            c_in=plan.c_in,
            c_out=plan.c_out,
            t=plan.t_matrices,
            n=plan.tiles_per_image,
            nb=plan.gemm_rows,
            counts=plan.grid.counts,
            m=plan.spec.m,
            tile_shape=plan.spec.tile_shape,
            r=plan.spec.r,
            pin=plan.grid.padded_input_shape,
            out=plan.grid.output_shape,
            simd=simd_width,
            n_blk=blocking.n_blk,
            cprime_blk=blocking.cprime_blk,
        )

    # -- derived strides (elements) ------------------------------------
    @property
    def pin_strides(self) -> tuple[int, ...]:
        return tuple(prod(self.pin[d + 1:]) for d in range(self.ndim))

    @property
    def count_strides(self) -> tuple[int, ...]:
        return tuple(prod(self.counts[d + 1:]) for d in range(self.ndim))

    @property
    def out_strides(self) -> tuple[int, ...]:
        return tuple(prod(self.out[d + 1:]) for d in range(self.ndim))

    @property
    def image_elems(self) -> int:  # spatial elements of one padded channel
        return prod(self.pin)

    @property
    def out_elems(self) -> int:  # one (b, c') spatial slab of `out`
        return prod(self.out)

    @property
    def m_prod(self) -> int:
        return prod(self.m)

    @property
    def r_prod(self) -> int:
        return prod(self.r)

    @property
    def cp_blocks(self) -> int:  # stage-3 grid: C'/S lanes
        return self.c_out // self.simd


def _ll(v: int) -> str:
    return f"{v}LL"


def _multi_indices(shape: tuple[int, ...]):
    return product(*(range(n) for n in shape))


def _flat(idx: tuple[int, ...], strides: tuple[int, ...]) -> int:
    return sum(i * s for i, s in zip(idx, strides))


def _row_major_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(prod(shape[d + 1:]) for d in range(len(shape)))


# ----------------------------------------------------------------------
# Stage 1 -- input transform
# ----------------------------------------------------------------------
def _emit_stage1_vec(g: PlanGeometry, b_cods: list[Codelet], dtype) -> str:
    """Input transform, vectorized across the channel dimension.

    ``padded`` is stored in the Table-1 image layout ``(B, C/S,
    *padded_input, S)``, so each element of a tile is one unit-stride
    ``S``-wide vector load.  The whole N-D transform runs on those
    vectors, and each of the ``T`` planes of ``u`` receives one
    contiguous vector store.  Loop nest: batch x channel-block x tile
    grid, walked sequentially, so loads and stores are streams the
    hardware prefetcher tracks.
    """
    em = _Emitter(dtype, rtype="vchan")
    nd, s = g.ndim, g.simd
    args = ["const real_t* restrict padded", "real_t* restrict u",
            "int64_t b0", "int64_t b1", "int64_t cb0", "int64_t cb1"]
    for d in range(nd):
        args += [f"int64_t i{d}_lo", f"int64_t i{d}_hi"]
    em.lines.append(f"void wino_stage1({', '.join(args)}) {{")
    ind = "  "
    em.stmt(ind, "for (int64_t b = b0; b < b1; ++b) {")
    ind += "  "
    em.stmt(ind, "for (int64_t cb = cb0; cb < cb1; ++cb) {")
    ind += "  "
    for d in range(nd):
        em.stmt(ind, f"for (int64_t i{d} = i{d}_lo; i{d} < i{d}_hi; ++i{d}) {{")
        ind += "  "
    flat_tile = " + ".join(
        f"i{d} * {_ll(g.count_strides[d])}" if g.count_strides[d] != 1 else f"i{d}"
        for d in range(nd)
    )
    em.stmt(ind, f"const int64_t row = b * {_ll(g.n)} + ({flat_tile});")
    base = " + ".join(
        [f"b * {_ll(g.c_in * g.image_elems)}", f"cb * {_ll(s * g.image_elems)}"]
        + [f"i{d} * {_ll(g.m[d] * g.pin_strides[d] * s)}" for d in range(nd)]
    )
    em.stmt(ind, f"const real_t* restrict tb = padded + {base};")
    names: dict[tuple[int, ...], str] = {}
    for flat, idx in enumerate(_multi_indices(g.tile_shape)):
        nm = f"a{flat}"
        em.stmt(ind, f"const vchan {nm} = "
                     f"*(const vchan*)(tb + {_ll(_flat(idx, g.pin_strides) * s)});")
        names[idx] = nm
    outs = emit_separable_transform(b_cods, g.tile_shape, names, em, ind)
    em.stmt(ind, f"real_t* restrict qrow = u + row * {_ll(g.c_in)} + cb * {_ll(s)};")
    for flat, idx in enumerate(_multi_indices(g.tile_shape)):
        em.stmt(ind, f"*(vchan*)(qrow + {_ll(flat * g.nb * g.c_in)}) = {outs[idx]};")
    for _ in range(nd + 3):
        ind = ind[:-2]
        em.stmt(ind, "}")
    return "\n".join(em.lines)


# ----------------------------------------------------------------------
# Stage 1b -- kernel transform
# ----------------------------------------------------------------------
def _emit_stage1b(g: PlanGeometry, g_cods: list[Codelet], dtype) -> str:
    em = _Emitter(dtype)
    em.lines.append(
        "void wino_stage1b(const real_t* restrict kernels, "
        "real_t* restrict v, int64_t c0, int64_t c1, "
        "int64_t p0, int64_t p1) {"
    )
    ind = "  "
    em.stmt(ind, "for (int64_t c = c0; c < c1; ++c) {")
    ind += "  "
    em.stmt(ind, f"for (int64_t q = p0 * {_ll(g.simd)}; "
                 f"q < p1 * {_ll(g.simd)}; ++q) {{")
    ind += "  "
    em.stmt(ind, f"const real_t* restrict kp = kernels + "
                 f"(c * {_ll(g.c_out)} + q) * {_ll(g.r_prod)};")
    r_strides = _row_major_strides(g.r)
    names: dict[tuple[int, ...], str] = {}
    for flat, idx in enumerate(_multi_indices(g.r)):
        nm = f"a{flat}"
        em.stmt(ind, f"const real_t {nm} = kp[{_ll(_flat(idx, r_strides))}];")
        names[idx] = nm
    outs = emit_separable_transform(g_cods, g.r, names, em, ind)
    em.stmt(ind, f"real_t* restrict vp = v + c * {_ll(g.c_out)} + q;")
    vt = g.c_in * g.c_out
    for flat, idx in enumerate(_multi_indices(g.tile_shape)):
        em.stmt(ind, f"vp[{_ll(flat * vt)}] = {outs[idx]};")
    for _ in range(2):
        ind = ind[:-2]
        em.stmt(ind, "}")
    em.lines.append("}")
    return "\n".join(em.lines)


# ----------------------------------------------------------------------
# Stage 2 -- blocked batched GEMM
# ----------------------------------------------------------------------
def _stage2_jt(g: PlanGeometry, dtype) -> int:
    """Width of the stage-2 register tile over output columns.

    One cache line of values (16 floats / 8 doubles) when it divides
    ``C'_blk``, else the largest divisor below that -- acc tiles must
    divide the block exactly so the jt loop has a constant trip count.
    """
    target = 16 if np.dtype(dtype) == np.float32 else 8
    jt = min(g.cprime_blk, target)
    while g.cprime_blk % jt:
        jt -= 1
    return jt


def _stage2_vw(jt: int) -> int:
    """Vector lane count for stage 2: largest power-of-two divisor of
    the register-tile width (GNU ``vector_size`` must be a power of
    two).  1 means no legal vector type -- use the scalar kernel."""
    vw = 1
    while vw * 2 <= jt and jt % (vw * 2) == 0:
        vw *= 2
    return vw


def _stage2_scaffold(body: str, g: PlanGeometry, jt: int) -> str:
    c, cp, nb = g.c_in, g.c_out, g.nb
    nblk, cpblk = g.n_blk, g.cprime_blk
    return f"""void wino_stage2(const real_t* restrict u, const real_t* restrict v,
                 real_t* restrict x, int64_t t0, int64_t t1,
                 int64_t j0, int64_t j1, int64_t i0, int64_t i1) {{
  for (int64_t t = t0; t < t1; ++t) {{
    const real_t* restrict ut = u + t * {_ll(nb * c)};
    const real_t* restrict vt = v + t * {_ll(c * cp)};
    real_t* restrict xt = x + t * {_ll(nb * cp)};
    for (int64_t j = j0; j < j1; ++j) {{
      for (int64_t i = i0; i < i1; ++i) {{
        const int64_t rlo = i * {_ll(nblk)};
        int64_t rhi = rlo + {_ll(nblk)};
        if (rhi > {_ll(nb)}) rhi = {_ll(nb)};
        for (int64_t jt = 0; jt < {_ll(cpblk)}; jt += {_ll(jt)}) {{
          const real_t* restrict vjt = vt + j * {_ll(cpblk)} + jt;
          real_t* restrict xjt = xt + j * {_ll(cpblk)} + jt;
          int64_t rr = rlo;
{body}
        }}
      }}
    }}
  }}
}}"""


def _emit_stage2_vec(g: PlanGeometry, dtype) -> str:
    """Register-tiled GEMM microkernel on GNU vector types.

    ``_S2_ROWS`` rows x ``jt`` columns of C are held in explicit vector
    accumulators; each k step loads one ``vr`` line of V (shared by all
    rows) and broadcasts one U scalar per row.  Independent
    accumulators keep the FMA chains parallel instead of
    latency-bound, and the leftover rows run a single-row variant of
    the same vector kernel -- a scalar tail would be an order of
    magnitude slower per row and dominate whenever ``_S2_ROWS`` does
    not divide the row block.
    """
    c, cp = g.c_in, g.c_out
    jt = _stage2_jt(g, dtype)
    vw = _stage2_vw(jt)
    nv = jt // vw
    rows = _S2_ROWS
    lines = [f"          for (; rr + {rows} <= rhi; rr += {rows}) {{"]
    for q in range(rows):
        lines.append(f"            const real_t* restrict ur{q} = "
                     f"ut + (rr + {q}) * {_ll(c)};")
    lines.append("            " + " ".join(
        f"vacc a{q}_{mv} = {{(real_t)0}};"
        for q in range(rows) for mv in range(nv)))
    lines.append(f"            for (int64_t k = 0; k < {_ll(c)}; ++k) {{")
    lines.append(f"              const real_t* restrict vr = vjt + k * {_ll(cp)};")
    for mv in range(nv):
        lines.append(f"              const vacc vv{mv} = "
                     f"*(const vacc*)(vr + {mv * vw});")
    for q in range(rows):
        lines.append(f"              {{ const real_t s = ur{q}[k]; " + " ".join(
            f"a{q}_{mv} += s * vv{mv};" for mv in range(nv)) + " }")
    lines.append("            }")
    lines.append(f"            real_t* restrict xr = xjt + rr * {_ll(cp)};")
    for q in range(rows):
        for mv in range(nv):
            lines.append(f"            *(vacc*)(xr + {_ll(q * cp + mv * vw)}) "
                         f"= a{q}_{mv};")
    lines.append("          }")
    # vector tail: one row at a time, same accumulator layout
    lines.append("          for (; rr < rhi; ++rr) {")
    lines.append(f"            const real_t* restrict ur = ut + rr * {_ll(c)};")
    lines.append("            " + " ".join(
        f"vacc b{mv} = {{(real_t)0}};" for mv in range(nv)))
    lines.append(f"            for (int64_t k = 0; k < {_ll(c)}; ++k) {{")
    lines.append(f"              const real_t* restrict vr = vjt + k * {_ll(cp)};")
    lines.append("              const real_t s = ur[k]; " + " ".join(
        f"b{mv} += s * *(const vacc*)(vr + {mv * vw});" for mv in range(nv)))
    lines.append("            }")
    lines.append(f"            real_t* restrict xr = xjt + rr * {_ll(cp)};")
    for mv in range(nv):
        lines.append(f"            *(vacc*)(xr + {_ll(mv * vw)}) = b{mv};")
    lines.append("          }")
    return _stage2_scaffold("\n".join(lines), g, jt)


def _emit_stage2_scalar(g: PlanGeometry, dtype) -> str:
    """Scalar fallback (no power-of-two register tile): four explicit
    row accumulators keep the k chains parallel, which is as much
    instruction-level parallelism as scalar code reliably gets."""
    c, cp = g.c_in, g.c_out
    jt = _stage2_jt(g, dtype)
    quad = "\n".join(
        [f"          for (; rr + 4 <= rhi; rr += 4) {{"]
        + [f"          const real_t* restrict ur{q} = ut + (rr + {q}) * {_ll(c)};"
           for q in range(4)]
        + [f"          real_t a0[{jt}], a1[{jt}], a2[{jt}], a3[{jt}];",
           f"          for (int jj = 0; jj < {jt}; ++jj) "
           "{ a0[jj] = a1[jj] = a2[jj] = a3[jj] = (real_t)0; }",
           f"          for (int64_t k = 0; k < {_ll(c)}; ++k) {{",
           f"            const real_t* restrict vr = vjt + k * {_ll(cp)};",
           "            const real_t s0 = ur0[k], s1 = ur1[k], "
           "s2 = ur2[k], s3 = ur3[k];",
           f"            for (int jj = 0; jj < {jt}; ++jj) {{",
           "              a0[jj] += s0 * vr[jj]; a1[jj] += s1 * vr[jj];",
           "              a2[jj] += s2 * vr[jj]; a3[jj] += s3 * vr[jj];",
           "            }",
           "          }",
           f"          real_t* restrict xr = xjt + rr * {_ll(cp)};"]
        + [f"          for (int jj = 0; jj < {jt}; ++jj) "
           f"xr[{_ll(q * cp)} + jj] = a{q}[jj];"
           for q in range(4)]
        + ["          }",
           "          for (; rr < rhi; ++rr) {",
           f"            const real_t* restrict ur = ut + rr * {_ll(c)};",
           f"            real_t acc[{jt}];",
           f"            for (int jj = 0; jj < {jt}; ++jj) acc[jj] = (real_t)0;",
           f"            for (int64_t k = 0; k < {_ll(c)}; ++k) {{",
           "              const real_t us = ur[k];",
           f"              const real_t* restrict vr = vjt + k * {_ll(cp)};",
           f"              for (int jj = 0; jj < {jt}; ++jj) acc[jj] += us * vr[jj];",
           "            }",
           f"            real_t* restrict xr = xjt + rr * {_ll(cp)};",
           f"            for (int jj = 0; jj < {jt}; ++jj) xr[jj] = acc[jj];",
           "          }"]
    )
    return _stage2_scaffold(quad, g, jt)


# ----------------------------------------------------------------------
# Stage 3 -- inverse transform
# ----------------------------------------------------------------------
def _stage3_decode(em: _Emitter, g: PlanGeometry, ind: str) -> None:
    ncpb = g.n * g.cp_blocks
    em.stmt(ind, f"const int64_t b = f / {_ll(ncpb)};")
    em.stmt(ind, f"const int64_t rem = f - b * {_ll(ncpb)};")
    em.stmt(ind, f"const int64_t tile = rem / {_ll(g.cp_blocks)};")
    em.stmt(ind, f"const int64_t qb = rem - tile * {_ll(g.cp_blocks)};")
    em.stmt(ind, f"const int64_t row = b * {_ll(g.n)} + tile;")


def _stage3_direct_base(em: _Emitter, g: PlanGeometry, ind: str) -> None:
    """Per-tile output base pointer for the direct (final-layout) store.

    Unflattens the tile index, folds the per-dimension output offsets
    into ``ob`` (lane 0 of the channel block), and defines one
    ``last{d}`` flag per *cropped* dimension -- the edge tiles whose
    trailing elements fall outside the output extent.
    """
    cs = g.count_strides
    if g.ndim == 1:
        em.stmt(ind, "const int64_t td0 = tile;")
    else:
        em.stmt(ind, "int64_t trem = tile;")
        for d in range(g.ndim - 1):
            em.stmt(ind, f"const int64_t td{d} = trem / {_ll(cs[d])};")
            em.stmt(ind, f"trem -= td{d} * {_ll(cs[d])};")
        em.stmt(ind, f"const int64_t td{g.ndim - 1} = trem;")
    os_ = g.out_strides
    base = " + ".join(
        [f"(b * {_ll(g.c_out)} + qb * {_ll(g.simd)}) * {_ll(g.out_elems)}"]
        + [f"td{d} * {_ll(g.m[d] * os_[d])}" for d in range(g.ndim)]
    )
    em.stmt(ind, f"real_t* restrict ob = out + {base};")
    for d in range(g.ndim):
        if g.counts[d] * g.m[d] > g.out[d]:
            em.stmt(ind, f"const int last{d} = (td{d} == {_ll(g.counts[d] - 1)});")


def _stage3_store_guard(g: PlanGeometry, idx: tuple[int, ...]) -> str:
    """Guard expression for one output element of the direct store: the
    element exists unless it is in the cropped trailing part of an edge
    tile.  Constant-folded per element -- interior elements (the vast
    majority) store unconditionally."""
    conds = []
    for d in range(g.ndim):
        if g.counts[d] * g.m[d] <= g.out[d]:
            continue  # dimension not cropped at all
        edge_rem = g.out[d] - (g.counts[d] - 1) * g.m[d]
        if idx[d] >= edge_rem:
            conds.append(f"!last{d}")
    return " && ".join(conds)


def _emit_stage3_vec(
    g: PlanGeometry, a_cods: list[Codelet], dtype, direct: bool
) -> str:
    """Inverse transform, vectorized across the output-channel lanes.

    The ``T`` planes of ``x`` hold the channel block contiguously, so
    the inputs are plain vector loads; the transform runs ``S`` wide;
    the ``m``-tile of output vectors is parked in a local buffer and
    scattered per channel with contiguous scalar stores.  ``direct``
    selects the final-tensor layout (``wino_stage3_direct``, with
    constant-folded crop guards) over the ``out_tiles`` arena layout
    (``wino_stage3``) -- same arithmetic, so the two variants are
    bit-identical where both store.
    """
    em = _Emitter(dtype, rtype="vchan")
    s = g.simd
    fname = "wino_stage3_direct" if direct else "wino_stage3"
    dest = "out" if direct else "out_tiles"
    em.lines.append(
        f"void {fname}(const real_t* restrict x, "
        f"real_t* restrict {dest}, int64_t f0, int64_t f1) {{"
    )
    ind = "  "
    em.stmt(ind, "for (int64_t f = f0; f < f1; ++f) {")
    ind += "  "
    _stage3_decode(em, g, ind)
    em.stmt(ind, f"const real_t* restrict xp0 = x + row * {_ll(g.c_out)} "
                 f"+ qb * {_ll(s)};")
    names: dict[tuple[int, ...], str] = {}
    for flat, idx in enumerate(_multi_indices(g.tile_shape)):
        nm = f"a{flat}"
        em.stmt(ind, f"const vchan {nm} = "
                     f"*(const vchan*)(xp0 + {_ll(flat * g.nb * g.c_out)});")
        names[idx] = nm
    outs = emit_separable_transform(a_cods, g.tile_shape, names, em, ind)
    em.stmt(ind, f"real_t sbuf[{g.m_prod}][{s}];")
    for mflat, idx in enumerate(_multi_indices(g.m)):
        em.stmt(ind, f"*(vchan*)sbuf[{mflat}] = {outs[idx]};")
    if direct:
        _stage3_direct_base(em, g, ind)
        os_ = g.out_strides
        em.stmt(ind, f"for (int cc = 0; cc < {s}; ++cc) {{")
        ind += "  "
        em.stmt(ind, f"real_t* restrict oc = ob + (int64_t)cc * {_ll(g.out_elems)};")
        for mflat, idx in enumerate(_multi_indices(g.m)):
            guard = _stage3_store_guard(g, idx)
            store = f"oc[{_ll(_flat(idx, os_))}] = sbuf[{mflat}][cc];"
            em.stmt(ind, f"if ({guard}) {store}" if guard else store)
        ind = ind[:-2]
        em.stmt(ind, "}")
    else:
        em.stmt(ind, "real_t* restrict ob = out_tiles + "
                     f"((b * {_ll(g.c_out)} + qb * {_ll(s)}) * {_ll(g.n)} "
                     f"+ tile) * {_ll(g.m_prod)};")
        em.stmt(ind, f"for (int cc = 0; cc < {s}; ++cc) {{")
        ind += "  "
        em.stmt(ind, f"real_t* restrict oc = ob + (int64_t)cc * "
                     f"{_ll(g.n * g.m_prod)};")
        for mflat in range(g.m_prod):
            em.stmt(ind, f"oc[{mflat}] = sbuf[{mflat}][cc];")
        ind = ind[:-2]
        em.stmt(ind, "}")
    ind = ind[:-2]
    em.stmt(ind, "}")
    em.lines.append("}")
    return "\n".join(em.lines)


# ----------------------------------------------------------------------
# Whole-plan source
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratedPlanSource:
    """Rendered C for one (plan geometry, blocking, dtype) triple."""

    c_source: str
    cdef: str
    real_type: str  # "float" | "double"
    ndim: int


def render_plan_source(
    plan: WinogradPlan, blocking: BlockingConfig, simd_width: int
) -> GeneratedPlanSource:
    """Render the five stage functions for ``plan`` as one C translation
    unit (deterministic: same plan geometry -> identical source)."""
    dtype = plan.dtype
    if dtype == np.dtype(np.float32):
        real = "float"
    elif dtype == np.dtype(np.float64):
        real = "double"
    else:
        raise ValueError(f"compiled backend supports float32/float64, not {dtype}")
    g = PlanGeometry.from_plan(plan, blocking, simd_width)
    b_cods = [generate_codelet(t.b, name="b_codelet") for t in plan.transforms.dims]
    g_cods = [generate_codelet(t.g, name="g_codelet") for t in plan.transforms.dims]
    a_cods = [generate_codelet(t.a, name="a_codelet") for t in plan.transforms.dims]

    itemsize = np.dtype(dtype).itemsize
    s2_vw = _stage2_vw(_stage2_jt(g, dtype))
    # `may_alias` licenses the real_t* <-> vector* punning the emitters
    # use; `aligned(itemsize)` permits unaligned loads/stores (free on
    # the targets that matter).
    typedefs = [
        f"typedef real_t vchan __attribute__((vector_size("
        f"{g.simd * itemsize}), aligned({itemsize}), may_alias));"
    ]
    if s2_vw >= 2:
        typedefs.append(
            f"typedef real_t vacc __attribute__((vector_size("
            f"{s2_vw * itemsize}), aligned({itemsize}), may_alias));"
        )

    range_args = ", ".join(
        ["int64_t b0", "int64_t b1", "int64_t cb0", "int64_t cb1"]
        + [f"int64_t i{d}_lo, int64_t i{d}_hi" for d in range(g.ndim)]
    )
    cdef = "\n".join([
        f"void wino_stage1(const {real}* padded, {real}* u, {range_args});",
        f"void wino_stage1b(const {real}* kernels, {real}* v, "
        "int64_t c0, int64_t c1, int64_t p0, int64_t p1);",
        f"void wino_stage2(const {real}* u, const {real}* v, {real}* x, "
        "int64_t t0, int64_t t1, int64_t j0, int64_t j1, "
        "int64_t i0, int64_t i1);",
        f"void wino_stage3(const {real}* x, {real}* out_tiles, "
        "int64_t f0, int64_t f1);",
        f"void wino_stage3_direct(const {real}* x, {real}* out, "
        "int64_t f0, int64_t f1);",
    ])
    header = "\n".join([
        "/* Generated by repro.core.codegen_c -- do not edit. */",
        "#include <stdint.h>",
        f"typedef {real} real_t;",
        *typedefs,
        f"/* spec=F({'x'.join(map(str, g.m))},{'x'.join(map(str, g.r))}) "
        f"B={g.batch} C={g.c_in} C'={g.c_out} N={g.n} T={g.t} NB={g.nb}",
        f"   counts={g.counts} padded_input={g.pin} output={g.out} S={g.simd} "
        f"n_blk={g.n_blk} cprime_blk={g.cprime_blk} dtype={dtype.name} */",
    ])
    emit2 = _emit_stage2_vec if s2_vw >= 2 else _emit_stage2_scalar
    c_source = "\n\n".join([
        header,
        _emit_stage1_vec(g, b_cods, dtype),
        _emit_stage1b(g, g_cods, dtype),
        emit2(g, dtype),
        _emit_stage3_vec(g, a_cods, dtype, direct=False),
        _emit_stage3_vec(g, a_cods, dtype, direct=True),
    ]) + "\n"
    return GeneratedPlanSource(
        c_source=c_source, cdef=cdef, real_type=real, ndim=g.ndim
    )
