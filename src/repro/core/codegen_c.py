"""C source generation for the compiled Winograd backend (Sec. 4.2).

The Python executors interpret one numpy call per vector op, so the
paper's minimal-op codelets buy nothing: interpreter and allocator
overheads dominate.  This module lowers the whole hot path to C once per
:class:`CodeletKey` -- the ``F(m, r)``, the channel group ``S``, the
dtype, the input channel count ``C`` and the stage-2 register tile.  The
paper generates its transform codelets per ``F(m, r)`` and its GEMM per
blocking (Sec. 4.2-4.3); likewise, layers that share a key share one
library here:

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
* the blocked stage-2 GEMM loop nest (Fig. 3/4) is emitted around a
  multi-row register-tiled microkernel whose reduction length ``K = C``
  and register tile are compile-time constants;
* every other plan quantity -- C', tile counts, padded and output
  extents and their strides, GEMM rows, the blocking, the crop edges --
  is a :class:`PlanGeometry` value each entry point reads at call time
  from its leading ``const int64_t* geo`` argument;
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
from repro.core.fmr import FmrSpec
from repro.core.transforms import winograd_nd

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
# The codelet key (compile time) and the plan geometry (call time)
# ----------------------------------------------------------------------
def _stage2_jt(cprime_blk: int, dtype) -> int:
    """Width of the stage-2 register tile over output columns.

    One cache line of values (16 floats / 8 doubles) when it divides
    ``C'_blk``, else the largest divisor below that -- acc tiles must
    divide the block exactly so the jt loop needs no remainder.
    """
    target = 16 if np.dtype(dtype) == np.float32 else 8
    jt = min(cprime_blk, target)
    while cprime_blk % jt:
        jt -= 1
    return jt


@dataclass(frozen=True)
class CodeletKey:
    """Everything the rendered C depends on.

    The tile spec fixes the transform codelets; ``S`` the vector type
    stages 1 and 3 run on; the input channel count ``C`` is stage 2's
    reduction length, kept a compile-time constant so the microkernel's
    ``k`` loop has a fixed trip count and its U rows sit at constant
    offsets from one pointer; ``s2_tile`` is the stage-2 register tile.
    Every other plan quantity is a :class:`PlanGeometry` value passed
    at call time, so plans that differ only in shape share one library.
    """

    spec: FmrSpec
    simd: int
    dtype: str
    c_in: int
    s2_tile: int

    @classmethod
    def from_plan(
        cls, plan: WinogradPlan, blocking: BlockingConfig, simd_width: int
    ) -> "CodeletKey":
        if simd_width < 1 or simd_width & (simd_width - 1):
            raise ValueError(
                f"S={simd_width} is not a power of two: stages 1 and 3 "
                "run on S-wide GNU vector types"
            )
        if plan.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"compiled backend supports float32/float64, not {plan.dtype}"
            )
        return cls(
            spec=plan.spec,
            simd=simd_width,
            dtype=plan.dtype.name,
            c_in=plan.c_in,
            s2_tile=_stage2_jt(blocking.cprime_blk, plan.dtype),
        )

    @property
    def ndim(self) -> int:
        return self.spec.ndim


#: Slots of the ``geo`` array every entry point takes first: the scalar
#: fields, then each per-dimension field once per spatial dimension.
_GEO_SCALARS = (
    "n_tiles", "nb", "cp", "cp_blocks", "n_blk", "cp_blk", "pin_elems", "out_elems",
)
_GEO_PER_DIM = ("count", "count_stride", "pin_stride", "out_ext", "out_stride")


def geo_fields(ndim: int) -> tuple[str, ...]:
    """Names of the ``geo`` slots, in order, for ``ndim`` spatial dims."""
    return _GEO_SCALARS + tuple(f"{f}{d}" for f in _GEO_PER_DIM for d in range(ndim))


@dataclass(frozen=True)
class PlanGeometry:
    """One plan's call-time quantities: what a library reads from ``geo``.

    Everything about a plan that its :class:`CodeletKey` leaves open --
    C', tile counts, padded and output extents and their strides, the
    GEMM rows, the stage-2 blocking, and through the output extents the
    crop edges.  :meth:`pack` lays them out once per plan as the
    ``int64`` array the entry points read (slot names:
    :func:`geo_fields`).
    """

    simd: int
    c_out: int
    n: int            # N  = tiles per image
    nb: int           # NB = B*N GEMM rows
    n_blk: int
    cprime_blk: int
    counts: tuple[int, ...]
    pin: tuple[int, ...]          # padded input spatial extent
    out: tuple[int, ...]          # cropped output spatial extent

    @classmethod
    def from_plan(
        cls, plan: WinogradPlan, blocking: BlockingConfig, simd_width: int
    ) -> "PlanGeometry":
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
            simd=simd_width,
            c_out=plan.c_out,
            n=plan.tiles_per_image,
            nb=plan.gemm_rows,
            n_blk=blocking.n_blk,
            cprime_blk=blocking.cprime_blk,
            counts=plan.grid.counts,
            pin=plan.grid.padded_input_shape,
            out=plan.grid.output_shape,
        )

    def pack(self) -> np.ndarray:
        s = self.simd
        vals = {
            "n_tiles": self.n,
            "nb": self.nb,
            "cp": self.c_out,
            "cp_blocks": self.c_out // s,
            "n_blk": self.n_blk,
            "cp_blk": self.cprime_blk,
            "pin_elems": prod(self.pin),
            "out_elems": prod(self.out),
        }
        ndim = len(self.counts)
        for d in range(ndim):
            vals[f"count{d}"] = self.counts[d]
            vals[f"count_stride{d}"] = prod(self.counts[d + 1:])
            # The padded buffer is channel-blocked: one spatial step is S values.
            vals[f"pin_stride{d}"] = prod(self.pin[d + 1:]) * s
            vals[f"out_ext{d}"] = self.out[d]
            vals[f"out_stride{d}"] = prod(self.out[d + 1:])
        return np.array([vals[f] for f in geo_fields(ndim)], dtype=np.int64)


def _ll(v: int) -> str:
    return f"{v}LL"


def _multi_indices(shape: tuple[int, ...]):
    return product(*(range(n) for n in shape))


def _flat(idx: tuple[int, ...], strides: tuple[int, ...]) -> int:
    return sum(i * s for i, s in zip(idx, strides))


def _row_major_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(prod(shape[d + 1:]) for d in range(len(shape)))


def _geo_locals(ndim: int, names: list[str]) -> list[str]:
    """Declarations reading the named ``geo`` slots into locals."""
    slot = {f: i for i, f in enumerate(geo_fields(ndim))}
    return [f"  const int64_t {name} = geo[{slot[name]}];" for name in names]


def _plane_stores(
    em: _Emitter, ind: str, ptr: str, values: list[str], cast: str
) -> None:
    """Store one value per ``T`` plane, advancing ``ptr`` by ``plane``."""
    for i, val in enumerate(values):
        step = f" STEP({ptr}, plane);" if i + 1 < len(values) else ""
        em.stmt(ind, f"*{cast}{ptr} = {val};{step}")


# ----------------------------------------------------------------------
# Stage 1 -- input transform
# ----------------------------------------------------------------------
def _emit_stage1(key: CodeletKey, b_cods: list[Codelet]) -> str:
    """Input transform, vectorized across the channel dimension.

    ``padded`` is stored in the Table-1 image layout ``(B, C/S,
    *padded_input, S)``, so each element of a tile is one unit-stride
    ``S``-wide vector load: through a row pointer stepped along the
    leading tile dimensions, plus a constant offset along the last.  The
    loads are the same for every plan of the key; only the run-time
    strides the pointers step by differ.  The whole N-D transform runs
    on those vectors, and each of the ``T`` planes of ``u`` receives one
    contiguous vector store.  Loop nest: batch x channel-block x tile
    grid, walked sequentially, so loads and stores are streams the
    hardware prefetcher tracks.
    """
    em = _Emitter(key.dtype, rtype="vchan")
    nd, s, c = key.ndim, key.simd, key.c_in
    m, tile = key.spec.m, key.spec.tile_shape
    lead = range(nd - 1)
    args = ["const int64_t* restrict geo", "const real_t* restrict padded",
            "real_t* restrict u", "int64_t b0", "int64_t b1", "int64_t cb0",
            "int64_t cb1"]
    for d in range(nd):
        args += [f"int64_t i{d}_lo", f"int64_t i{d}_hi"]
    em.lines.append(f"void wino_stage1({', '.join(args)}) {{")
    em.lines += _geo_locals(nd, ["n_tiles", "nb", "pin_elems"]
                            + [f"count_stride{d}" for d in lead]
                            + [f"pin_stride{d}" for d in lead])
    ind = "  "
    em.stmt(ind, f"const int64_t plane = nb * {_ll(c)};")
    em.stmt(ind, "for (int64_t b = b0; b < b1; ++b) {")
    ind += "  "
    em.stmt(ind, "for (int64_t cb = cb0; cb < cb1; ++cb) {")
    ind += "  "
    for d in range(nd):
        em.stmt(ind, f"for (int64_t i{d} = i{d}_lo; i{d} < i{d}_hi; ++i{d}) {{")
        ind += "  "
    flat_tile = " + ".join([f"i{d} * count_stride{d}" for d in lead] + [f"i{nd - 1}"])
    em.stmt(ind, f"const int64_t row = b * n_tiles + {flat_tile};")
    base = " + ".join(
        [f"b * ({_ll(c)} * pin_elems)", f"cb * ({_ll(s)} * pin_elems)"]
        + [f"i{d} * ({_ll(m[d])} * pin_stride{d})" for d in lead]
        + [f"i{nd - 1} * {_ll(m[-1] * s)}"]
    )
    em.stmt(ind, f"const real_t* tb = padded + {base};")
    # One row pointer per leading dimension, stepped odometer-style:
    # `r{d}` is the start of the current row along dimension d, and the
    # last dimension is a constant offset from the innermost one.
    rows = [f"r{d}" for d in lead]
    for r in rows:
        em.stmt(ind, f"const real_t* {r} = tb;")
    names: dict[tuple[int, ...], str] = {}
    prev: tuple[int, ...] | None = None
    for lidx in _multi_indices(tile[:-1]):
        if prev is not None:
            d = min(e for e in lead if lidx[e] != prev[e])
            em.stmt(ind, f"STEP(r{d}, pin_stride{d});"
                    + "".join(f" r{e} = r{d};" for e in lead if e > d))
        prev = lidx
        ptr = rows[-1] if rows else "tb"
        for k in range(tile[-1]):
            nm = f"a{len(names)}"
            em.stmt(ind, f"const vchan {nm} = *(const vchan*)({ptr} + {_ll(k * s)});")
            names[lidx + (k,)] = nm
    outs = emit_separable_transform(b_cods, tile, names, em, ind)
    em.stmt(ind, f"real_t* qp = u + row * {_ll(c)} + cb * {_ll(s)};")
    _plane_stores(em, ind, "qp", [outs[i] for i in _multi_indices(tile)], "(vchan*)")
    for _ in range(nd + 3):
        ind = ind[:-2]
        em.stmt(ind, "}")
    return "\n".join(em.lines)


# ----------------------------------------------------------------------
# Stage 1b -- kernel transform
# ----------------------------------------------------------------------
def _emit_stage1b(key: CodeletKey, g_cods: list[Codelet]) -> str:
    em = _Emitter(key.dtype)
    r = key.spec.r
    em.lines.append(
        "void wino_stage1b(const int64_t* restrict geo, "
        "const real_t* restrict kernels, real_t* restrict v, "
        "int64_t c0, int64_t c1, int64_t p0, int64_t p1) {"
    )
    em.lines += _geo_locals(key.ndim, ["cp"])
    ind = "  "
    em.stmt(ind, f"const int64_t plane = {_ll(key.c_in)} * cp;")
    em.stmt(ind, "for (int64_t c = c0; c < c1; ++c) {")
    ind += "  "
    em.stmt(ind, f"for (int64_t q = p0 * {_ll(key.simd)}; "
                 f"q < p1 * {_ll(key.simd)}; ++q) {{")
    ind += "  "
    em.stmt(ind, f"const real_t* restrict kp = kernels + (c * cp + q) * {_ll(prod(r))};")
    r_strides = _row_major_strides(r)
    names: dict[tuple[int, ...], str] = {}
    for flat, idx in enumerate(_multi_indices(r)):
        nm = f"a{flat}"
        em.stmt(ind, f"const real_t {nm} = kp[{_ll(_flat(idx, r_strides))}];")
        names[idx] = nm
    outs = emit_separable_transform(g_cods, r, names, em, ind)
    em.stmt(ind, "real_t* vp = v + c * cp + q;")
    _plane_stores(em, ind, "vp", [outs[i] for i in _multi_indices(key.spec.tile_shape)], "")
    for _ in range(2):
        ind = ind[:-2]
        em.stmt(ind, "}")
    em.lines.append("}")
    return "\n".join(em.lines)


# ----------------------------------------------------------------------
# Stage 2 -- blocked batched GEMM
# ----------------------------------------------------------------------
def _stage2_vw(jt: int) -> int:
    """Vector lane count for stage 2: largest power-of-two divisor of
    the register-tile width (GNU ``vector_size`` must be a power of
    two).  1 means no legal vector type -- use the scalar kernel."""
    vw = 1
    while vw * 2 <= jt and jt % (vw * 2) == 0:
        vw *= 2
    return vw


def _stage2_scaffold(body: str, key: CodeletKey) -> str:
    c, jt = key.c_in, key.s2_tile
    geo = "\n".join(_geo_locals(key.ndim, ["nb", "cp", "n_blk", "cp_blk"]))
    return f"""void wino_stage2(const int64_t* restrict geo, const real_t* restrict u,
                 const real_t* restrict v, real_t* restrict x, int64_t t0, int64_t t1,
                 int64_t j0, int64_t j1, int64_t i0, int64_t i1) {{
{geo}
  for (int64_t t = t0; t < t1; ++t) {{
    const real_t* restrict ut = u + t * (nb * {_ll(c)});
    const real_t* restrict vt = v + t * ({_ll(c)} * cp);
    real_t* restrict xt = x + t * (nb * cp);
    for (int64_t j = j0; j < j1; ++j) {{
      for (int64_t i = i0; i < i1; ++i) {{
        const int64_t rlo = i * n_blk;
        int64_t rhi = rlo + n_blk;
        if (rhi > nb) rhi = nb;
        for (int64_t jt = 0; jt < cp_blk; jt += {_ll(jt)}) {{
          const real_t* restrict vjt = vt + j * cp_blk + jt;
          real_t* restrict xjt = xt + j * cp_blk + jt;
          int64_t rr = rlo;
{body}
        }}
      }}
    }}
  }}
}}"""


def _emit_stage2_vec(key: CodeletKey) -> str:
    """Register-tiled GEMM microkernel on GNU vector types.

    ``_S2_ROWS`` rows x ``jt`` columns of C are held in explicit vector
    accumulators; each k step loads one ``vr`` line of V (shared by all
    rows) and broadcasts one U scalar per row.  Independent
    accumulators keep the FMA chains parallel instead of
    latency-bound, and the leftover rows run a single-row variant of
    the same vector kernel -- a scalar tail would be an order of
    magnitude slower per row and dominate whenever ``_S2_ROWS`` does
    not divide the row block.  ``K = C`` is a compile-time constant;
    C' (the row pitch of V and X) is read at call time.
    """
    c, jt = key.c_in, key.s2_tile
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
    lines.append("              const real_t* restrict vr = vjt + k * cp;")
    for mv in range(nv):
        lines.append(f"              const vacc vv{mv} = "
                     f"*(const vacc*)(vr + {mv * vw});")
    for q in range(rows):
        lines.append(f"              {{ const real_t s = ur{q}[k]; " + " ".join(
            f"a{q}_{mv} += s * vv{mv};" for mv in range(nv)) + " }")
    lines.append("            }")
    lines.append("            real_t* restrict xr = xjt + rr * cp;")
    for q in range(rows):
        stores = " ".join(f"*(vacc*)(xr + {mv * vw}) = a{q}_{mv};" for mv in range(nv))
        step = " xr += cp;" if q + 1 < rows else ""
        lines.append(f"            {stores}{step}")
    lines.append("          }")
    # vector tail: one row at a time, same accumulator layout
    lines.append("          for (; rr < rhi; ++rr) {")
    lines.append(f"            const real_t* restrict ur = ut + rr * {_ll(c)};")
    lines.append("            " + " ".join(
        f"vacc b{mv} = {{(real_t)0}};" for mv in range(nv)))
    lines.append(f"            for (int64_t k = 0; k < {_ll(c)}; ++k) {{")
    lines.append("              const real_t* restrict vr = vjt + k * cp;")
    lines.append("              const real_t s = ur[k]; " + " ".join(
        f"b{mv} += s * *(const vacc*)(vr + {mv * vw});" for mv in range(nv)))
    lines.append("            }")
    lines.append("            real_t* restrict xr = xjt + rr * cp;")
    for mv in range(nv):
        lines.append(f"            *(vacc*)(xr + {mv * vw}) = b{mv};")
    lines.append("          }")
    return _stage2_scaffold("\n".join(lines), key)


def _emit_stage2_scalar(key: CodeletKey) -> str:
    """Scalar fallback (no power-of-two register tile): four explicit
    row accumulators keep the k chains parallel, which is as much
    instruction-level parallelism as scalar code reliably gets."""
    c, jt = key.c_in, key.s2_tile
    quad = "\n".join(
        ["          for (; rr + 4 <= rhi; rr += 4) {"]
        + [f"          const real_t* restrict ur{q} = ut + (rr + {q}) * {_ll(c)};"
           for q in range(4)]
        + [f"          real_t a0[{jt}], a1[{jt}], a2[{jt}], a3[{jt}];",
           f"          for (int jj = 0; jj < {jt}; ++jj) "
           "{ a0[jj] = a1[jj] = a2[jj] = a3[jj] = (real_t)0; }",
           f"          for (int64_t k = 0; k < {_ll(c)}; ++k) {{",
           "            const real_t* restrict vr = vjt + k * cp;",
           "            const real_t s0 = ur0[k], s1 = ur1[k], "
           "s2 = ur2[k], s3 = ur3[k];",
           f"            for (int jj = 0; jj < {jt}; ++jj) {{",
           "              a0[jj] += s0 * vr[jj]; a1[jj] += s1 * vr[jj];",
           "              a2[jj] += s2 * vr[jj]; a3[jj] += s3 * vr[jj];",
           "            }",
           "          }",
           "          real_t* restrict xr = xjt + rr * cp;"]
        + [f"          for (int jj = 0; jj < {jt}; ++jj) "
           f"xr[{q} * cp + jj] = a{q}[jj];"
           for q in range(4)]
        + ["          }",
           "          for (; rr < rhi; ++rr) {",
           f"            const real_t* restrict ur = ut + rr * {_ll(c)};",
           f"            real_t acc[{jt}];",
           f"            for (int jj = 0; jj < {jt}; ++jj) acc[jj] = (real_t)0;",
           f"            for (int64_t k = 0; k < {_ll(c)}; ++k) {{",
           "              const real_t us = ur[k];",
           "              const real_t* restrict vr = vjt + k * cp;",
           f"              for (int jj = 0; jj < {jt}; ++jj) acc[jj] += us * vr[jj];",
           "            }",
           "            real_t* restrict xr = xjt + rr * cp;",
           f"            for (int jj = 0; jj < {jt}; ++jj) xr[jj] = acc[jj];",
           "          }"]
    )
    return _stage2_scaffold(quad, key)


# ----------------------------------------------------------------------
# Stage 3 -- inverse transform
# ----------------------------------------------------------------------
def _stage3_direct_store(em: _Emitter, key: CodeletKey, ind: str) -> None:
    """Store the parked tile into the final cropped ``out`` tensor.

    Each dimension's valid extent is computed per tile at run time: ``m``
    inside the output, less on a trailing edge tile.  A whole tile
    stores every element through one row pointer per leading index plus
    a constant offset; an edge tile runs loops to its extents.
    """
    nd, s, m = key.ndim, key.simd, key.spec.m
    base = " + ".join(
        [f"(b * cp + qb * {_ll(s)}) * out_elems"]
        + [f"td{d} * ({_ll(m[d])} * out_stride{d})" for d in range(nd - 1)]
        + [f"td{nd - 1} * {_ll(m[-1])}"]
    )
    em.stmt(ind, f"real_t* ob = out + {base};")
    for d in range(nd):
        em.stmt(ind, f"int64_t v{d} = out_ext{d} - td{d} * {_ll(m[d])}; "
                     f"if (v{d} > {_ll(m[d])}) v{d} = {_ll(m[d])};")
    whole = " && ".join(f"v{d} == {_ll(m[d])}" for d in range(nd))
    em.stmt(ind, f"if ({whole}) {{")
    inner = ind + "  "
    em.stmt(inner, f"for (int cc = 0; cc < {s}; ++cc) {{")
    em.stmt(inner + "  ", "real_t* oc = ob + (int64_t)cc * out_elems;")
    for lflat, lidx in enumerate(_multi_indices(m[:-1])):
        terms = ["oc"] + [
            f"{j} * out_stride{d}" if j > 1 else f"out_stride{d}"
            for d, j in enumerate(lidx) if j
        ]
        stores = " ".join(
            f"o[{k}] = sbuf[{lflat * m[-1] + k}][cc];" for k in range(m[-1])
        )
        em.stmt(inner + "  ", f"{{ real_t* o = {' + '.join(terms)}; {stores} }}")
    em.stmt(inner, "}")
    em.stmt(ind, "} else {")
    em.stmt(inner, f"for (int cc = 0; cc < {s}; ++cc) {{")
    loop = inner + "  "
    em.stmt(loop, "real_t* oc = ob + (int64_t)cc * out_elems;")
    for d in range(nd):
        em.stmt(loop, f"for (int64_t j{d} = 0; j{d} < v{d}; ++j{d}) {{")
        loop += "  "
    dst = " + ".join([f"j{d} * out_stride{d}" for d in range(nd - 1)] + [f"j{nd - 1}"])
    src = "j0"
    for d in range(1, nd):
        src = f"({src}) * {m[d]} + j{d}"
    em.stmt(loop, f"oc[{dst}] = sbuf[{src}][cc];")
    for _ in range(nd + 1):
        loop = loop[:-2]
        em.stmt(loop, "}")
    em.stmt(ind, "}")


def _emit_stage3(key: CodeletKey, a_cods: list[Codelet], direct: bool) -> str:
    """Inverse transform, vectorized across the output-channel lanes.

    The ``T`` planes of ``x`` hold the channel block contiguously, so
    the inputs are plain vector loads; the transform runs ``S`` wide;
    the ``m``-tile of output vectors is parked in a local buffer and
    scattered per channel with contiguous scalar stores.  ``direct``
    selects the final-tensor layout (``wino_stage3_direct``, cropped by
    a per-tile valid extent) over the ``out_tiles`` arena layout
    (``wino_stage3``) -- same arithmetic, so the two variants are
    bit-identical where both store.  The range start is decoded once;
    the loop then advances the (b, tile, channel-block) indices -- and
    for the direct store the tile's grid coordinates -- with carries,
    so no iteration divides by a run-time value.
    """
    em = _Emitter(key.dtype, rtype="vchan")
    nd, s = key.ndim, key.simd
    m, tile = key.spec.m, key.spec.tile_shape
    fname = "wino_stage3_direct" if direct else "wino_stage3"
    dest = "out" if direct else "out_tiles"
    em.lines.append(
        f"void {fname}(const int64_t* restrict geo, const real_t* restrict x, "
        f"real_t* restrict {dest}, int64_t f0, int64_t f1) {{"
    )
    fields = ["n_tiles", "nb", "cp", "cp_blocks"]
    if direct:
        fields += (["out_elems"] + [f"count{d}" for d in range(nd)]
                   + [f"out_ext{d}" for d in range(nd)]
                   + [f"out_stride{d}" for d in range(nd - 1)])
    em.lines += _geo_locals(nd, fields)
    ind = "  "
    # The inputs are loaded in the order the first codelet pass consumes
    # them, dimension-0 fibers one after another, so one pointer steps
    # by two run-time strides: along a fiber, and to the next one.
    fiber = prod(tile[1:])
    em.stmt(ind, f"const int64_t along = nb * cp * {_ll(fiber)};")
    if nd > 1:
        em.stmt(ind, f"const int64_t next = nb * cp * {_ll(1 - (tile[0] - 1) * fiber)};")
    em.stmt(ind, "int64_t qb = f0 % cp_blocks;")
    em.stmt(ind, "int64_t tile = f0 / cp_blocks;")
    em.stmt(ind, "int64_t b = tile / n_tiles;")
    em.stmt(ind, "tile -= b * n_tiles;")
    if direct:
        em.stmt(ind, "int64_t trem = tile;")
        for d in range(nd - 1, 0, -1):
            em.stmt(ind, f"int64_t td{d} = trem % count{d}; trem /= count{d};")
        em.stmt(ind, "int64_t td0 = trem;")
    em.stmt(ind, "for (int64_t f = f0; f < f1; ++f) {")
    ind += "  "
    em.stmt(ind, f"const real_t* xp = x + (b * n_tiles + tile) * cp + qb * {_ll(s)};")
    names: dict[tuple[int, ...], str] = {}
    order = sorted(_multi_indices(tile), key=lambda idx: (idx[1:], idx[0]))
    strides = _row_major_strides(tile)
    for n, idx in enumerate(order):
        nm = f"a{_flat(idx, strides)}"
        step = ""
        if n + 1 < len(order):
            step = f" STEP(xp, {'along' if order[n + 1][0] else 'next'});"
        em.stmt(ind, f"const vchan {nm} = *(const vchan*)xp;{step}")
        names[idx] = nm
    outs = emit_separable_transform(a_cods, tile, names, em, ind)
    mp = prod(m)
    em.stmt(ind, f"real_t sbuf[{mp}][{s}];")
    for mflat, idx in enumerate(_multi_indices(m)):
        em.stmt(ind, f"*(vchan*)sbuf[{mflat}] = {outs[idx]};")
    em.stmt(ind, "IN_MEMORY(sbuf);")
    if direct:
        _stage3_direct_store(em, key, ind)
    else:
        em.stmt(ind, f"real_t* restrict ob = out_tiles + "
                     f"((b * cp + qb * {_ll(s)}) * n_tiles + tile) * {_ll(mp)};")
        em.stmt(ind, f"for (int cc = 0; cc < {s}; ++cc) {{")
        em.stmt(ind + "  ", "real_t* restrict oc = ob + "
                            f"(int64_t)cc * (n_tiles * {_ll(mp)});")
        for mflat in range(mp):
            em.stmt(ind + "  ", f"oc[{mflat}] = sbuf[{mflat}][cc];")
        em.stmt(ind, "}")
    em.stmt(ind, "if (++qb == cp_blocks) {")
    inner = ind + "  "
    em.stmt(inner, "qb = 0;")
    if direct:
        for d in range(nd - 1, -1, -1):
            em.stmt(inner, f"if (++td{d} == count{d}) {{")
            inner += "  "
            em.stmt(inner, f"td{d} = 0;")
        for _ in range(nd):
            inner = inner[:-2]
            em.stmt(inner, "}")
    em.stmt(inner, "if (++tile == n_tiles) { tile = 0; ++b; }")
    em.stmt(ind, "}")
    ind = ind[:-2]
    em.stmt(ind, "}")
    em.lines.append("}")
    return "\n".join(em.lines)


# ----------------------------------------------------------------------
# Whole-library source
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratedSource:
    """Rendered C for one :class:`CodeletKey`."""

    c_source: str
    cdef: str
    real_type: str  # "float" | "double"


def render_source(key: CodeletKey) -> GeneratedSource:
    """Render the five stage functions for ``key`` as one C translation
    unit.  Deterministic and a function of the key alone: every plan
    with this key gets byte-identical source, hence one build."""
    dtype = np.dtype(key.dtype)
    real = "float" if dtype == np.float32 else "double"
    dims = winograd_nd(key.spec).dims
    b_cods = [generate_codelet(t.b, name="b_codelet") for t in dims]
    g_cods = [generate_codelet(t.g, name="g_codelet") for t in dims]
    a_cods = [generate_codelet(t.a, name="a_codelet") for t in dims]

    itemsize = dtype.itemsize
    s2_vw = _stage2_vw(key.s2_tile)
    # `may_alias` licenses the real_t* <-> vector* punning the emitters
    # use; `aligned(itemsize)` permits unaligned loads/stores (free on
    # the targets that matter).
    typedefs = [
        f"typedef real_t vchan __attribute__((vector_size("
        f"{key.simd * itemsize}), aligned({itemsize}), may_alias));"
    ]
    if s2_vw >= 2:
        typedefs.append(
            f"typedef real_t vacc __attribute__((vector_size("
            f"{s2_vw * itemsize}), aligned({itemsize}), may_alias));"
        )

    range_args = ", ".join(
        ["int64_t b0", "int64_t b1", "int64_t cb0", "int64_t cb1"]
        + [f"int64_t i{d}_lo, int64_t i{d}_hi" for d in range(key.ndim)]
    )
    geo = "const int64_t* geo"
    cdef = "\n".join([
        f"void wino_stage1({geo}, const {real}* padded, {real}* u, {range_args});",
        f"void wino_stage1b({geo}, const {real}* kernels, {real}* v, "
        "int64_t c0, int64_t c1, int64_t p0, int64_t p1);",
        f"void wino_stage2({geo}, const {real}* u, const {real}* v, {real}* x, "
        "int64_t t0, int64_t t1, int64_t j0, int64_t j1, "
        "int64_t i0, int64_t i1);",
        f"void wino_stage3({geo}, const {real}* x, {real}* out_tiles, "
        "int64_t f0, int64_t f1);",
        f"void wino_stage3_direct({geo}, const {real}* x, {real}* out, "
        "int64_t f0, int64_t f1);",
    ])
    spec = key.spec
    header = "\n".join([
        "/* Generated by repro.core.codegen_c -- do not edit. */",
        "#include <stdint.h>",
        f"typedef {real} real_t;",
        *typedefs,
        "/* Advance a pointer by a run-time stride.  The empty asm keeps the",
        "   address in the one register: without it the compiler hoists every",
        "   multiple of the stride as a loop invariant of its own, and spills. */",
        "#define STEP(p, n) do { (p) += (n); __asm__(\"\" : \"+r\"(p)); } while (0)",
        "/* Keep a parked tile in memory, so the stores that scatter it read one",
        "   scalar each instead of extracting lanes from vector registers. */",
        "#define IN_MEMORY(buf) __asm__(\"\" : : \"r\"(buf) : \"memory\")",
        f"/* F({'x'.join(map(str, spec.m))},{'x'.join(map(str, spec.r))}) "
        f"S={key.simd} C={key.c_in} stage-2 tile={key.s2_tile} "
        f"dtype={dtype.name}; plan geometry is read from geo: "
        f"{', '.join(geo_fields(key.ndim))} */",
    ])
    emit2 = _emit_stage2_vec if s2_vw >= 2 else _emit_stage2_scalar
    c_source = "\n\n".join([
        header,
        _emit_stage1(key, b_cods),
        _emit_stage1b(key, g_cods),
        emit2(key),
        _emit_stage3(key, a_cods, direct=False),
        _emit_stage3(key, a_cods, direct=True),
    ]) + "\n"
    return GeneratedSource(c_source=c_source, cdef=cdef, real_type=real)
