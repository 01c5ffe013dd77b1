"""Tests for the blocked-layout executor (Table-1 dataflow end to end)."""

import numpy as np
import pytest

from repro.core.blocked_pipeline import BlockedWinogradExecutor
from repro.core.blocking import BlockingConfig
from repro.core.convolution import WinogradPlan
from repro.core.fmr import FmrSpec
from repro.nets.reference import direct_convolution

BLK = BlockingConfig(n_blk=6, c_blk=32, cprime_blk=32)


def make_setup(ndim=2, m=2, r=3, b=2, c=32, cp=32, size=8, pad=0, dtype=np.float64):
    plan = WinogradPlan(
        spec=FmrSpec.uniform(ndim, m, r),
        input_shape=(b, c) + (size,) * ndim,
        c_out=cp,
        padding=(pad,) * ndim,
        dtype=dtype,
    )
    execu = BlockedWinogradExecutor(plan=plan, blocking=BLK)
    rng = np.random.default_rng(b * 100 + size)
    images = rng.normal(size=plan.input_shape)
    kernels = rng.normal(size=(c, cp) + plan.spec.r)
    return plan, execu, images, kernels


class TestEquivalence:
    @pytest.mark.parametrize("m,size,pad", [(2, 8, 0), (4, 12, 1), (3, 11, 0)])
    def test_matches_plain_plan_2d(self, m, size, pad):
        plan, execu, images, kernels = make_setup(m=m, size=size, pad=pad)
        blocked = execu.execute(images, kernels)
        plain = plan.execute(images, kernels)
        np.testing.assert_allclose(blocked, plain, rtol=1e-10, atol=1e-12)

    def test_matches_direct_3d(self):
        plan, execu, images, kernels = make_setup(ndim=3, b=1, size=6)
        blocked = execu.execute(images, kernels)
        want = direct_convolution(images, kernels)
        np.testing.assert_allclose(blocked, want, rtol=1e-9, atol=1e-10)

    def test_float32(self):
        plan, execu, images, kernels = make_setup(dtype=np.float32)
        blocked = execu.execute(images.astype(np.float32), kernels.astype(np.float32))
        assert blocked.dtype == np.float32
        want = direct_convolution(images, kernels)
        np.testing.assert_allclose(blocked, want, rtol=2e-3, atol=2e-4)

    def test_ragged_row_blocks(self):
        """NB not divisible by n_blk exercises the zero-padded U rows."""
        plan, execu, images, kernels = make_setup(b=1, size=9, m=2)
        assert plan.gemm_rows % BLK.n_blk != 0
        np.testing.assert_allclose(
            execu.execute(images, kernels),
            plan.execute(images, kernels),
            rtol=1e-10, atol=1e-12,
        )


class TestPackedContract:
    def test_packed_roundtrip_chain(self):
        """A layer's packed output feeds the next layer without any
        reshuffle (the Sec. 4.1 layer-chaining property)."""
        plan1, ex1, images, kernels1 = make_setup(size=10, m=2, pad=1)
        # Second layer consumes layer 1's output extent.
        out_shape = plan1.output_batch_shape
        plan2 = WinogradPlan(
            spec=plan1.spec,
            input_shape=out_shape,
            c_out=32,
            padding=(0, 0),
            dtype=np.float64,
        )
        ex2 = BlockedWinogradExecutor(plan=plan2, blocking=BLK)
        rng = np.random.default_rng(5)
        kernels2 = rng.normal(size=(32, 32, 3, 3))

        p_img = ex1.image_layout.pack(images)
        p_k1 = ex1.kernel_layout.pack(kernels1)
        p_k2 = ex2.kernel_layout.pack(kernels2)
        p_mid = ex1.execute_packed(p_img, p_k1)
        assert tuple(p_mid.shape) == ex2.image_layout.stored_shape  # direct feed
        p_out = ex2.execute_packed(p_mid, p_k2)

        mid = direct_convolution(images, kernels1, padding=(1, 1))
        want = direct_convolution(mid, kernels2)
        got = ex2.output_layout.unpack(p_out)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_stage_shapes(self):
        plan, execu, images, kernels = make_setup()
        u = execu.transform_input_packed(execu.image_layout.pack(images))
        assert tuple(u.shape) == execu.u_layout.stored_shape
        v = execu.transform_kernels_packed(execu.kernel_layout.pack(kernels))
        assert tuple(v.shape) == execu.v_layout.stored_shape
        x = execu.multiply_packed(u, v)
        assert tuple(x.shape) == execu.x_layout.stored_shape

    def test_multiply_goes_through_jit_cache(self):
        """Stage 2 is the traced Fig. 3 loop: its block products come
        from the executor's JIT kernel cache (one kernel per beta)."""
        plan, execu, images, kernels = make_setup()
        u = execu.transform_input_packed(execu.image_layout.pack(images))
        v = execu.transform_kernels_packed(execu.kernel_layout.pack(kernels))
        assert execu.jit.compile_count == 0
        execu.multiply_packed(u, v)
        assert execu.jit.compile_count == 2
        execu.multiply_packed(u, v)
        assert execu.jit.compile_count == 2

    def test_multiply_shape_validation(self):
        plan, execu, *_ = make_setup()
        with pytest.raises(ValueError, match="expected"):
            execu.multiply_packed(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))


class TestValidation:
    def test_blocking_must_divide(self):
        plan = WinogradPlan(
            spec=FmrSpec.uniform(2, 2, 3),
            input_shape=(1, 48, 8, 8),
            c_out=48,
            padding=(0, 0),
        )
        with pytest.raises(ValueError, match="does not divide"):
            BlockedWinogradExecutor(plan=plan, blocking=BLK)

    def test_jit_cache_shared_and_small(self):
        plan, execu, images, kernels = make_setup()
        execu.execute(images, kernels)
        execu.execute(images, kernels)
        # One kernel per beta value, compiled once, reused across runs.
        assert execu.jit.compile_count == 2
