"""Tests for the autotuner and wisdom persistence."""

import pytest

from repro.core.autotune import (
    autotune_layer,
    blocking_from_wisdom,
    layer_key,
    network_model_time,
)
from repro.core.fmr import FmrSpec
from repro.machine.spec import KNL_7210
from repro.nets.layers import ConvLayerSpec, get_layer
from repro.util.wisdom import Wisdom, WisdomEntry

SPEC = FmrSpec.uniform(2, 4, 3)
SMALL_NBLK = (6, 14, 28)


def small_layer(c=64, cp=64, size=28, batch=4):
    return ConvLayerSpec(
        network="T", name="x", batch=batch, c_in=c, c_out=cp,
        image=(size, size), padding=(1, 1), kernel=(3, 3),
    )


class TestAutotune:
    def test_finds_legal_blocking(self):
        res = autotune_layer(
            small_layer(), SPEC, KNL_7210,
            threads_per_core_options=(1, 2), n_blk_values=SMALL_NBLK,
        )
        assert 64 % res.blocking.c_blk == 0
        assert 64 % res.blocking.cprime_blk == 0
        assert res.predicted_seconds > 0
        assert res.candidates_evaluated > 0

    @pytest.mark.slow
    def test_prefers_high_ratio_blocking_for_big_channels(self):
        """For 256-channel layers the 128x128 blocking (ratio 85) should
        beat 64x64 (ratio 43) -- Sec. 4.3.2's own comparison."""
        res = autotune_layer(
            small_layer(c=256, cp=256, size=56, batch=8), SPEC, KNL_7210,
            threads_per_core_options=(1,), n_blk_values=SMALL_NBLK,
        )
        assert res.blocking.c_blk >= 64
        assert res.blocking.cprime_blk >= 64

    def test_v_must_fit_l2_share(self):
        """At 4 threads/core the L2 share shrinks; chosen V must fit it."""
        res = autotune_layer(
            small_layer(c=512, cp=512), SPEC, KNL_7210,
            threads_per_core_options=(4,), n_blk_values=(14,),
        )
        l2_share = KNL_7210.l2_bytes_per_thread(4)
        assert res.blocking.v_bytes() <= l2_share // 2

    def test_tiny_channels_fall_back_to_whole_extent(self):
        """C below the preferred search floor uses C_blk = C."""
        tiny = small_layer(c=16, cp=16)
        res = autotune_layer(tiny, SPEC, KNL_7210, n_blk_values=SMALL_NBLK)
        assert res.blocking.c_blk == 16
        assert res.blocking.cprime_blk == 16

    def test_non_simd_channels_raise(self):
        tiny = small_layer(c=24, cp=24)
        with pytest.raises(ValueError, match="multiples"):
            autotune_layer(tiny, SPEC, KNL_7210, n_blk_values=SMALL_NBLK)


class TestWisdomIntegration:
    def test_wisdom_roundtrip(self, tmp_path):
        wisdom = Wisdom()
        res = autotune_layer(
            small_layer(), SPEC, KNL_7210, wisdom=wisdom,
            threads_per_core_options=(1,), n_blk_values=SMALL_NBLK,
        )
        assert res.key in wisdom
        path = tmp_path / "wisdom.json"
        wisdom.save(path)
        loaded = Wisdom.load(path)
        cached = autotune_layer(
            small_layer(), SPEC, KNL_7210, wisdom=loaded,
            threads_per_core_options=(1,), n_blk_values=SMALL_NBLK,
        )
        assert cached.candidates_evaluated == 0  # served from wisdom
        assert cached.blocking == res.blocking
        assert cached.threads_per_core == res.threads_per_core

    def test_key_distinguishes_shapes(self):
        k1 = layer_key(get_layer("VGG", "3.2"), SPEC, KNL_7210)
        k2 = layer_key(get_layer("VGG", "4.2"), SPEC, KNL_7210)
        k3 = layer_key(get_layer("VGG", "3.2"), FmrSpec.uniform(2, 6, 3), KNL_7210)
        assert len({k1, k2, k3}) == 3

    def test_blocking_from_wisdom(self):
        entry = WisdomEntry(
            n_blk=14, c_blk=64, cprime_blk=128, threads_per_core=2,
            predicted_time=0.001,
        )
        blk = blocking_from_wisdom(entry)
        assert (blk.n_blk, blk.c_blk, blk.cprime_blk) == (14, 64, 128)


class TestWisdomStore:
    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            Wisdom.load(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "v999.json"
        p.write_text('{"version": 999, "entries": {}}')
        with pytest.raises(ValueError, match="format"):
            Wisdom.load(p)

    def test_bad_entry_rejected(self, tmp_path):
        p = tmp_path / "entry.json"
        p.write_text('{"version": 1, "entries": {"k": {"nope": 1}}}')
        with pytest.raises(ValueError, match="corrupt wisdom entry"):
            Wisdom.load(p)

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="threads_per_core"):
            WisdomEntry(n_blk=8, c_blk=64, cprime_blk=64,
                        threads_per_core=9, predicted_time=0.1)

    def test_empty_key_rejected(self):
        w = Wisdom()
        with pytest.raises(ValueError, match="non-empty"):
            w.put("", WisdomEntry(8, 64, 64, 1, 0.1))

    def test_keys_sorted(self):
        w = Wisdom()
        w.put("b", WisdomEntry(8, 64, 64, 1, 0.1))
        w.put("a", WisdomEntry(8, 64, 64, 1, 0.1))
        assert w.keys() == ["a", "b"]
        assert len(w) == 2


class TestNetworkModelTime:
    @pytest.mark.slow
    def test_sum_of_layer_costs(self):
        layers = [
            (get_layer("VGG", "4.2"), FmrSpec.uniform(2, 4, 3)),
            (get_layer("VGG", "5.2"), FmrSpec.uniform(2, 4, 3)),
        ]
        total = network_model_time(layers, KNL_7210)
        assert total > 0
        single = network_model_time(layers[:1], KNL_7210)
        assert total > single
