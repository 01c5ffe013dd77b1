"""Direct-convolution baselines.

Two direct implementations appear in Fig. 5:

* **MKL-DNN direct** -- vendor direct convolution in the nChw16c layout;
  well optimized but computes the full ``m*r`` multiplications.
* **Zlateski et al. [58] direct** -- compile-time optimized, statically
  scheduled direct convolution (the work whose scheduling approach the
  paper generalizes).  Slightly better utilization than MKL-DNN direct on
  KNL per the paper's 3D results.

Both share a roofline-style model: direct FLOPs at an implementation-
specific fraction of peak, against the layer's memory traffic.  The
real execution reuses the reference direct convolution.
"""

from __future__ import annotations

from math import prod

import numpy as np

from repro.baselines.base import ConvImplementation
from repro.machine.memory import MemoryModel
from repro.machine.spec import KNL_7210, MachineSpec
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import direct_convolution


class DirectConvBaseline(ConvImplementation):
    """Roofline model of an optimized direct convolution on a CPU."""

    def __init__(
        self,
        name: str = "direct",
        machine: MachineSpec = KNL_7210,
        efficiency: float = 0.70,
        *,
        streaming_output: bool = False,
    ):
        """
        Parameters
        ----------
        efficiency:
            Fraction of peak FLOPs sustained by the compute kernel.
            Vendor direct convolutions on KNL reach ~65-75%; the
            compile-time-optimized primitives of [58] a bit more.
        streaming_output:
            Whether outputs avoid write-allocate traffic.
        """
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        self.name = name
        self.machine = machine
        self.efficiency = efficiency
        self.streaming_output = streaming_output
        self._memory = MemoryModel(machine)

    def supports(self, layer: ConvLayerSpec) -> None:
        # Direct convolution supports everything.
        return None

    def predicted_seconds(self, layer: ConvLayerSpec) -> float:
        flops = layer.direct_flops()
        compute_s = flops / (self.machine.peak_flops * self.efficiency)
        in_bytes = layer.batch * layer.c_in * prod(layer.image) * 4
        out_bytes = layer.output_voxels * 4
        kernel_bytes = layer.c_in * layer.c_out * prod(layer.kernel) * 4
        traffic = self._memory.combine(
            self._memory.read_traffic(in_bytes + kernel_bytes),
            self._memory.store_traffic(out_bytes, streaming=self.streaming_output),
        )
        return max(compute_s, traffic.seconds(self.machine))

    def execute(self, images, kernels, layer, out=None):
        self.check_layer_arrays(images, kernels, layer)
        result = direct_convolution(
            images, kernels, padding=layer.padding, dtype=np.float32
        )
        return self.finish(result, out)

    def execute_prepared(self, images, prepared, layer, out=None):
        # The serving path computes in the request's dtype.
        result = direct_convolution(images, prepared, padding=layer.padding)
        return self.finish(result, out)


def mkldnn_direct(machine: MachineSpec = KNL_7210) -> DirectConvBaseline:
    """MKL-DNN's direct convolution (nChw16c layout)."""
    return DirectConvBaseline(
        name="MKL-DNN direct", machine=machine, efficiency=0.70
    )


def zlateski_direct(machine: MachineSpec = KNL_7210) -> DirectConvBaseline:
    """Zlateski & Seung [58]: compile-time optimized, statically
    scheduled direct primitives."""
    return DirectConvBaseline(
        name="Zlateski direct", machine=machine, efficiency=0.78,
        streaming_output=True,
    )
