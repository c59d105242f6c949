"""GPU and interconnect specifications."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gpu": ("GPUSpec",),
    ".interconnect": ("LinkSpec",),
    ".catalog": (
        "A100_80G",
        "A40_48G",
        "H100_80G",
        "NVLINK",
        "PCIE_4",
        "ETHERNET_100G",
        "get_gpu",
        "get_link",
    ),
})
