"""Tensor- and pipeline-parallel sharding and communication models."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("ParallelConfig",),
    ".comm": ("allreduce_bytes_per_layer", "pp_send_time", "tp_comm_time"),
})
