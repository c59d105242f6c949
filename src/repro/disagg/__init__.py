"""Disaggregated prefill/decode serving (the §6 comparison point)."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("DisaggregatedEngine", "DisaggregatedResult"),
})
