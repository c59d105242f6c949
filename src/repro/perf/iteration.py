"""Iteration-level execution model: batch composition → wall-clock.

``ExecutionModel`` composes the linear, attention and "others" operator
models with communication and fixed overheads into the per-iteration
time of one pipeline stage.  This is the simulator's substitute for
running kernels on a GPU; everything above it (schedulers, engines,
capacity search) consumes only this interface.

Pricing decomposes into five component prices — linear time by token
counts, attention time per work segment, decode attention over a
context array, the token-count terms and the pipeline send — that
``stage_iteration_time`` composes.  Engines and schedulers that price
from flat arrays call the components directly, in the same operation
order, and :class:`repro.perf.cache.CachedExecutionModel` memoizes
exactly these methods; this class is the unmemoized reference.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.models.config import ModelConfig
from repro.parallel.comm import pp_send_time, tp_comm_time
from repro.parallel.config import ParallelConfig
from repro.perf.attention import AttentionModel
from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.linear import LinearModel
from repro.perf.roofline import op_time
from repro.types import IterationTime, TokenWork


class ExecutionModel:
    """Analytical execution-time model for one replica's pipeline stage.

    Stages are symmetric (ceil-split layers), so a single instance
    models every stage of a deployment; the LM head is charged only
    when ``is_last_stage`` and per-iteration CPU overhead only when
    ``is_first_stage`` (where the scheduler runs).
    """

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        parallel: ParallelConfig | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.model = model
        self.gpu = gpu
        self.parallel = parallel or ParallelConfig()
        self.calibration = calibration
        self.linear = LinearModel(model, gpu, self.parallel, calibration)
        self.attention = AttentionModel(model, gpu, self.parallel, calibration)
        self.stage_layers = self.parallel.layers_per_stage(model)
        tp = self.parallel.tensor_parallel
        self._others_bytes_per_token = (
            calibration.others_bytes_factor
            * model.hidden_size
            * model.dtype_bytes
            / tp
        )

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    def stage_iteration_time(
        self,
        works: Sequence[TokenWork],
        is_first_stage: bool = True,
        is_last_stage: bool = True,
    ) -> IterationTime:
        """Wall-clock of one stage executing one batch iteration."""
        if not works:
            return IterationTime(0.0, 0.0, 0.0, 0.0, 0.0)

        num_tokens = sum(w.num_tokens for w in works)
        num_logit_tokens = sum(1 for w in works if w.emits_token)

        linear = self.linear_time(
            num_tokens, num_logit_tokens if is_last_stage else 0
        )
        attention = sum(
            self.attention_time(w.num_tokens, w.past_len, w.is_prefill)
            for w in works
        )
        others, comm = self.token_terms(num_tokens)
        overhead = self._fixed_overhead(is_first_stage)
        return IterationTime(linear, attention, others, comm, overhead)

    def iteration_time(self, works: Sequence[TokenWork]) -> IterationTime:
        """Convenience for single-stage (PP=1) deployments."""
        return self.stage_iteration_time(works)

    def pipeline_send_time(self, works: Sequence[TokenWork]) -> float:
        """Activation transfer time to the next pipeline stage."""
        return self.send_time(sum(w.num_tokens for w in works))

    # ------------------------------------------------------------------
    # Component prices (what CachedExecutionModel memoizes)
    # ------------------------------------------------------------------
    def linear_time(self, num_tokens: int, num_logit_tokens: int) -> float:
        """Linear layers over ``num_tokens``, LM head over the logit tokens."""
        return self.linear.stage_time(num_tokens, num_logit_tokens)

    def attention_time(self, num_tokens: int, past_len: int, is_prefill: bool) -> float:
        """Attention of one request's segment of a batch."""
        return self.attention.work_time(
            TokenWork(num_tokens=num_tokens, past_len=past_len, is_prefill=is_prefill)
        )

    def decode_attention_times(self, ctx: np.ndarray) -> list[float]:
        """Attention of one decode step per context length, in ``ctx`` order."""
        work_time = self.attention.work_time
        return [work_time(TokenWork.decode(c)) for c in ctx.tolist()]

    def token_terms(self, num_tokens: int) -> tuple[float, float]:
        """The "others" and TP-communication times of ``num_tokens`` tokens."""
        return (
            self._others_time(num_tokens),
            tp_comm_time(self.model, self.parallel, num_tokens, self.stage_layers),
        )

    def send_time(self, num_tokens: int) -> float:
        """Activation transfer of ``num_tokens`` tokens to the next stage."""
        return pp_send_time(self.model, self.parallel, num_tokens)

    # ------------------------------------------------------------------
    # Derived helpers used throughout benches and schedulers
    # ------------------------------------------------------------------
    def decode_iteration_time(
        self, batch_size: int, context_len: int
    ) -> IterationTime:
        """Decode-only iteration with a uniform context length."""
        works = [TokenWork.decode(context_len) for _ in range(batch_size)]
        return self.iteration_time(works)

    def full_prefill_time(self, prompt_len: int) -> IterationTime:
        """A whole prompt prefilled in a single unchunked iteration."""
        return self.iteration_time([TokenWork.prefill_chunk(prompt_len)])

    def chunked_prefill_time(self, prompt_len: int, chunk_size: int) -> IterationTime:
        """Total time to prefill a prompt split into ``chunk_size`` chunks.

        Sums the per-iteration costs, including the KV re-reads and the
        repeated fixed overheads that make chunking slightly slower than
        a monolithic prefill (Fig. 14).
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        total = IterationTime(0.0, 0.0, 0.0, 0.0, 0.0)
        done = 0
        while done < prompt_len:
            chunk = min(chunk_size, prompt_len - done)
            is_last = done + chunk >= prompt_len
            work = TokenWork.prefill_chunk(chunk, past_len=done, is_last=is_last)
            total = total + self.iteration_time([work])
            done += chunk
        return total

    def per_replica_gpus(self) -> int:
        return self.parallel.world_size

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _others_time(self, num_tokens: int) -> float:
        num_bytes = self._others_bytes_per_token * num_tokens * self.stage_layers
        # Elementwise math is trivially memory-bound; count a nominal
        # handful of FLOPs per byte moved.
        return op_time(
            self.gpu,
            flops=num_bytes,
            num_bytes=num_bytes,
            compute_efficiency=self.calibration.matmul_efficiency,
            memory_efficiency=self.calibration.memory_efficiency,
        ).time

    def _fixed_overhead(self, is_first_stage: bool) -> float:
        calib = self.calibration
        launch = (
            calib.kernel_launch_overhead * calib.kernels_per_layer * self.stage_layers
        )
        scheduler = calib.iteration_overhead if is_first_stage else 0.0
        return launch + scheduler
