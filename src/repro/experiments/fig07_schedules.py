"""Figure 7: the A/B/C/D scheduling example, executed for real.

Requests A and B are mid-decode when C and D (long prompts) arrive.
Each policy produces a characteristically different iteration sequence:

* vLLM — prefill-only iterations for C and D stall A/B's decodes;
* Orca — one giant hybrid iteration (full C+D prefills with A/B's
  decodes) that is just as stalling;
* FasterTransformer — C and D wait until A and B drain;
* Sarathi-Serve — C and D's prefills are chunked and coalesced with
  A/B's decodes; no decode-to-decode gap exceeds the budgeted
  iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Deployment, ServingConfig, build_engine, clone_requests
from repro.experiments.common import mistral_deployment
from repro.types import Request

SCHEDULERS = ("vllm", "orca", "faster_transformer", "sarathi")


@dataclass(frozen=True)
class ScheduleTrace:
    """The iteration sequence one scheduler produced."""

    scheduler: str
    iterations: list[str]       # human-readable composition per iteration
    worst_decode_gap: float     # max TBT over A and B
    first_token_c: float        # TTFT of request C


def make_abcd_trace(
    prompt_ab: int = 128,
    output_ab: int = 64,
    prompt_cd: int = 4096,
    output_cd: int = 32,
    cd_arrival: float = 0.25,
) -> list[Request]:
    """A, B decoding from t≈0; long-prompt C, D arrive at ``cd_arrival``."""
    a = Request(prompt_len=prompt_ab, output_len=output_ab, arrival_time=0.0)
    b = Request(prompt_len=prompt_ab, output_len=output_ab, arrival_time=0.0)
    c = Request(prompt_len=prompt_cd, output_len=output_cd, arrival_time=cd_arrival)
    d = Request(prompt_len=prompt_cd, output_len=output_cd, arrival_time=cd_arrival)
    return [a, b, c, d]


def run_schedule_traces(
    deployment: Deployment | None = None,
    token_budget: int = 512,
) -> list[ScheduleTrace]:
    """Execute the A/B/C/D example under all four policies."""
    deployment = deployment or mistral_deployment()
    base_trace = make_abcd_trace()
    traces = []
    for kind in SCHEDULERS:
        requests = clone_requests(base_trace)
        names = {r.request_id: label for r, label in zip(requests, "ABCD")}
        config = ServingConfig(scheduler=kind, token_budget=token_budget)
        engine = build_engine(deployment, config)

        compositions: list[str] = []
        original_schedule = engine.scheduler.schedule

        def recording_schedule(now, _orig=original_schedule, _names=names,
                               _requests=engine.arrays.requests):
            batch = _orig(now)
            if batch is not None:
                def label(row: int) -> str:
                    return _names.get(_requests[row].request_id, "?")

                parts = [f"{label(row)}d1" for row in batch.decode_rows.tolist()]
                parts.extend(
                    f"{label(row)}p{chunk}"
                    for row, chunk in zip(batch.p_rows, batch.p_chunk)
                )
                compositions.append("+".join(batch.in_order(parts)))
            return batch

        engine.scheduler.schedule = recording_schedule  # type: ignore[method-assign]
        engine.run(requests)

        a, b, c, _d = requests
        worst_gap = max(
            max(a.tbt_samples, default=0.0), max(b.tbt_samples, default=0.0)
        )
        traces.append(
            ScheduleTrace(
                scheduler=kind,
                iterations=compositions,
                worst_decode_gap=worst_gap,
                first_token_c=c.ttft if c.ttft is not None else float("inf"),
            )
        )
    return traces
