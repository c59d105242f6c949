"""Command-line interface: quick simulations without writing code.

Examples::

    python -m repro list
    python -m repro simulate --model yi-34b --tp 2 --dataset arxiv_summarization \
        --scheduler vllm --qps 0.4 --requests 96
    python -m repro capacity --model mistral-7b --dataset openchat_sharegpt4 \
        --scheduler sarathi --slo strict
    python -m repro budget --model llama2-70b --gpu a40-48gb --tp 4 --pp 2
    python -m repro fleet --replicas 4 --qps 4.0 --fault-rate 0.02 \
        --router slo-aware --max-queue-depth 64
    python -m repro reproduce fig10 --scale smoke --jobs 4 --run-dir .runs/fig10
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Deployment, ServingConfig, simulate
from repro.experiments.capacity_runner import serving_config_for
from repro.experiments.common import Scale
from repro.hardware.catalog import ETHERNET_100G, get_gpu
from repro.metrics.slo import derived_slo
from repro.models.catalog import get_model, list_models
from repro.parallel.config import ParallelConfig
from repro.perf.profiler import (
    compute_token_budget,
    derive_slo,
    profile_token_budgets,
    reference_decode_time,
)
from repro.scheduling.registry import list_specs, resolve
from repro.workload.datasets import generate_requests, get_dataset


def _add_deployment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="mistral-7b", help="model name (see `list`)")
    parser.add_argument("--gpu", default="a100-80gb", help="GPU SKU")
    parser.add_argument("--tp", type=int, default=1, help="tensor-parallel degree")
    parser.add_argument("--pp", type=int, default=1, help="pipeline-parallel degree")
    parser.add_argument(
        "--cross-node-pp",
        action="store_true",
        help="use 100G Ethernet for the pipeline link (default NVLink)",
    )


def _add_scheduler_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        default=ServingConfig.scheduler,
        metavar="NAME",
        help="any registered scheduler name (see `schedulers`; default "
        "%(default)s)",
    )


def _scheduler_from(args: argparse.Namespace) -> str:
    """Resolve the --scheduler flag against the registry now, so typos
    fail with the did-you-mean error before any simulation work starts."""
    resolve(args.scheduler)
    return args.scheduler


def _add_prefix_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prefix-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="share KV blocks of common prefixes across requests "
        "(paged memory only; default off)",
    )


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep fan-out (default 1, or REPRO_JOBS)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help="journal each completed sweep cell to a run ledger in this "
        "directory, so an interrupted run can be resumed (default off, "
        "or REPRO_RUN_DIR)",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_DIR",
        default=None,
        help="resume from a previous run's ledger in RUN_DIR, "
        "recomputing only missing cells (implies --run-dir RUN_DIR)",
    )


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    """The sweep knobs shared by capacity/fleet/leaderboard/reproduce."""
    run_dir = args.resume if args.resume is not None else args.run_dir
    return {
        "jobs": args.jobs,
        "run_dir": run_dir,
        "resume": True if args.resume is not None else None,
    }


def _deployment_from(args: argparse.Namespace) -> Deployment:
    pp_link = ETHERNET_100G if args.cross_node_pp else None
    kwargs = {"tensor_parallel": args.tp, "pipeline_parallel": args.pp}
    if pp_link is not None:
        kwargs["pp_link"] = pp_link
    return Deployment(
        model=get_model(args.model),
        gpu=get_gpu(args.gpu),
        parallel=ParallelConfig(**kwargs),
    )


def _cmd_list(args: argparse.Namespace) -> int:
    print("models:   ", ", ".join(list_models()))
    print("datasets: ", "openchat_sharegpt4, arxiv_summarization")
    print("schedulers:", ", ".join(spec.name for spec in list_specs()))
    return 0


def _cmd_schedulers(args: argparse.Namespace) -> int:
    print("registered schedulers (repro.scheduling.registry):")
    for spec in list_specs():
        print(f"  {spec.name:22s} {spec.memory_family:12s} {spec.description}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    deployment = _deployment_from(args)
    scheduler = _scheduler_from(args)
    config = ServingConfig(
        scheduler=scheduler,
        token_budget=args.token_budget,
        prefix_cache=args.prefix_cache,
    )
    if args.workload == "conversation":
        from repro.workload.conversation import ConversationSpec, simulate_conversations

        spec = ConversationSpec(
            num_conversations=args.requests, arrival_qps=args.qps
        )
        result, metrics = simulate_conversations(
            deployment, config, spec, seed=args.seed
        )
        workload_line = (
            f"conversations, {args.requests} conversations @ {args.qps} qps "
            f"({len(result.requests)} rounds)"
        )
    else:
        dataset = get_dataset(args.dataset)
        trace = generate_requests(
            dataset, num_requests=args.requests, qps=args.qps, seed=args.seed
        )
        result, metrics = simulate(deployment, config, trace)
        workload_line = f"{dataset.name}, {args.requests} requests @ {args.qps} qps"
    print(f"deployment: {deployment.label}")
    print(f"scheduler:  {scheduler} (budget {args.token_budget})")
    if result.engine_stats is not None:
        stats = result.engine_stats
        print(
            f"engine:     {stats.kind} ({stats.num_events} events, "
            f"{stats.num_batches} batches, {stats.wall_time_s:.2f}s wall)"
        )
    print(f"workload:   {workload_line}")
    if result.cache_stats is not None:
        stats = result.cache_stats
        print(
            f"perf cache: {stats.hits}/{stats.hits + stats.misses} component hits "
            f"({stats.hit_rate:.0%}), {stats.work_hit_rate:.0%} attention-work hits"
        )
    if result.prefix_stats is not None:
        stats = result.prefix_stats
        print(
            f"prefix cache: {stats.hits}/{stats.lookups} lookups hit "
            f"({stats.hit_rate:.0%}), {stats.hit_tokens} prefill tokens reused, "
            f"{stats.cow_copies} COW copies, {stats.evictions} evictions"
        )
    print()
    print(f"median TTFT          {metrics.median_ttft:8.3f} s")
    print(f"P99 TBT              {metrics.p99_tbt:8.3f} s")
    print(f"max TBT              {metrics.max_tbt:8.3f} s")
    print(f"median sched delay   {metrics.median_scheduling_delay:8.3f} s")
    print(f"throughput           {metrics.throughput_tokens_per_s:8.0f} tok/s")
    print(f"preemptions          {metrics.num_preemptions:8d}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.cluster.fleet import (
        AdmissionPolicy,
        FaultSchedule,
        FleetConfig,
        HealthConfig,
        partition_domains,
        simulate_fleet,
    )
    from repro.experiments.fleet import DEFAULT_TTFT_DEADLINE, router_named
    from repro.metrics.goodput import RequestSLO, fleet_goodput
    from repro.metrics.recovery import recovery_report
    from repro.metrics.slo import derived_slo

    if args.sweep:
        from repro.experiments.common import scale_from_env
        from repro.experiments.registry import reproduce_figure

        text, ok = reproduce_figure("fleet", scale_from_env(), **_sweep_kwargs(args))
        print(text)
        return 0 if ok else 1

    deployment = _deployment_from(args)
    scheduler = _scheduler_from(args)
    dataset = get_dataset(args.dataset)
    trace = generate_requests(
        dataset, num_requests=args.requests, qps=args.qps, seed=args.seed
    )
    config = ServingConfig(scheduler=scheduler, token_budget=args.token_budget)
    slo = derived_slo(deployment.execution_model(), strict=False)
    horizon = max(r.arrival_time for r in trace) + 30.0
    domains = ()
    if args.fault_domains > 0:
        domains = partition_domains(args.replicas, args.fault_domains)
        faults = FaultSchedule.correlated(
            domains,
            rate=args.fault_rate,
            mean_downtime=args.mean_downtime,
            horizon=horizon,
            seed=args.fault_seed,
            kind=args.fault_kind,
            severity=args.fault_severity,
        )
    else:
        faults = FaultSchedule.poisson(
            args.replicas,
            rate=args.fault_rate,
            mean_downtime=args.mean_downtime,
            horizon=horizon,
            seed=args.fault_seed,
            kind=args.fault_kind,
            severity=args.fault_severity,
        )
    brownout = None
    if args.brownout:
        from repro.experiments.resilience import default_brownout

        brownout = default_brownout(slo.p99_tbt, args.token_budget)
    fleet_config = FleetConfig(
        num_replicas=args.replicas,
        faults=faults,
        domains=domains,
        max_queue_depth=args.max_queue_depth,
        admission=AdmissionPolicy(args.admission),
        health=HealthConfig() if args.health else None,
        brownout=brownout,
    )
    result, metrics = simulate_fleet(
        deployment,
        config,
        trace,
        fleet_config,
        router=router_named(args.router, args.replicas, slo.p99_tbt),
    )
    report = fleet_goodput(
        result, RequestSLO(ttft_deadline=DEFAULT_TTFT_DEADLINE, tbt_deadline=slo.p99_tbt)
    )
    print(f"deployment: {deployment.label} × {args.replicas} replicas")
    print(f"scheduler:  {scheduler} (budget {args.token_budget}), "
          f"router {args.router}")
    print(f"workload:   {dataset.name}, {args.requests} requests @ {args.qps} qps")
    unit = "domain" if args.fault_domains > 0 else "replica"
    print(f"faults:     {len(fleet_config.faults.faults)} scheduled "
          f"({args.fault_kind}, {args.fault_rate}/{unit}-s, "
          f"mean downtime {args.mean_downtime}s)")
    knobs = [k for k, on in (("health", args.health), ("brownout", args.brownout)) if on]
    if knobs:
        print(f"control:    {' + '.join(knobs)}")
    print()
    print(f"finished / offered   {report.num_finished:5d} / {report.num_offered}")
    print(f"shed (overload)      {report.num_shed:5d}")
    print(f"failovers            {report.num_failovers:5d}")
    print(f"prefill restarts     {report.num_restarts:5d}")
    print(f"rejections           {result.num_rejections:5d}")
    print(f"SLO attainment       {report.attainment:8.1%}")
    print(f"goodput              {report.goodput_rps:8.2f} req/s")
    print(f"median TTFT          {metrics.median_ttft:8.3f} s")
    print(f"P99 TBT              {metrics.p99_tbt:8.3f} s")
    recovery = recovery_report(result, slo_tbt=slo.p99_tbt)
    if recovery.num_disruptions:
        mttr = recovery.mean_recovery_time
        print(f"disruptions          {recovery.num_disruptions:5d} "
              f"({recovery.num_censored} unrecovered at end of run)")
        print(f"mean time-to-SLO     "
              f"{'   n/a' if mttr is None else f'{mttr:8.3f} s'}")
    drains = sum(1 for e in result.events if e.kind == "drain_start")
    brownouts = sum(1 for e in result.events if e.kind == "brownout_enter")
    if drains:
        print(f"health drains        {drains:5d}")
    if brownouts:
        print(f"brownout episodes    {brownouts:5d}")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.experiments.capacity_runner import CapacityCellSpec, run_capacity_cells

    deployment = _deployment_from(args)
    dataset = get_dataset(args.dataset)
    strict = args.slo == "strict"
    slo = derived_slo(deployment.execution_model(), strict=strict)
    scheduler = _scheduler_from(args)
    config = serving_config_for(deployment, scheduler, strict)
    scale = Scale(
        num_requests=args.requests,
        capacity_rel_tol=0.15,
        capacity_max_probes=args.probes,
    )
    print(f"searching capacity for {deployment.label} / {scheduler} on "
          f"{dataset.name} under {slo.name} SLO (P99 TBT <= {slo.p99_tbt:.3f} s)…")
    spec = CapacityCellSpec(
        deployment=deployment,
        scheduler=scheduler,
        dataset=dataset,
        scale=scale,
        config=config,
        slo=slo,
        qps_hint=args.qps_hint,
    )
    [outcome] = run_capacity_cells([spec], **_sweep_kwargs(args))
    cell = outcome.cell
    print(
        f"capacity: {cell.capacity_qps:.2f} qps "
        f"({cell.num_probes} probes: {outcome.num_bracket_probes} bracket + "
        f"{outcome.num_bisect_probes} bisect; {outcome.seconds:.1f}s)"
    )
    if outcome.resumed:
        print("result replayed from the run ledger (0 probes recomputed)")
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.experiments.common import DEFAULT, FULL, SMOKE, format_table
    from repro.experiments.leaderboard import leaderboard_table, run_leaderboard
    from repro.runtime import sweep_env

    schedulers = None
    if args.schedulers:
        schedulers = tuple(
            name.strip() for name in args.schedulers.split(",") if name.strip()
        )
        for name in schedulers:
            resolve(name)  # fail with did-you-mean before any work starts
    scale = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}[args.scale]
    with sweep_env(**_sweep_kwargs(args)):
        rows = run_leaderboard(
            scale,
            deployment=_deployment_from(args),
            schedulers=schedulers,
            include_capacity=not args.no_capacity,
        )
    headers, table = leaderboard_table(rows)
    print("scheduler leaderboard — ranked by mean latency at saturation")
    print()
    print(format_table(headers, table))
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    deployment = _deployment_from(args)
    exec_model = deployment.execution_model()
    print(f"deployment: {deployment.label}")
    print(f"reference decode TBT: {reference_decode_time(exec_model) * 1e3:.1f} ms")
    for strict in (True, False):
        slo = derive_slo(exec_model, strict)
        budget = compute_token_budget(exec_model, slo)
        name = "strict" if strict else "relaxed"
        print(f"{name:8s} SLO {slo * 1e3:7.1f} ms -> token budget {budget}")
    if args.profile:
        print("\nbudget profile:")
        slo = derive_slo(exec_model, strict=True)
        for p in profile_token_budgets(exec_model, slo):
            marker = "ok" if p.meets_slo else "violates strict SLO"
            print(f"  {p.token_budget:6d} tokens -> {p.iteration_time * 1e3:8.1f} ms  {marker}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.reporting import compare_schedulers, render_markdown

    deployment = _deployment_from(args)
    dataset = get_dataset(args.dataset)
    trace = generate_requests(
        dataset, num_requests=args.requests, qps=args.qps, seed=args.seed
    )
    rows = compare_schedulers(deployment, trace, token_budget=args.token_budget)
    title = (
        f"{deployment.label} on {dataset.name} "
        f"({args.requests} requests @ {args.qps} qps)"
    )
    print(render_markdown(rows, title=title))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.common import DEFAULT, FULL, SMOKE
    from repro.experiments.registry import list_figures, reproduce_figure

    if args.figure is None:
        print("reproducible figures/tables:")
        for entry in list_figures():
            tag = " (capacity search — slow)" if entry.expensive else ""
            print(f"  {entry.figure_id:8s} {entry.title}{tag}")
        return 0
    scale = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}[args.scale]
    text, ok = reproduce_figure(args.figure, scale, **_sweep_kwargs(args))
    print(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sarathi-Serve reproduction: simulate LLM serving schedulers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models, datasets and schedulers").set_defaults(
        func=_cmd_list
    )

    sub.add_parser(
        "schedulers",
        help="list registered schedulers: memory family, description",
    ).set_defaults(func=_cmd_schedulers)

    sim = sub.add_parser("simulate", help="run one trace and print latency metrics")
    _add_deployment_args(sim)
    sim.add_argument("--dataset", default="openchat_sharegpt4")
    sim.add_argument("--workload", default="trace",
                     choices=["trace", "conversation"],
                     help="open-loop dataset trace, or closed-loop multi-round "
                     "conversations (--requests counts conversations)")
    _add_scheduler_arg(sim)
    sim.add_argument("--qps", type=float, default=1.0)
    sim.add_argument("--requests", type=int, default=128)
    sim.add_argument("--token-budget", type=int, default=512)
    sim.add_argument("--seed", type=int, default=0)
    _add_prefix_cache_arg(sim)
    sim.set_defaults(func=_cmd_simulate)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a multi-replica fleet with faults and overload control",
    )
    _add_deployment_args(fleet)
    fleet.add_argument("--replicas", type=int, default=2, help="fleet size")
    fleet.add_argument("--dataset", default="openchat_sharegpt4")
    _add_scheduler_arg(fleet)
    fleet.add_argument("--qps", type=float, default=2.0, help="aggregate arrival rate")
    fleet.add_argument("--requests", type=int, default=128)
    fleet.add_argument("--token-budget", type=int, default=512)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--router",
        default="least-outstanding",
        choices=["round-robin", "least-outstanding", "slo-aware"],
    )
    fleet.add_argument("--fault-rate", type=float, default=0.0,
                       help="faults per replica-second (Poisson), or per "
                       "domain-second with --fault-domains")
    fleet.add_argument("--fault-kind", default="crash",
                       choices=["crash", "slowdown", "capacity_loss"],
                       help="what a fault does: kill the replica, run it at a "
                       "perf multiplier, or shrink its KV pool")
    fleet.add_argument("--fault-severity", type=float, default=None,
                       help="slowdown multiplier (>1) or KV fraction lost "
                       "(0..1); defaults per kind")
    fleet.add_argument("--mean-downtime", type=float, default=5.0,
                       help="mean seconds a fault window stays open")
    fleet.add_argument("--fault-seed", type=int, default=0)
    fleet.add_argument("--fault-domains", type=int, default=0,
                       help="partition replicas into N failure domains and "
                       "draw correlated domain-level faults (0 = independent "
                       "per-replica faults)")
    fleet.add_argument("--brownout", action="store_true",
                       help="enable the SLO-aware brownout controller "
                       "(degrades chunk budget/context/lowest tenant under "
                       "TBT pressure)")
    fleet.add_argument("--health", action="store_true",
                       help="enable the health monitor (drains and restarts "
                       "replicas whose TBT inflates vs the fleet median)")
    fleet.add_argument("--max-queue-depth", type=int, default=None,
                       help="per-replica admission bound (default unbounded)")
    fleet.add_argument("--admission", default="reject",
                       choices=["reject", "shed", "spill"],
                       help="what happens when the routed replica's queue is full")
    fleet.add_argument("--sweep", action="store_true",
                       help="run the replicas × faults × load sweep instead")
    _add_sweep_args(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    cap = sub.add_parser("capacity", help="search the max sustainable QPS under an SLO")
    _add_deployment_args(cap)
    cap.add_argument("--dataset", default="openchat_sharegpt4")
    _add_scheduler_arg(cap)
    cap.add_argument("--slo", choices=["strict", "relaxed"], default="strict")
    cap.add_argument("--requests", type=int, default=128)
    cap.add_argument("--probes", type=int, default=12)
    cap.add_argument("--qps-hint", type=float, default=1.0)
    _add_sweep_args(cap)
    cap.set_defaults(func=_cmd_capacity)

    board = sub.add_parser(
        "leaderboard",
        help="rank all registered schedulers across the workload suite",
    )
    _add_deployment_args(board)
    board.add_argument(
        "--scale", choices=["smoke", "default", "full"], default="smoke"
    )
    board.add_argument(
        "--schedulers",
        default=None,
        metavar="NAMES",
        help="comma-separated registry names to rank (default: all)",
    )
    board.add_argument(
        "--no-capacity",
        action="store_true",
        help="skip the per-scheduler strict-SLO capacity search (much faster)",
    )
    _add_sweep_args(board)
    board.set_defaults(func=_cmd_leaderboard)

    budget = sub.add_parser("budget", help="derive SLOs and token budgets (§4.3)")
    _add_deployment_args(budget)
    budget.add_argument("--profile", action="store_true", help="print the full profile")
    budget.set_defaults(func=_cmd_budget)

    compare = sub.add_parser(
        "compare", help="run all four schedulers on one trace, print a table"
    )
    _add_deployment_args(compare)
    compare.add_argument("--dataset", default="openchat_sharegpt4")
    compare.add_argument("--qps", type=float, default=1.0)
    compare.add_argument("--requests", type=int, default=96)
    compare.add_argument("--token-budget", type=int, default=512)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    reproduce = sub.add_parser(
        "reproduce",
        help="re-run a paper figure/table, print its rows and check its claims "
        "(exit 1 if one fails)",
    )
    reproduce.add_argument(
        "figure",
        nargs="?",
        default=None,
        help="figure id (e.g. fig14, table4); omit to list all",
    )
    reproduce.add_argument(
        "--scale", choices=["smoke", "default", "full"], default="smoke"
    )
    _add_sweep_args(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C or SIGTERM: no partial table; a --run-dir ledger keeps
        # the finished cells for --resume.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
