"""Command-line interface.

Subcommands mirror the library pipeline: ``synth`` writes a synthetic network
file, ``policy`` solves and optionally exports an arrival-probability table,
``path`` answers a most-reliable-path query as JSON, ``preprocess`` builds an
activation-potential archive, and ``bench`` runs the timing study.
Budgets and horizons are given in time bins (seconds when dt = 1).
"""

from __future__ import annotations

import json
import sys
import time

import click

from .errors import RelirouteError
from .harness import BenchmarkConfig, generate_instances, run_benchmark, summarize
from .network import grid_partition, load_graph, save_graph
from .pathsearch import sota_path_report
from .policy import compute_policy
from .potentials import MODES, build_archive, load_archive, prune, save_archive
from .synth import DEFAULT_MODEL, grid_topology, synthesize_distributions


class _Main(click.Group):
    """Reports a ``ValueError`` (a bad budget, an unknown node, a malformed
    graph, a mismatched archive, ...), an ``OSError`` (a file that cannot be
    read or written) or any other package error (a search that outgrew its
    queue limit) from any subcommand as one ``Error:`` line, not a
    traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, RelirouteError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Reliability routing on stochastic networks."""


@main.command()
@click.option("--grid", "grid_k", type=int, required=True, help="Lattice dimension (k x k).")
@click.option("--dt", type=float, default=1.0, show_default=True)
@click.option("--spacing", type=float, default=100.0, show_default=True, help="Edge length in metres.")
@click.option("--speed", type=float, default=10.0, show_default=True, help="Speed limit in m/s.")
@click.option("--cov", type=float, default=DEFAULT_MODEL["cov"], show_default=True,
              help="Delay coefficient of variation.")
@click.option("--delay-factor", type=float, default=DEFAULT_MODEL["delay_factor"], show_default=True,
              help="Mean delay as a fraction of free-flow time.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def synth(grid_k, dt, spacing, speed, cov, delay_factor, seed, out_path):
    """Generate a synthetic grid network with gamma-delay travel times."""
    topology = grid_topology(grid_k, spacing=spacing, speed=speed, dt=dt)
    graph = synthesize_distributions(topology, {"cov": cov, "delay_factor": delay_factor}, seed=seed)
    save_graph(graph, out_path)
    click.echo(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {out_path}")


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--dest", required=True)
@click.option("--budget", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Export the table as compressed npz.")
def policy(graph_path, dest, budget, out_path):
    """Compute the arrival-probability policy toward a destination."""
    graph = load_graph(graph_path)
    t0 = time.perf_counter()
    table = compute_policy(graph, _coerce_id(graph, dest), budget)
    wall = time.perf_counter() - t0
    if out_path:
        table.save(out_path)
    summary = {
        "dest": table.dest,
        "budget": budget,
        "dt": graph.dt,
        "wall_time": wall,
        "nodes_with_positive_u": int((table.u[:, budget] > 0).sum()),
    }
    if graph.num_nodes <= 64:
        summary["u_at_budget"] = {
            str(nid): float(table.u[i, budget]) for i, nid in enumerate(graph.node_ids)
        }
    click.echo(json.dumps(summary, indent=1))


def _coerce_id(graph, raw):
    """CLI node arguments arrive as strings; match integer ids too."""
    if graph.has_node(raw):
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        return raw
    return as_int if graph.has_node(as_int) else raw


@main.command(name="path")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--source", required=True)
@click.option("--dest", required=True)
@click.option("--budget", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True, help="Number of ranked paths.")
@click.option("--potentials", "pot_path", type=click.Path(exists=True), default=None,
              help="Activation-potential archive for pruning.")
def path_cmd(graph_path, source, dest, budget, k, pot_path):
    """Find the most reliable path(s) within a time budget."""
    graph = load_graph(graph_path)
    source, dest = _coerce_id(graph, source), _coerce_id(graph, dest)
    mask = None
    if pot_path:
        archive = load_archive(pot_path)
        archive["partition"].check_graph(graph)
        table = archive["tables"][archive["partition"].region_of_index(graph.node_index(dest))]
        mask = prune(graph, table, budget)
        if table.sources is not None and source not in table.sources:
            raise ValueError(f"archive was built for sources {list(table.sources)}, not {source!r}")
        if table.mode == "path" and k > 1:
            raise ValueError("archive is path-mode and keeps only the best path; --k must be 1")
    t0 = time.perf_counter()
    table = compute_policy(graph, dest, budget, edge_mask=mask)
    # The mask prunes the solve only: the search needs every edge (see prune).
    report = sota_path_report(graph, table, source, T=budget, k=k)
    wall = time.perf_counter() - t0
    best = report.paths[0] if report.paths else None
    out = {
        "source": source,
        "dest": dest,
        "budget": budget,
        "status": report.status,
        "path": list(best.nodes) if best else [],
        "edges": [graph.edge_label(e) for e in best.edges] if best else [],
        "reliability": best.reliability if best else 0.0,
        "popped_count": report.popped,
        "queue_peak": report.queue_peak,
        "wall_time": wall,
    }
    if k > 1:
        out["ranked"] = [
            {"path": list(p.nodes), "edges": [graph.edge_label(e) for e in p.edges],
             "reliability": p.reliability}
            for p in report.paths
        ]
    if mask is not None:
        out["kept_edges"] = int(mask.sum())
    click.echo(json.dumps(out, indent=1))


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--grid", "grid_k", type=int, required=True, help="Partition dimension (k x k regions).")
@click.option("--horizon", type=int, required=True)
@click.option("--mode", type=click.Choice(MODES), default="policy", show_default=True)
@click.option("--source", "sources", multiple=True,
              help="Source node(s) of a path-mode archive, which answers only these.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def preprocess(graph_path, grid_k, horizon, mode, sources, out_path):
    """Build an activation-potential archive of every region for query pruning."""
    graph = load_graph(graph_path)
    partition = grid_partition(graph, grid_k)
    src = [_coerce_id(graph, s) for s in sources] or None
    archive = build_archive(graph, partition, horizon, mode=mode, sources=src)
    save_archive(archive, out_path)
    kept = {r: tab.kept_count(horizon) for r, tab in archive["tables"].items()}
    click.echo(
        json.dumps(
            {"regions": partition.region_count, "horizon": horizon, "mode": mode,
             "kept_at_horizon": kept, "out": str(out_path)},
            indent=1,
        )
    )


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--instances", "n_instances", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--grid", "grid_k", type=int, default=None, help="Region grid for pruning runs.")
@click.option("--preprocess", "pruning", type=click.Choice(MODES), default=None,
              help="Also run each instance with this pruning mode.")
@click.option("--repetitions", type=int, default=BenchmarkConfig.repetitions, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def bench(graph_path, n_instances, seed, grid_k, pruning, repetitions, out_dir):
    """Run the timing study; writes records.csv and plot data."""
    graph = load_graph(graph_path)
    instances = generate_instances(graph, n_instances, seed=seed)
    config = BenchmarkConfig(repetitions=repetitions, pruning=pruning, grid_k=grid_k)
    records = run_benchmark(graph, instances, config=config, out_dir=out_dir)
    click.echo(json.dumps(summarize(records), indent=1))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
