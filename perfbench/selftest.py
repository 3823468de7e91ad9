"""Self-test of the benchmark's output checks.

Runs each check in ``checks.py`` on a true result from a small grid, then on
a corrupted copy, and fails unless the true result passes and every
corruption is rejected.  Takes a few seconds::

    python3 perfbench/selftest.py
"""

import dataclasses
import random
import sys

from run import _import_library


def main() -> int:
    _import_library()
    import numpy as np
    from reliroute import harness, pathsearch, policy, potentials, synth

    import checks

    graph = synth.synthesize_distributions(synth.grid_topology(6), seed=20250808)
    source, dest = graph.node_ids[0], graph.node_ids[-1]
    let = harness.let_path(graph, source, dest)
    budget = pathsearch.path_distribution(graph, let.edges).percentile(0.5)
    table = policy.compute_policy(graph, dest, budget)
    report = pathsearch.sota_path_report(graph, table, source, T=budget, k=3)
    best = report.paths[0]
    bound = float(table.u[graph.node_index(source), budget])
    floor = checks.path_reliability(graph, let.edges, budget)
    d = graph.node_index(dest)
    cells = [(i, t) for i in range(graph.num_nodes) for t in range(0, budget + 1, 7)]
    sources = [graph.node_index(source)]
    flags = potentials.compute_realizability(graph, table, [source], budget, initial_budgets="any")

    def path_check(found):
        return checks.check_path(graph, source, dest, found, budget, bound, floor)

    def dropped_edge(found):
        cut = len(found.edges) // 2
        return dataclasses.replace(
            found, nodes=found.nodes[:cut] + found.nodes[cut + 1:],
            edges=found.edges[:cut] + found.edges[cut + 1:])

    def wrong_cell(tab):
        rng = random.Random(0)
        u = tab.u.copy()
        while True:
            i, t = rng.choice(cells)
            if i != d and 0.0 < u[i, t] < 1.0:
                u[i, t] += 1e-9
                return dataclasses.replace(tab, u=u)

    def flipped_flag(fl):
        reached = fl.reached.copy()
        i, t = np.argwhere(~reached)[len(np.argwhere(~reached)) // 2]
        reached[i, t] = True
        return dataclasses.replace(fl, reached=reached)

    cases = [
        ("path and reliability", best, path_check,
         lambda f: dataclasses.replace(f, reliability=f.reliability + 1e-6), "perturbed reliability"),
        ("path shape", best, path_check, dropped_edge, "path with a dropped edge"),
        ("k-best ranking", report.paths, checks.check_ranking,
         lambda ps: ps[::-1], "reversed ranking"),
        ("Bellman fixed point", table,
         lambda tab: checks.check_bellman(graph, tab, d, cells), wrong_cell, "wrong u cell"),
        ("realizability", flags,
         lambda fl: checks.check_realizability(graph, table, sources, budget, fl),
         flipped_flag, "flipped realizability flag"),
    ]
    ok = True
    for name, truth, check, corrupt, corruption in cases:
        clean = check(truth)
        caught = check(corrupt(truth))
        passed = not clean and bool(caught)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: true result "
              f"{'accepted' if not clean else 'REJECTED: ' + clean[0]}; {corruption} "
              f"{'rejected: ' + caught[0] if caught else 'NOT REJECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
