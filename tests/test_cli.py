"""End-to-end command-line checks."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import reliroute as rr
from reliroute import cli
from reliroute.cli import main

from conftest import FIXTURE_PATH, dense_list_form, edit_table_file


@pytest.fixture()
def runner():
    return CliRunner()


def test_path_query_on_fixture(runner):
    result = runner.invoke(
        main,
        ["path", "--graph", str(FIXTURE_PATH), "--source", "v1", "--dest", "v3",
         "--budget", "4", "--k", "3"],
    )
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["path"] == ["v1", "v2", "v3"]
    assert out["edges"] == ["e2", "e4"]
    assert out["reliability"] == pytest.approx(0.65, abs=1e-12)
    assert out["status"] == "found"
    assert out["popped_count"] >= 1 and out["queue_peak"] >= 1
    assert out["wall_time"] >= 0.0
    assert [r["reliability"] for r in out["ranked"]] == pytest.approx([0.65, 0.60, 0.45])


def test_policy_summary_on_fixture(runner, tmp_path):
    out_file = tmp_path / "policy.npz"
    result = runner.invoke(
        main,
        ["policy", "--graph", str(FIXTURE_PATH), "--dest", "v3", "--budget", "4",
         "--out", str(out_file)],
    )
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert out["u_at_budget"]["v1"] == pytest.approx(0.65)
    assert out["u_at_budget"]["v3"] == 1.0
    assert out_file.exists()


def test_policy_out_writes_the_name_given(runner, tmp_path):
    out_file = tmp_path / "table.bin"
    result = runner.invoke(
        main,
        ["policy", "--graph", str(FIXTURE_PATH), "--dest", "v3", "--budget", "4",
         "--out", str(out_file)],
    )
    assert result.exit_code == 0, result.output
    assert list(tmp_path.iterdir()) == [out_file]
    assert rr.PolicyTable.load(out_file).horizon == 4


def test_full_pipeline_on_synthetic_grid(runner, tmp_path):
    graph_file = tmp_path / "grid.json"
    result = runner.invoke(
        main, ["synth", "--grid", "4", "--seed", "7", "--out", str(graph_file)]
    )
    assert result.exit_code == 0, result.output
    assert graph_file.exists()

    pot_file = tmp_path / "potentials.json"
    result = runner.invoke(
        main,
        ["preprocess", "--graph", str(graph_file), "--grid", "2", "--horizon", "120",
         "--out", str(pot_file)],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["regions"] >= 1

    result = runner.invoke(
        main,
        ["path", "--graph", str(graph_file), "--source", "n00_00", "--dest", "n03_03",
         "--budget", "110"],
    )
    assert result.exit_code == 0, result.output
    plain = json.loads(result.output)

    result = runner.invoke(
        main,
        ["path", "--graph", str(graph_file), "--source", "n00_00", "--dest", "n03_03",
         "--budget", "110", "--potentials", str(pot_file)],
    )
    assert result.exit_code == 0, result.output
    pruned = json.loads(result.output)
    assert pruned["reliability"] == pytest.approx(plain["reliability"], abs=1e-12)
    assert pruned["kept_edges"] <= 48

    bench_dir = tmp_path / "bench"
    result = runner.invoke(
        main,
        ["bench", "--graph", str(graph_file), "--instances", "3", "--seed", "1",
         "--repetitions", "1", "--out", str(bench_dir)],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["completed"] == 3
    assert (bench_dir / "records.csv").exists()


def test_path_answers_alike_from_mass_f64_and_mass_list_documents(runner, tmp_path):
    graph_file, list_file = tmp_path / "net.json", tmp_path / "net-list.json"
    result = runner.invoke(main, ["synth", "--grid", "6", "--seed", "7", "--out", str(graph_file)])
    assert result.exit_code == 0, result.output
    doc = json.loads(graph_file.read_text())
    assert all("mass_f64" in e["dist"] for e in doc["edges"])
    list_file.write_text(json.dumps(dense_list_form(doc)))
    answers = []
    for path in (graph_file, list_file):
        result = runner.invoke(
            main,
            ["path", "--graph", str(path), "--source", "n00_00", "--dest", "n05_05", "--budget", "160"],
        )
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        out.pop("wall_time")
        answers.append(out)
    assert answers[0] == answers[1]


def test_bench_with_pruning(runner, tmp_path):
    graph_file = tmp_path / "grid.json"
    runner.invoke(main, ["synth", "--grid", "4", "--seed", "2", "--out", str(graph_file)])
    bench_dir = tmp_path / "bench"
    result = runner.invoke(
        main,
        ["bench", "--graph", str(graph_file), "--instances", "2", "--seed", "5",
         "--repetitions", "1", "--grid", "2", "--preprocess", "path",
         "--out", str(bench_dir)],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["completed"] == 2
    rows = (bench_dir / "records.csv").read_text().splitlines()
    assert len(rows) == 3  # header + 2 instances
    assert "path" in rows[1].split(",")


def test_path_mode_preprocess_requires_source(runner, tmp_path):
    result = runner.invoke(
        main,
        ["preprocess", "--graph", str(FIXTURE_PATH), "--grid", "2", "--horizon", "6",
         "--mode", "path", "--out", str(tmp_path / "x.json")],
    )
    assert result.exit_code != 0
    assert "source" in result.output


def test_invalid_graph_is_reported(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dt": 1.0, "nodes": [], "edges": []}))
    result = runner.invoke(
        main, ["policy", "--graph", str(bad), "--dest", "x", "--budget", "4"]
    )
    assert result.exit_code != 0
    assert "no nodes" in result.output


@pytest.mark.parametrize(
    "graph_args, budget, message",
    [
        (["--grid", "4"], "200", "budget 200 exceeds the preprocessed horizon 120"),
        (["--grid", "5"], "100", "assigns 16 nodes to regions but the graph has 25"),
        (["--grid", "4", "--dt", "0.5"], "100", "potential table was built for another graph"),
    ],
)
def test_path_rejects_mismatched_potentials(runner, tmp_path, graph_args, budget, message):
    built, queried = tmp_path / "built.json", tmp_path / "queried.json"
    runner.invoke(main, ["synth", "--grid", "4", "--seed", "7", "--out", str(built)])
    runner.invoke(main, ["synth", *graph_args, "--seed", "7", "--out", str(queried)])
    pot_file = tmp_path / "potentials.json"
    result = runner.invoke(
        main,
        ["preprocess", "--graph", str(built), "--grid", "2", "--horizon", "120", "--out", str(pot_file)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["path", "--graph", str(queried), "--source", "n00_00", "--dest", "n03_03",
         "--budget", budget, "--potentials", str(pot_file)],
    )
    assert result.exit_code != 0
    assert message in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.fixture(scope="module")
def grid6_archives(tmp_path_factory):
    """The 6x6 grid of seed 7, that of seed 8 with cov 2, and archives at
    horizon 200 built on the first: policy mode and path mode from ``n00_00``."""
    folder, runner = tmp_path_factory.mktemp("grid6"), CliRunner()
    files = {"net": folder / "net.json", "net8": folder / "net8.json"}
    for name, args in (("net", ["--seed", "7"]), ("net8", ["--seed", "8", "--cov", "2"])):
        result = runner.invoke(main, ["synth", "--grid", "6", *args, "--out", str(files[name])])
        assert result.exit_code == 0, result.output
    for name, args in (("policy", []), ("path", ["--mode", "path", "--source", "n00_00"])):
        files[name] = folder / f"pot-{name}.npz"
        result = runner.invoke(main, ["preprocess", "--graph", str(files["net"]), "--grid", "2",
                                      "--horizon", "200", *args, "--out", str(files[name])])
        assert result.exit_code == 0, result.output
    return files


def _error_line(result):
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: ")
    return line


def test_integer_node_ids_match_their_digits_only(runner, tmp_path):
    doc = {"dt": 1.0, "nodes": [{"id": 1, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}],
           "edges": [{"from": 1, "to": 2, "dist": {"pmf": [[1, 1.0]]}}]}
    target = tmp_path / "ints.json"
    target.write_text(json.dumps(doc))
    args = ["path", "--graph", str(target), "--dest", "2", "--budget", "4", "--source"]
    result = runner.invoke(main, [*args, "1"])
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    assert (out["status"], out["path"], out["reliability"]) == ("found", [1, 2], 1.0)
    assert _error_line(runner.invoke(main, [*args, "1.0"])) == "Error: unknown node id '1.0'"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("node", [1], "node #0: unhashable type: 'list'"),
        ("node", {}, "node #0: unhashable type: 'dict'"),
        ("from", ["a"], "edge #0 (['a']->'b'): endpoint is not a declared node"),
        ("to", {"id": "b"}, "edge #0 ('a'->{'id': 'b'}): endpoint is not a declared node"),
    ],
)
def test_unhashable_ids_are_reported_as_one_error_line(runner, tmp_path, field, value, message):
    doc = {"dt": 1.0, "nodes": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
           "edges": [{"from": "a", "to": "b", "dist": {"pmf": [[1, 1.0]]}}]}
    if field == "node":
        doc["nodes"][0]["id"] = value
    else:
        doc["edges"][0][field] = value
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    result = runner.invoke(main, ["path", "--graph", str(target), "--source", "a", "--dest", "b", "--budget", "4"])
    assert _error_line(result) == f"Error: {message}"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--delay-factor", "inf"], "mean delay must be finite, got inf"),
        (["--delay-factor", "nan"], "mean delay must be finite, got nan"),
        (["--cov", "inf"], "coefficient of variation must be finite, got inf"),
        (["--cov", "nan"], "coefficient of variation must be finite, got nan"),
        (["--spacing", "inf"], "edge #0: free-flow time must be finite, got inf"),
        (["--spacing", "nan"], "edge #0: free-flow time must be positive, got nan"),
        (["--dt", "inf"], "edge #0: time step must be finite, got inf"),
        (["--dt", "nan"], "edge #0: time step must be positive, got nan"),
        (["--graph", "inf-dt.json"], "time step must be finite, got inf"),
    ],
)
def test_non_finite_values_are_refused_by_name(runner, args, message):
    with runner.isolated_filesystem():
        if args[0] == "--graph":
            Path(args[1]).write_text('{"dt": Infinity, "nodes": [{"id": "a", "x": 0, "y": 0}], "edges": []}')
            result = runner.invoke(main, ["path", *args, "--source", "a", "--dest", "a", "--budget", "4"])
        else:
            result = runner.invoke(main, ["synth", "--grid", "2", *args, "--out", "net.json"])
    assert _error_line(result) == f"Error: {message}"


@pytest.mark.parametrize("kind", ["policy", "path"])
def test_path_refuses_archive_of_another_graph(runner, grid6_archives, kind):
    result = runner.invoke(
        main,
        ["path", "--graph", str(grid6_archives["net8"]), "--source", "n00_00", "--dest", "n05_05",
         "--budget", "100", "--potentials", str(grid6_archives[kind])],
    )
    assert _error_line(result) == (
        "Error: potential table was built for another graph: its graph digest differs from the graph's"
    )


@pytest.mark.parametrize("kind, source, budget", [("path", "n02_03", "160"), ("path", "n05_00", "160")])
def test_path_refuses_source_outside_the_tables_sources(runner, grid6_archives, kind, source, budget):
    result = runner.invoke(
        main,
        ["path", "--graph", str(grid6_archives["net"]), "--source", source, "--dest", "n05_05",
         "--budget", budget, "--potentials", str(grid6_archives[kind])],
    )
    assert _error_line(result) == f"Error: archive was built for sources ['n00_00'], not '{source}'"


def test_synth_defaults_are_the_librarys(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--grid", "6", "--seed", "7", "--out", str(tmp_path / "net.json")])
    assert result.exit_code == 0, result.output
    expected = rr.synthesize_distributions(rr.grid_topology(6), seed=7)
    assert rr.load_graph(tmp_path / "net.json").digest == expected.digest


def test_package_errors_are_reported_without_traceback(runner, monkeypatch):
    # SearchBudgetExceeded is a RelirouteError and a RuntimeError, not a ValueError.
    search = cli.sota_path_report
    monkeypatch.setattr(cli, "sota_path_report", lambda *args, **kw: search(*args, **kw, queue_limit=1))
    result = runner.invoke(
        main,
        ["path", "--graph", str(FIXTURE_PATH), "--source", "v1", "--dest", "v3", "--budget", "4", "--k", "3"],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: path search exceeded the queue limit of 1 entries")
    assert "Traceback" not in result.output


def test_path_refuses_ranked_paths_with_a_path_mode_archive(runner, grid6_archives):
    args = ["path", "--graph", str(grid6_archives["net"]), "--source", "n00_00", "--dest", "n05_05",
            "--budget", "160", "--potentials"]
    result = runner.invoke(main, [*args, str(grid6_archives["path"]), "--k", "4"])
    assert _error_line(result) == (
        "Error: archive is path-mode and keeps only the best path; --k must be 1"
    )
    for kind, k in (("path", "1"), ("policy", "4")):
        result = runner.invoke(main, [*args, str(grid6_archives[kind]), "--k", k])
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "seed, query, expect",
    [
        (0, ["--source", "n00_00", "--dest", "n03_03"],
         [(["n00_00", "n01_00", "n02_00", "n03_00", "n03_01", "n03_02", "n03_03"], 0.9999841335894679)]),
        (7, ["--source", "n03_04", "--dest", "n00_00", "--k", "3"],
         [(None, 0.9999621894433512), (None, 0.999938702220735), (None, 0.9999071858291286)]),
    ],
    ids=["seed0-best", "seed7-k3"],
)
def test_path_answers_alike_with_a_policy_archive(runner, tmp_path, seed, query, expect):
    # A masked search loses n02_00->n03_00 on the first, which is never a
    # policy successor toward that region, and ranks two worse paths on the second.
    graph, pot = str(tmp_path / "net.json"), str(tmp_path / "pot.npz")
    runner.invoke(main, ["synth", "--grid", "6", "--seed", str(seed), "--out", graph])
    result = runner.invoke(main, ["preprocess", "--graph", graph, "--grid", "2", "--horizon", "200", "--out", pot])
    assert result.exit_code == 0, result.output
    answers = []
    for extra in ([], ["--potentials", pot]):
        result = runner.invoke(main, ["path", "--graph", graph, *query, "--budget", "160", *extra])
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        answers.append([(p["path"], p["reliability"]) for p in out.get("ranked", [out])])
    plain, pruned = answers
    assert pruned == plain
    for (nodes, rel), (want_nodes, want_rel) in zip(plain, expect, strict=True):
        assert rel == want_rel and nodes == (want_nodes or nodes)


@pytest.mark.parametrize(
    "args, edit, message",
    [
        (["--source", "n00_00"], None, "policy-mode archives serve every source and take none, got ['n00_00']"),
        ([], lambda doc: doc.update(regions=list(range(4))),
         "potentials archive lists its regions, so an older reliroute wrote it "
         "and its rows need not follow the region ids; rebuild it"),
        ([], lambda doc: doc.update(sources=["n00_00"]),
         "potentials archive is policy-mode but lists sources ['n00_00']"),
        (["--mode", "path", "--source", "n00_00"], lambda doc: doc.update(sources=None),
         "potentials archive is path-mode and needs a nonempty list of sources, got None"),
    ],
    ids=["policy-mode-sources", "older-archive", "policy-header-with-sources", "path-header-without-sources"],
)
def test_archives_that_would_change_answers_are_refused(runner, grid6_archives, tmp_path, args, edit, message):
    pot = tmp_path / "pot.npz"
    result = runner.invoke(main, ["preprocess", "--graph", str(grid6_archives["net"]), "--grid", "2",
                                  "--horizon", "200", *args, "--out", str(pot)])
    if edit is not None:
        assert result.exit_code == 0, result.output
        edit_table_file(pot, edit)
        result = runner.invoke(main, ["path", "--graph", str(grid6_archives["net"]), "--source", "n00_00",
                                      "--dest", "n05_05", "--budget", "160", "--potentials", str(pot)])
    assert _error_line(result) == f"Error: {message}"


@pytest.mark.parametrize(
    "args, message",
    [
        (["policy", "--dest", "v3", "--budget", "-1"], "horizon must be nonnegative, got -1"),
        (["policy", "--dest", "nope", "--budget", "4"], "unknown node id 'nope'"),
        (["path", "--source", "v1", "--dest", "v3", "--budget", "-1"], "horizon must be nonnegative"),
        (["path", "--source", "v1", "--dest", "nope", "--budget", "4"], "unknown node id 'nope'"),
        (["path", "--source", "nope", "--dest", "v3", "--budget", "4"], "unknown node id 'nope'"),
        (["preprocess", "--grid", "2", "--horizon", "-1", "--out", "x.json"], "horizon must be nonnegative"),
        (["preprocess", "--grid", "2", "--horizon", "6", "--mode", "path", "--source", "nope",
          "--out", "x.json"], "unknown node id 'nope'"),
        (["bench", "--instances", "0", "--out", "out"], "instance count must be at least 1, got 0"),
        (["bench", "--instances", "1", "--preprocess", "policy", "--out", "out"],
         "pruning 'policy' needs grid_k, the region grid to prune by (bench --grid)"),
        (["bench", "--instances", "2", "--grid", "0", "--preprocess", "policy", "--out", "out"],
         "grid dimension must be at least 1, got 0"),
        (["bench", "--instances", "2", "--grid", "0", "--out", "out"],
         "grid_k 0 needs pruning, the table kind to prune with (bench --preprocess)"),
    ],
)
def test_value_errors_are_reported_without_traceback(runner, args, message):
    with runner.isolated_filesystem():
        result = runner.invoke(main, [args[0], "--graph", str(FIXTURE_PATH), *args[1:]])
    assert result.exit_code == 1
    assert f"Error: {message}" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args, message",
    [
        (["synth", "--grid", "2", "--out", "missing/x.json"], "No such file or directory"),
        (["policy", "--graph", str(FIXTURE_PATH), "--dest", "v3", "--budget", "4",
          "--out", "missing/t.npz"], "No such file or directory"),
        (["policy", "--graph", ".", "--dest", "v3", "--budget", "4"], "Is a directory"),
    ],
    ids=["synth-out", "policy-out", "graph-directory"],
)
def test_os_errors_are_reported_without_traceback(runner, args, message):
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "Error: " in result.output and message in result.output
    assert isinstance(result.exception, SystemExit)
