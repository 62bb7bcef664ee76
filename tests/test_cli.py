import copy
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spannerkit
from spannerkit import bench, cli
from spannerkit.cli import main
from spannerkit.errors import ParseError
from spannerkit.generators import DEMAND_FAMILIES, DEMAND_PAIRS, WEIGHT_FAMILIES
from spannerkit.instance import save
from spannerkit.rounding import GAMMA_MODES
from test_graph import dominated_triangle


def run_cli(args):
    """Invoke the CLI in-process; returns the exit code."""
    try:
        return main(args) or 0
    except SystemExit as exc:
        return exc.code or 0


@pytest.fixture
def ex5(tmp_path):
    path = tmp_path / "ex5.json"
    assert run_cli(["gen", "example5", "--out", str(path)]) == 0
    return path


def test_gen_fixed_instance_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["gen", "example5", "--out", str(p1)]) == 0
    assert run_cli(["gen", "example5", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_seeded_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "decoupled", "--n", "8", "--seed", "7", "--demands", "freeform"]
    assert run_cli(args + ["--out", str(p1)]) == 0
    assert run_cli(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_basic_family(tmp_path):
    out = tmp_path / "basic.json"
    assert run_cli(["gen", "basic", "--n", "8", "--alpha", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(e["w"] == "1" and e["len"] == "1" for e in doc["edges"])


def test_solve_augmented_greedy(ex5, tmp_path):
    out = tmp_path / "sol.json"
    metrics = tmp_path / "metrics.csv"
    code = run_cli(["solve", str(ex5), "--algorithm", "augmented-greedy",
                    "--out", str(out), "--metrics", str(metrics)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["weight"] == "2" and doc["feasible"]
    header, row = metrics.read_text().strip().split("\n")
    assert header.startswith("instance,algorithm")
    assert ",augmented-greedy," in row


def test_solve_exact_and_randomized(ex5, tmp_path):
    for algo in ("exact", "randomized-rounding"):
        out = tmp_path / f"{algo}.json"
        assert run_cli(["solve", str(ex5), "--algorithm", algo, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["weight"] == "2"


def test_solve_deterministic_outputs(ex5, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(["solve", str(ex5), "--algorithm", "randomized-rounding",
                        "--seed", "5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_rejects_invalid_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 0, "w": "1", "len": "1"}],
        "demands": [],
    }))
    assert run_cli(["solve", str(bad)]) == 2


def test_solve_randomized_requires_integer_lengths(tmp_path):
    inst = tmp_path / "frac.json"
    inst.write_text(json.dumps({
        "directed": False, "n": 2,
        "edges": [{"u": 0, "v": 1, "w": "1", "len": "3/2"}],
        "demands": [{"u": 0, "v": 1, "delta": "2"}],
    }))
    code = run_cli(["solve", str(inst), "--algorithm", "randomized-rounding"])
    assert code == 3


def test_verify_roundtrip(ex5, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert run_cli(["solve", str(ex5), "--algorithm", "exact", "--out", str(sol)]) == 0
    assert run_cli(["verify", str(ex5), "--solution", str(sol)]) == 0
    # a deliberately broken solution fails with exit 3
    doc = json.loads(sol.read_text())
    doc["edge_indices"] = []
    sol.write_text(json.dumps(doc))
    assert run_cli(["verify", str(ex5), "--solution", str(sol)]) == 3
    # malformed solution files are rejected with exit 2 and a one-line message
    capsys.readouterr()
    for text in ('{"edge_indices": [true]}', "[[1]]", "not json {"):
        sol.write_text(text)
        assert run_cli(["verify", str(ex5), "--solution", str(sol)]) == 2, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_unexpected_error_exits_4_on_one_line(ex5, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    assert run_cli(["verify", str(ex5), "--solution", "unused.json"]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_missing_lp_bindings_exit_3_on_one_line(ex5, monkeypatch, capsys):
    # a scipy without the HiGHS bindings solve_lp imports: a SolverFailure, no traceback
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    assert run_cli(["solve", str(ex5), "--algorithm", "randomized-rounding"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'failed'" in err and "ModuleNotFoundError" in err, err


def test_missing_or_unreadable_input_exits_2_naming_the_path(ex5, tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    cases = [
        ["verify", str(missing), "--solution", "x.json"],
        ["verify", str(ex5), "--solution", str(missing)],
        ["solve", str(tmp_path)],  # a directory, not a file
        ["bench", str(missing)],
    ]
    capsys.readouterr()
    for args in cases:
        assert run_cli(args) == 2, args
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "internal error" not in err, err
        assert (str(missing) if str(missing) in args else str(tmp_path)) in err


MALFORMED_FILES = {
    "not-utf8": b'{"n": \xff}',
    "integer-past-digit-limit": b"1" * 5000,
    "nested-past-recursion-limit": b"[" * 200_000,
}


@pytest.mark.parametrize("role", ["instance", "solution", "bench-config"])
@pytest.mark.parametrize("content", sorted(MALFORMED_FILES))
def test_malformed_json_exits_2_naming_the_path(ex5, tmp_path, capsys, content, role):
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED_FILES[content])
    sol = tmp_path / "sol.json"
    sol.write_text('{"edge_indices": []}')
    args = {
        "instance": ["verify", str(bad), "--solution", str(sol)],
        "solution": ["verify", str(ex5), "--solution", str(bad)],
        "bench-config": ["bench", str(bad)],
    }[role]
    capsys.readouterr()
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "internal error" not in err and str(bad) in err, err


@pytest.mark.parametrize("labels", [5, [1, 2, 3]], ids=["not-a-list", "not-strings"])
def test_labels_that_are_not_a_list_of_strings_exit_2(ex5, tmp_path, capsys, labels):
    doc = json.loads(ex5.read_text())
    doc["labels"] = labels
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "field 'labels'" in err, err


def test_records_that_are_not_a_list_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"directed": False, "n": 2, "edges": 5, "demands": []}))
    capsys.readouterr()
    assert run_cli(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "field 'edges'" in err, err


# A valid instance with integer lengths, so every algorithm can run on it.
FUZZ_DOC = {
    "directed": False,
    "n": 3,
    "edges": [
        {"u": 0, "v": 1, "w": "1", "len": "1"},
        {"u": 0, "v": 2, "w": "3", "len": "2"},
        {"u": 1, "v": 2, "w": "1/2", "len": "1"},
    ],
    "demands": [{"u": 0, "v": 2, "delta": "2"}, {"u": 1, "v": 2, "delta": "3/2"}],
    "labels": ["a", "b", "c"],
}
SCALARS = (None, True, 0, 1, -1, 2.5, "", "x", "2")
BAD_RATIONALS = ("1/0", "x", "1/2/3", "-1", "0", "1.5", " ")


def _slots(doc):
    """Every (container, key) of a document: its own keys, each record and each record's keys."""
    slots = [(doc, key) for key in doc]
    for key in ("edges", "demands"):
        records = doc.get(key)
        if isinstance(records, list):
            slots += [(records, i) for i in range(len(records))]
            slots += [(r, k) for r in records if isinstance(r, dict) for k in r]
    return slots


@st.composite
def mutated_documents(draw):
    """FUZZ_DOC after one to three mutations: drop a key, swap a value's type,
    put a scalar in place of a list, or put in a bad rational."""
    doc = copy.deepcopy(FUZZ_DOC)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "retype", "scalar-for-list", "bad-rational")))
        slots = _slots(doc)
        if kind == "scalar-for-list":
            slots = [(c, k) for c, k in slots if isinstance(c[k], list)]
        elif kind == "bad-rational":
            slots = [(c, k) for c, k in slots if k in ("w", "len", "delta")]
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        if kind == "drop":
            del container[key]
        elif kind == "bad-rational":
            container[key] = draw(st.sampled_from(BAD_RATIONALS))
        else:
            others = [x for x in SCALARS + ([], {}) if type(x) is not type(container[key])]
            container[key] = draw(st.sampled_from(others))
    return doc


@settings(
    max_examples=150, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=mutated_documents(), algorithm=st.sampled_from(bench.ALGORITHMS))
def test_mutated_instance_files_never_exit_4(tmp_path, doc, algorithm):
    inst, sol, out = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "out.json"
    inst.write_text(json.dumps(doc))
    sol.write_text(json.dumps({"edge_indices": [0, 2]}))
    assert run_cli(["solve", str(inst), "--algorithm", algorithm, "--out", str(out)]) in (0, 2, 3), doc
    assert run_cli(["verify", str(inst), "--solution", str(sol)]) in (0, 2, 3), doc


@pytest.mark.parametrize(
    "args, name",
    [
        (["solve", "{inst}", "--algorithm", "randomized-rounding", "--max-attempts", "0"],
         "max_attempts"),
        (["solve", "{inst}", "--algorithm", "greedy", "--max-attempts", "0"], "max_attempts"),
        (["solve", "{inst}", "--algorithm", "randomized-rounding", "--gamma-mode", "custom",
          "--confidence", "1"], "confidence"),
        (["solve", "{inst}", "--algorithm", "randomized-rounding", "--gamma-mode", "custom",
          "--confidence", "nan"], "confidence"),
        (["solve", "{inst}", "--algorithm", "randomized-rounding", "--gamma-mode", "custom",
          "--confidence", "inf"], "confidence"),
        (["gen", "decoupled", "--demand-pairs", "random", "--num-demands", "-1", "--out", "{out}"],
         "num_demands"),
        (["gen", "decoupled", "--m", "-1", "--out", "{out}"], "m"),
        (["oracle", "demo", "--length", "0", "--out", "{out}"], "--length"),
        (["oracle", "demo", "--alpha", "0", "--out", "{out}"], "--alpha"),
        (["solve", "{inst}", "--algorithm", "exact", "--exact-cap", "-1", "--out", "{out}"],
         "exact_cap"),
        (["oracle", "exact", "{inst}", "--exact-cap", "-1", "--out", "{out}"], "--exact-cap"),
        (["oracle", "cuts", "{inst}", "--cut-cap", "-1", "--out", "{out}"], "--cut-cap"),
        (["oracle", "potential", "{tri}", "--beta", "0", "--out", "{out}"], "--beta"),
        (["bench", "{cfg}", "--threads", "0", "--out", "{out}"], "threads"),
    ],
    ids=["rr-max-attempts", "greedy-max-attempts", "custom-confidence", "nan-confidence",
         "inf-confidence", "num-demands", "m", "demo-length", "demo-alpha", "solve-exact-cap",
         "oracle-exact-cap", "cut-cap", "potential-beta", "bench-threads"],
)
def test_flags_outside_their_domain_exit_2_naming_the_field(ex5, tmp_path, capsys, args, name):
    # gen and solve check their flags as ExperimentConfig fields, as bench checks a config
    out, tri = tmp_path / "out.json", tmp_path / "triangle.json"  # tri: undirected
    assert run_cli(["gen", "triangle", "--out", str(tri)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 1, "n": 4, "m": 4, "algorithms": ["greedy"]}))
    args = [a.format(inst=ex5, tri=tri, out=out, cfg=cfg) for a in args]
    capsys.readouterr()
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"field {name!r}" in err, err
    assert not out.exists()


def _flags(draw, options):
    """Each flag of ``options`` at a value drawn from its strategy, or left out."""
    args = []
    for flag, values in options.items():
        value = draw(st.none() | values)
        if value is True:
            args.append(flag)
        elif value is not None and value is not False:
            args += [flag, str(value)]
    return args


@st.composite
def command_lines(draw):
    """A gen, solve or oracle (demo, cuts, potential) command line with small, bounded flags;
    ``{inst}`` stands for the fixed instance FUZZ_DOC and ``{out}`` for the output file."""
    count = st.integers(-2, 8)
    command = draw(st.sampled_from(("gen", "solve", "demo", "cuts", "potential")))
    if command == "gen":
        head = ["gen", draw(st.sampled_from(WEIGHT_FAMILIES)), "--out", "{out}"]
        options = {
            "--n": st.integers(-1, 6), "--m": count, "--num-demands": count,
            "--demands": st.sampled_from(DEMAND_FAMILIES),
            "--demand-pairs": st.sampled_from(DEMAND_PAIRS),
            "--alpha": count, "--beta": count, "--freeform-factor": count,
            "--integer-lengths": st.booleans(), "--directed": st.booleans(),
        }
    elif command == "solve":
        head = ["solve", "{inst}", "--algorithm", draw(st.sampled_from(bench.ALGORITHMS)),
                "--out", "{out}"]
        options = {
            "--max-attempts": st.integers(-1, 3),
            "--confidence": st.sampled_from((-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 8.0)),
            "--exact-cap": count, "--gamma-mode": st.sampled_from(GAMMA_MODES),
            "--mst-lift": st.booleans(), "--seed": st.integers(0, 3),
        }
    elif command == "demo":
        head = ["oracle", "demo", "--out", "{out}"]
        options = {"--length": st.integers(-1, 5), "--alpha": st.integers(-1, 4),
                   "--format": st.sampled_from(("text", "json"))}
    elif command == "cuts":
        head = ["oracle", "cuts", "{inst}", "--out", "{out}"]
        options = {"--cut-cap": st.integers(-1, 20), "--seed": st.integers(-1, 3)}
    else:
        head = ["oracle", "potential", "{inst}", "--out", "{out}"]
        options = {"--beta": st.integers(-2, 4), "--mst-lift": st.booleans(),
                   "--format": st.sampled_from(("text", "json"))}
    return head + _flags(draw, options)


@settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(args=command_lines())
def test_command_line_flags_never_exit_4(tmp_path, args):
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst.write_text(json.dumps(FUZZ_DOC))
    args = [a.format(inst=inst, out=out) for a in args]
    assert run_cli(args) in (0, 2, 3), args


def test_export_lp(ex5, tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert run_cli(["export-lp", str(ex5), "--out", str(out)]) == 0
    text = out.read_text()
    assert "Minimize" in text and "End" in text
    assert text.count("x_e") >= 3
    assert capsys.readouterr().out == (
        f"wrote {out}: 17 columns, 5 coupling + 13 conservation rows, 3 of 3 pairs\n"
    )


def test_export_lp_writes_the_metric_pairs_model(tmp_path, capsys):
    save(dominated_triangle(), str(tmp_path / "inst.json"))
    out = tmp_path / "model.lp"
    assert run_cli(["export-lp", str(tmp_path / "inst.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(", 2 of 3 pairs\n")
    assert "f_k1_" in out.read_text() and "f_k2_" not in out.read_text()


def test_oracle_exact(ex5, tmp_path):
    out = tmp_path / "exact.json"
    assert run_cli(["oracle", "exact", str(ex5), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["weight"] == "2"


def test_oracle_cuts(ex5, tmp_path):
    out = tmp_path / "cuts.json"
    assert run_cli(["oracle", "cuts", str(ex5), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["biconditional_holds"]
    assert [p["cuts"] for p in doc["pairs"]] == [5, 4, 4]


def test_oracle_demo(tmp_path):
    out = tmp_path / "demo.json"
    assert run_cli(["oracle", "demo", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["transformed_reachable"] is False
    out2 = tmp_path / "demo3.json"
    assert run_cli(["oracle", "demo", "--alpha", "3", "--format", "json",
                    "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["transformed_reachable"] is True


def test_oracle_potential(tmp_path):
    inst = tmp_path / "basic.json"
    assert run_cli(["gen", "basic", "--n", "8", "--m", "14", "--demands", "additive",
                    "--demand-pairs", "all", "--beta", "2", "--out", str(inst)]) == 0
    out = tmp_path / "mon.json"
    assert run_cli(["oracle", "potential", str(inst), "--beta", "2", "--mst-lift",
                    "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["max_delta_potential"] <= 0


def test_oracle_needs_instance():
    assert run_cli(["oracle", "exact"]) == 2


def test_bench_runs_and_is_seed_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "decoupled", "n": 6, "m": 9, "instances": 2, "seed": 3,
        "demand_family": "freeform", "demand_pairs": "random", "num_demands": 3,
        "integer_lengths": True,
        "algorithms": ["greedy", "augmented-greedy"], "exact": True,
    }))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(["bench", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["bench", str(cfg), "--out", str(out2)]) == 0

    def strip_time(path):
        rows = [r.split(",") for r in path.read_text().strip().split("\n")]
        return [r[:-1] for r in rows]  # drop the wall-time column

    assert strip_time(out1) == strip_time(out2)
    rows = strip_time(out1)
    assert len(rows) == 1 + 4  # header + 2 instances x 2 algorithms
    ratio_col = rows[0].index("ratio")
    for row in rows[1:]:
        if row[ratio_col]:
            assert float(row[ratio_col]) >= 1.0


def test_bench_coupled_retention_through_harness(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "coupled", "n": 8, "m": 14, "instances": 4, "seed": 9,
        "demand_family": "multiplicative", "demand_pairs": "edges", "alpha": 3,
        "algorithms": ["greedy", "augmented-greedy"], "mst_lift": True,
    }))
    out = tmp_path / "r.csv"
    assert run_cli(["bench", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row[0], {})[row[1]] = (row[4], row[5])  # weight, size
    for algos in by_instance.values():
        assert algos["greedy"] == algos["augmented-greedy"]


def test_bench_ratio_never_exceeds_edge_count(tmp_path):
    cfg = tmp_path / "cfg.json"
    m = 10
    cfg.write_text(json.dumps({
        "family": "decoupled", "n": 7, "m": m, "instances": 6, "seed": 12,
        "demand_family": "freeform", "demand_pairs": "random", "num_demands": 3,
        "integer_lengths": True,
        "algorithms": ["augmented-greedy"], "exact": True,
    }))
    out = tmp_path / "r.csv"
    assert run_cli(["bench", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")]
    ratio_col = rows[0].index("ratio")
    assert all(float(row[ratio_col]) <= m for row in rows[1:] if row[ratio_col])


@pytest.mark.parametrize("algorithms", [["greedy", "augmented-greedy", "exact"],
                                        ["greedy", "augmented-greedy"]])
def test_bench_exact_and_mst_once_per_instance(monkeypatch, algorithms):
    calls = {"exact": 0, "mst": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bench, "exact_optimum", counted("exact", bench.exact_optimum))
    monkeypatch.setattr(bench, "minimum_spanning_tree", counted("mst", bench.minimum_spanning_tree))
    config = bench.ExperimentConfig(
        family="decoupled", n=6, m=9, instances=3, seed=2, demand_family="freeform",
        demand_pairs="random", num_demands=3, algorithms=algorithms, trials=2, exact=True,
    )
    rows = bench.run_experiment(config)
    assert [(r.algorithm, r.trial) for r in rows[:len(algorithms) * 2]] == [
        (a, t) for a in algorithms for t in range(2)
    ]
    exact_cells = 3 * 2 * algorithms.count("exact")
    assert calls == {"exact": exact_cells or 3, "mst": 3}
    assert all(r.ratio for r in rows if r.algorithm != "exact")


def test_bench_worker_pool(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "decoupled", "n": 6, "m": 9, "instances": 4, "seed": 5,
        "demand_family": "freeform", "demand_pairs": "random", "num_demands": 3,
        "algorithms": ["greedy"],
    }))
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(["bench", str(cfg), "--out", str(serial)]) == 0
    assert run_cli(["bench", str(cfg), "--out", str(parallel), "--threads", "2"]) == 0

    def strip_time(path):
        return [r.rsplit(",", 1)[0] for r in path.read_text().strip().split("\n")]

    assert strip_time(serial) == strip_time(parallel)


@pytest.mark.parametrize("threads, instances, workers", [(1, 3, None), (4, 1, None), (3, 2, 2), (2, 3, 2)])
def test_bench_pool_has_at_most_one_worker_per_instance(monkeypatch, threads, instances, workers):
    # a forked pool starts all its workers at once, so none may be left without an instance
    import concurrent.futures

    made = []

    class RecordingPool:  # records max_workers and runs the tasks in this process
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = bench.ExperimentConfig(n=5, m=6, instances=instances, threads=threads, algorithms=["greedy"])
    assert len(bench.run_experiment(config)) == instances
    assert made == ([] if workers is None else [workers])


def test_bench_zero_trials_empty_table(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 0, "algorithms": ["greedy"]}))
    out = tmp_path / "r.csv"
    assert run_cli(["bench", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().strip().split("\n") == [
        "instance,algorithm,trial,feasible,weight,size,lightness,ratio,"
        "w_star,high_weight_edges,gamma,attempts,wall_time_s"
    ]


def test_bench_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "no_such_key": 1, "other_key": 2}))
    capsys.readouterr()
    assert run_cli(["bench", str(cfg)]) == 2  # a malformed input file
    err = capsys.readouterr().err
    assert str(cfg) in err and "field 'no_such_key'" in err and "other_key" not in err, err


@pytest.mark.parametrize(
    "key, bad", [("n", "x"), ("n", True), ("confidence", "2"), ("algorithms", "greedy"),
                 ("algorithms", [1]), ("num_demands", 2.5), ("exact", 1)]
)
def test_bench_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, key, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: bad}))
    capsys.readouterr()
    assert run_cli(["bench", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"field {key!r}" in err, err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"family": "foo"}, "family"),
        ({"demand_family": "foo"}, "demand_family"),
        ({"demand_pairs": "zz"}, "demand_pairs"),
        ({"gamma_mode": "x", "algorithms": ["randomized-rounding"]}, "gamma_mode"),
        ({"algorithms": ["greedy", "nope"]}, "algorithms"),
        ({"n": -1}, "n"),
        ({"n": 0}, "n"),
        ({"m": -1}, "m"),
        ({"instances": -2}, "instances"),
        ({"trials": -1}, "trials"),
        ({"max_attempts": 0, "algorithms": ["randomized-rounding"]}, "max_attempts"),
        ({"num_demands": -2}, "num_demands"),
        ({"gamma_mode": "custom", "confidence": 1, "algorithms": ["randomized-rounding"]},
         "confidence"),
        ({"threads": -1}, "threads"),
    ],
)
def test_bench_config_value_outside_its_domain_exits_2(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["bench", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"field {key!r}" in err, err


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"family": "foo"}, "family"),
        ({"demand_pairs": "zz"}, "demand_pairs"),
        ({"gamma_mode": "x"}, "gamma_mode"),
        ({"algorithms": ["nope"], "instances": 1}, "algorithms"),
        ({"n": 0}, "n"),
        ({"num_demands": -1}, "num_demands"),
        ({"max_attempts": 0}, "max_attempts"),
        ({"gamma_mode": "custom", "confidence": 0.5}, "confidence"),
    ],
)
def test_bench_config_built_in_python_checks_its_domain(kwargs, key):
    # the same ParseError as from a file, without one to name
    with pytest.raises(ParseError) as info:
        bench.ExperimentConfig(**kwargs)
    assert info.value.field == key and info.value.path is None
    assert str(info.value).endswith(f"(field {key!r})")


@pytest.mark.parametrize(
    "key, bad", [("n", "x"), ("n", True), ("confidence", "2"), ("algorithms", "greedy"),
                 ("algorithms", [1]), ("num_demands", 2.5), ("exact", 1)]
)
def test_bench_config_built_in_python_checks_its_types(key, bad):
    # a string of algorithm names is not a list of them: it must not run per character
    with pytest.raises(ParseError) as info:
        bench.ExperimentConfig(**{key: bad})
    assert info.value.field == key and info.value.path is None
    assert str(info.value).endswith(f"(field {key!r})")


def test_bench_config_least_values_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.csv"
    cfg.write_text(json.dumps({"n": 1, "m": 0, "instances": 1, "exact": True,
                               "algorithms": ["greedy", "exact"]}))
    assert run_cli(["bench", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3
    cfg.write_text(json.dumps({"instances": 0}))
    assert run_cli(["bench", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1


def test_bench_geometric_family_runs():
    # Geometric lengths are fractions, so the default integer_lengths=True
    # must not floor the bounds (flooring made them 0 and failed validation).
    rows = bench.run_experiment(bench.ExperimentConfig(family="geometric", n=6, m=10))
    assert len(rows) == 5 and all(row.feasible for row in rows)


COLD_START = textwrap.dedent("""
    import json, sys

    def heavy():
        stack = {"numpy", "scipy", "multiprocessing"}
        return sorted(stack & {m.split(".")[0] for m in sys.modules})

    import spannerkit
    from spannerkit.cli import main

    def run(*args):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        if code:
            sys.exit(f"{args} exited {code}")

    seen = {"import": heavy()}
    run("gen", "decoupled", "--n", "7", "--m", "12", "--seed", "3", "--demands", "freeform",
        "--demand-pairs", "random", "--integer-lengths", "--out", "inst.json")
    for algo in ("greedy", "augmented-greedy", "exact"):
        run("solve", "inst.json", "--algorithm", algo, "--out", algo + ".json")
    run("verify", "inst.json", "--solution", "augmented-greedy.json")
    run("oracle", "exact", "inst.json", "--out", "oracle.txt")
    with open("cfg.json", "w") as fh:
        json.dump({"n": 6, "m": 9, "instances": 2, "exact": True,
                   "algorithms": ["greedy", "augmented-greedy", "exact"]}, fh)
    run("bench", "cfg.json", "--threads", "1", "--out", "bench.csv")
    seen["non_lp"] = heavy()
    run("solve", "inst.json", "--algorithm", "randomized-rounding", "--out", "rr.json")
    seen["lp"] = heavy()
    with open("seen.json", "w") as fh:
        json.dump(seen, fh)
""")


def test_cold_start_loads_lp_stack_only_for_the_lp(tmp_path):
    # A fresh interpreter, since this one has long loaded numpy and scipy.
    src = os.path.dirname(os.path.dirname(spannerkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads((tmp_path / "seen.json").read_text())
    assert seen["import"] == [] and seen["non_lp"] == []
    # The LP path does load them, so the checks above are not vacuous.
    assert {"numpy", "scipy"} <= set(seen["lp"])


# A valid triangle of length-10^6 edges whose one demand keeps 3,000,003 flow
# columns; before the flow LP had a cap it ran into HiGHS's bad_alloc.
OVERSIZED_TRIANGLE = {
    "directed": False,
    "n": 3,
    "edges": [{"u": u, "v": v, "w": "1", "len": "1000000"} for u, v in ((0, 1), (0, 2), (1, 2))],
    "demands": [{"u": 0, "v": 1, "delta": "2000000"}],
}

# The CLI in a child limited to 1.5 GB of address space; the limit is the child's alone.
UNDER_MEMORY_LIMIT = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
    from spannerkit.cli import main
    main(sys.argv[1:])
""")


@pytest.mark.parametrize("args", [
    ["solve", "big.json", "--algorithm", "randomized-rounding"],
    ["export-lp", "big.json", "--out", "big.lp"],
    ["gen", "geometric", "--n", "20000", "--out", "gen.json"],
])
def test_oversized_inputs_exit_3_before_allocating(tmp_path, args):
    (tmp_path / "big.json").write_text(json.dumps(OVERSIZED_TRIANGLE))
    src = os.path.dirname(os.path.dirname(spannerkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", UNDER_MEMORY_LIMIT, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "over the cap" in proc.stderr
    assert elapsed < 5  # about 0.5 s here; without the caps, 12 s and more before failing
