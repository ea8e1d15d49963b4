"""CLI contracts: worker counts, executors, sampling modes, kernel backends,
checkpoint re-runs and warm stores all give the same answer.  Run them all, or
the named ones and those they need, in one temporary directory with
``PYTHONPATH=src python tests/contracts.py [NAME...]``.
"""

import contextlib
import difflib
import os
import re
import runpy
import shlex
import socket
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import repro
from repro.sim.worker import spawn_local_workers

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PYTHONPATH = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
CLI = [sys.executable, "-m", "repro.cli"]


class Contract(NamedTuple):
    name: str
    steps: dict  # name -> CLI words, or a callable that writes the file name
    checks: tuple  # callables that raise AssertionError
    needs: tuple = ()  # earlier contracts whose files this one reads


def _cli(name: str, command: str) -> None:
    """Run the CLI into ``name.txt`` and ``name.err``.  Leading ``KEY=value``
    words set the environment, a leading ``!`` expects a non-zero exit, and
    ``{tcp}`` is a free port (the CLI rejects 0) of two workers for this run."""
    fail = command.startswith("! ")
    words = shlex.split(command.removeprefix("! "))
    env, workers = dict(os.environ, PYTHONPATH=PYTHONPATH), []
    while "=" in words[0]:
        env.update([words.pop(0).split("=", 1)])
    try:
        if "{tcp}" in command:
            with socket.create_server(("127.0.0.1", 0)) as sock:
                address = sock.getsockname()
            workers = spawn_local_workers(address, 2, retry=60, stderr=subprocess.DEVNULL)
            words = [word.replace("{tcp}", "%s:%d" % address) for word in words]
        with open(f"{name}.txt", "w") as out, open(f"{name}.err", "w") as err:
            code = subprocess.call(CLI + words, stdout=out, stderr=err, env=env)
    finally:
        for worker in workers:
            worker.kill()
            worker.wait()
    if (code != 0) != fail:
        raise AssertionError(f"{command!r} exited {code}:\n{''.join(_lines(name + '.err'))}")


def _lines(path: str, *drop: str) -> list:
    """The lines of a file, or of each file under a directory after a header
    that names it and counts its lines, minus those starting with ``drop``."""
    if not os.path.isdir(path):
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
            return [line for line in handle if not line.startswith(drop)]
    lines = []
    for name in sorted(os.listdir(path)):
        body = _lines(os.path.join(path, name), *drop)
        lines += [f"== {name} ({len(body)} lines)\n", *body]
    return lines


def same(*views):
    """Each path, or ``(path, prefix...)`` minus lines with a prefix, holds the same bytes."""
    views = [(view,) if isinstance(view, str) else view for view in views]

    def check():
        expected = _lines(*views[0])
        for view in views[1:]:
            lines = _lines(*view)
            if lines != expected:
                diff = "".join(difflib.unified_diff(expected, lines, views[0][0], view[0]))
                raise AssertionError(f"{views[0][0]} and {view[0]} differ:\n{diff}")
    return check


def has(path: str, pattern: str, present: bool = True):
    """A line of the file matches the regular expression (none, if not ``present``)."""
    def check():
        text = "".join(_lines(path))
        if bool(re.search(pattern, text, re.M)) != present:
            raise AssertionError(f"{path} {'lacks' if present else 'has'} /{pattern}/:\n{text}")
    return check


def _grid_spec(path: str) -> None:
    example = runpy.run_path(os.path.join(os.path.dirname(SRC), "examples", "design_space.py"))
    example["build_spec"]().save(path)


def _multirung_spec(path: str) -> None:
    from repro import dse  # grid.json cells stop at rung 0; these climb all three
    dse.ExperimentSpec(
        geometry=dse.GeometrySpec(rows=128),
        operating_grid=dse.OperatingGridSpec(vdd_values=(0.55, 0.60, 0.65)),
        scheme_grid=dse.SchemeGridSpec(specs=("no-protection", "p-ecc", "bit-shuffle-nfm2")),
        budget=dse.McBudgetSpec(samples_per_count=8, n_count_points=3, coverage=0.9,
                                master_seed=7, discard_multi_fault_words=False),
        benchmarks=dse.BenchmarkGridSpec(names=("elasticnet",), scale=0.25, seed=17),
        quality_yield_target=0.9, optimizer=dse.OptimizerSpec(
            rungs=3, eta=2.0, target_ci=0.02, round_dies=2, initial_samples_per_count=2,
            threshold=0.999)).save(path)


def _frontier_recovered() -> None:
    """The optimizer finds the exhaustive table's Pareto frontier for fewer dies."""
    from repro.dse import DseResult, OptimizeResult
    table, opt = DseResult.load("exhaustive.json"), OptimizeResult.load("optimize.json")
    exact = sorted((row["benchmark"], row["scheme"], row["vdd"]) for row in table.pareto())
    if opt.frontier_keys() != exact or not opt.total_dies < opt.exhaustive_dies:
        raise AssertionError(f"frontier {opt.frontier_keys()} for {opt.total_dies} dies; "
                             f"exhaustive {exact} for {opt.exhaustive_dies}")


def _same_stdout(name: str, args: str, runs: dict, *checks) -> Contract:
    """``args`` plus each run's extra words prints the same stdout."""
    steps = {f"{name}-{run}": f"{args} {extra}" for run, extra in runs.items()}
    return Contract(name, steps, (same(*(f"{step}.txt" for step in steps)), *checks))


FIG5 = "fig5 --samples 3 --p-cell 1e-4"
FIG7 = "fig7 --benchmark knn --samples 1 --count-points 2 --scale 0.2"
ADAPTIVE = "fig5 --samples 60 --p-cell 1e-4 --adaptive --target-ci 0.02"
DSE_RUN, OPTIMIZE = "dse run --spec grid.json", "dse optimize --spec grid.json"
WORKERS, RERUN = {"w1": "--workers 1", "w2": "--workers 2"}, {"cold": "", "warm": ""}
EXECUTORS = {**WORKERS, "tcp": "--workers 2 --executor tcp --connect {tcp}"}
BY_KERNEL = {"fig7": f"{FIG7} --sampling seeded", "optimize": f"{OPTIMIZE} --workers 1"}
COLD = {"grid": "optimize-cold.txt", "multirung": "multirung-cold.txt"}
GRID, FIG5_STORE, BACKENDS = ("optimize-frontier",), ("fig5-warm-store",), ("numpy", "c")

CONTRACTS = (
    _same_stdout("fig5-executors", f"{FIG5} --sampling seeded", EXECUTORS),
    _same_stdout("fig7-executors", f"{FIG7} --sampling seeded", EXECUTORS),
    _same_stdout("fig5-legacy", f"{FIG5} --sampling legacy", WORKERS),
    _same_stdout("fig7-legacy", f"{FIG7} --sampling legacy", WORKERS),
    _same_stdout("fig5-adaptive", ADAPTIVE, WORKERS,
                 has("fig5-adaptive-w1.txt", r"^adaptive budget: .*target CI \+/-0\.02 reached")),
    _same_stdout("fig5-adaptive-checkpoint", f"{ADAPTIVE} --checkpoint a.json", RERUN,
                 has("fig5-adaptive-checkpoint-warm.txt", "adaptive budget:")),
    _same_stdout("fig7-aged", f"{FIG7} --p-cell 2e-4 --sampling seeded --scenario aged", WORKERS),
    _same_stdout("fig5-clustered", "fig5 --samples 2 --p-cell 1e-4 --sampling seeded "
                 "--scenario clustered,cluster_size=2", WORKERS),
    _same_stdout("fig7-transient", f"{FIG7} --p-cell 2e-4 --sampling seeded --scenario transient,"
                 "ser=5e-3,disturb=2e-3,scrub_interval=2 --access-trace 3", WORKERS,
                 has("fig7-transient-w1.txt", "scenario transient")),
    Contract("fig5-rejects-transient", {"fig5-transient": "! fig5 --scenario transient,ser=1e-4"},
             (has("fig5-transient.err", "not supported by fig5"),)),
    Contract("optimize-frontier", {
        "grid.json": _grid_spec,
        "exhaustive": f"{DSE_RUN} --workers 2 --output exhaustive.json",
        "optimize-cold": f"{OPTIMIZE} --workers 2 --store results --output optimize.json",
    }, (_frontier_recovered,)),
    Contract("dse-run-file-workers",
             {"exhaustive-w1": f"{DSE_RUN} --workers 1 --output exhaustive-w1.json"},
             (same("exhaustive.json", "exhaustive-w1.json"),), GRID),
    Contract("optimize-cold-workers",
             {"cold-w1": f"{OPTIMIZE} --workers 1 --store results-w1 --output optimize-w1.json"},
             (same(("optimize-cold.txt", "wrote "), ("cold-w1.txt", "wrote ")),), GRID),
    Contract("kernel-backends", {f"{run}-{b}": f"REPRO_KERNEL_BACKEND={b} {args}"
                                 for b in BACKENDS for run, args in BY_KERNEL.items()},
             (*(has(f"{r}-{b}.err", f"^kernel backend: {b}$") for b in BACKENDS for r in BY_KERNEL),
              *(same(f"{run}-numpy.txt", f"{run}-c.txt") for run in BY_KERNEL)), GRID),
    Contract("optimize-checkpoint", {
        "multirung.json": _multirung_spec,
        "multirung-cold": "dse optimize --spec multirung.json --workers 1",
        **{f"{spec}-ckpt-{run}": f"dse optimize --spec {spec}.json --workers 1 "
           f"--checkpoint ckpt-{spec}" for spec in COLD for run in (1, 2)},
        "w2": "dse optimize --spec multirung.json --workers 2 --checkpoint ckpt-multirung-w2",
    }, (*(check for spec, cold in COLD.items() for check in (
        has(f"{spec}-ckpt-2.txt", r"\(0 evaluated this run"),
        same((cold, "wrote "), f"{spec}-ckpt-1.txt"),
        same((cold, "wrote ", "dies:"), (f"{spec}-ckpt-2.txt", "dies:")))),
        same("ckpt-multirung", "ckpt-multirung-w2")), GRID),
    Contract("optimize-warm-store", {"warm": f"{OPTIMIZE} --workers 1 --store results"},
             (has("warm.txt", "0 evaluated this run"), has("warm.err", "store: served"),
              has("warm.err", "store: recorded", present=False),
              same(("optimize-cold.txt", "dies:", "wrote "), ("warm.txt", "dies:"))), GRID),
    _same_stdout("fig5-warm-store", "fig5 --samples 5 --p-cell 1e-4 --seed 2015 --store fig5-store",
                 RERUN, has("fig5-warm-store-cold.err", "store: recorded"),
                 has("fig5-warm-store-warm.err",
                     r"store: served .* from cache \(0 dies evaluated\)"),
                 has("fig5-warm-store-warm.err", "store: recorded", present=False)),
    Contract("store-count", {"count": "store query --store fig5-store --count",
                             "query": "store query --store fig5-store"},
             (has("count.txt", r"\A1\n*\Z"),), FIG5_STORE),
    Contract("store-gc-export", {
        "gc": "store gc --store fig5-store",
        "jsonl": "store export --store fig5-store --output records.jsonl",
        "csv": "store export --store fig5-store --output records.csv --format csv",
    }, (has("records.jsonl", r"\S"), has("records.csv", r"\S")), FIG5_STORE),
)


def main(names: list) -> int:
    """Run the named contracts (all if none) and the ones they need, in table order."""
    known = [contract.name for contract in CONTRACTS]
    if set(names) - set(known):
        print(f"unknown contract in {names}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    wanted = set(names or known)
    for contract in reversed(CONTRACTS):
        wanted.update(contract.needs if contract.name in wanted else ())
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="contracts-") as scratch, contextlib.chdir(scratch):
        try:
            for contract in (c for c in CONTRACTS if c.name in wanted):
                for name, command in contract.steps.items():
                    command(name) if callable(command) else _cli(name, command)
                for check in contract.checks:
                    check()
                print(f"ok   {contract.name} (at {time.perf_counter() - start:.0f} s)", flush=True)
        except (AssertionError, OSError) as error:
            print(f"FAIL {contract.name}: {error}", file=sys.stderr)
            return 1
    print(f"{len(wanted)} contracts passed in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
