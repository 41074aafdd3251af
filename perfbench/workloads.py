"""The four workloads: their operation lists, how one operation runs, and
how its output is checked.

Every workload is closed-loop with a single client: one process, one
operation at a time, no extra threads.  In-process workloads call
`polyrep.cli.main` or the `polyrep.dynamics` functions; `cli-cold`
starts `python -m polyrep.cli` once per operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import corpus
import speed
from layers import OpInfo

BENCH_DIR = Path(__file__).resolve().parent
CLI_SUBCOMMANDS = ("check", "vertices", "reduce", "collapse", "equilibrium", "simulate")
CLI_SIMULATE_T = 1.0  # 100 RK4 steps: a short run, the analysis layers do little
DT = 0.01
SINGLE_T = 100.0  # integrate: one start, 10 000 steps
BATCH_T = 10.0  # integrate_batch: 1000 starts x 1000 steps
BATCH_STARTS = 1000


@dataclass
class Op:
    kind: str
    game: corpus.Game
    argv: tuple[str, ...] = ()
    x0: np.ndarray | None = field(default=None, repr=False)
    steps: int = 0

    @property
    def starts(self) -> int:
        return 0 if self.x0 is None else self.x0.reshape(-1, self.game.n).shape[0]

    def info(self) -> OpInfo:
        return OpInfo(self.kind, self.game.vertices, self.steps)


@dataclass
class Result:
    block: speed.Block  # the measured latency and where it ran
    failure: str | None = None  # why the operation failed, None when it did not
    wrong: bool = False  # an output check failed (as opposed to a crash)
    certified: bool | None = None  # check on a dissipative-by-construction game
    peak_rss_mb: float = 0.0
    latency_s: float = 0.0  # measured latency normalized to the reference speed

    @property
    def raw_s(self) -> float:
        return self.block.seconds


class Workload:
    """Base: in-process `polyrep.cli.main` operations on generated files."""

    name = ""
    in_process = True  # the operation runs in this process (speed.SpeedTrack)

    def __init__(self, seed: int, workdir: Path):
        from polyrep import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.games = self.make_games(seed)
        self.paths = corpus.write_corpus(self.games, workdir / "games")
        self.ops = self.build_ops()

    def make_games(self, seed: int) -> list[corpus.Game]:
        raise NotImplementedError

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, op_id: int, traced: bool, timed) -> Result:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with timed() as block:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(op.argv))
            except Exception:  # the benchmark records the crash and goes on
                crash = "raised: " + traceback.format_exc().strip().splitlines()[-1]
        if crash:
            return Result(block, failure=crash)
        return judge(op, code, out.getvalue(), err.getvalue(), block)


def judge(op: Op, code, stdout: str, stderr: str, block, rss_mb: float = 0.0) -> Result:
    res = Result(block, peak_rss_mb=rss_mb)
    if code not in checks.DOCUMENTED_EXITS:
        res.failure = f"exit code {code}"
        return res
    if "Traceback (most recent call last)" in stderr:
        res.failure = "printed a traceback: " + stderr.strip().splitlines()[-1]
        return res
    out = {}
    if stdout.strip():
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            res.failure, res.wrong = "output is not JSON", True
            return res
    game = op.game
    try:
        if op.kind == "check":
            problems, certified = checks.check_output(game, code, out)
            if game.kind != "random":
                res.certified = certified
        elif op.kind == "reduce":
            problems = checks.reduce_output(game, code, out)
        elif op.kind == "collapse":
            problems = checks.collapse_output(game, code, out)
        elif op.kind == "equilibrium":
            problems = checks.equilibrium_output(game, code, out)
        elif op.kind == "vertices":
            problems = checks.vertices_output(game, code, out)
        else:
            problems = checks.simulate_output(game, code, out, op.steps)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems = [f"output lacks an expected field: {exc!r}"]
    if problems:
        res.failure, res.wrong = "; ".join(problems), True
    return res


def cli_argv(sub: str, path: Path, seed: int) -> tuple[str, ...]:
    if sub == "simulate":
        return ("simulate", "--game", str(path), "--T", str(CLI_SIMULATE_T), "--dt", str(DT),
                "--x0", f"random:{seed}", "--format", "json")
    return (sub, str(path), "--format", "json")


class CliCold(Workload):
    """Each operation is a fresh `python -m polyrep.cli` process."""

    name = "cli-cold"
    in_process = False

    def make_games(self, seed):
        return corpus.cli_corpus(seed)

    def build_ops(self):
        steps = int(round(CLI_SIMULATE_T / DT))
        return [
            Op(sub, g, cli_argv(sub, self.paths[g.name], self.seed), steps=steps if sub == "simulate" else 0)
            for g in self.games
            for sub in CLI_SUBCOMMANDS
        ]

    def run(self, op, op_id, traced, timed):
        if not traced:
            cmd = [sys.executable, "-m", "polyrep.cli", *op.argv]
        else:
            spans = self.workdir / "spans" / f"op{op_id}.npz"
            spans.parent.mkdir(exist_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), str(op_id), *op.argv]
        out_path, err_path = self.workdir / "op.out", self.workdir / "op.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe, timed() as block:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=BENCH_DIR.parent)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return judge(op, proc.returncode, out_path.read_text(), err_path.read_text(), block,
                     usage.ru_maxrss / 1024)


class Certify(Workload):
    name = "certify"

    def make_games(self, seed):
        return corpus.certify_corpus(seed)

    def build_ops(self):
        return [Op("check", g, ("check", str(self.paths[g.name]), "--format", "json")) for g in self.games]


class Pipeline(Workload):
    name = "pipeline"

    def make_games(self, seed):
        return corpus.pipeline_corpus(seed)

    def build_ops(self):
        return [
            Op(sub, g, (sub, str(self.paths[g.name]), "--format", "json"))
            for g in self.games
            for sub in ("check", "reduce", "collapse")
        ]


class Simulate(Workload):
    """`dynamics.integrate` (one start) and `integrate_batch` (1000 starts)."""

    name = "simulate"

    def make_games(self, seed):
        return corpus.simulate_corpus(seed)

    def build_ops(self):
        from polyrep import dynamics, gamefile

        self.dynamics = dynamics
        self.parsed = {g.name: gamefile.parse_game(self.paths[g.name]) for g in self.games}
        rng = np.random.default_rng([self.seed, 5])
        # Each path twice on the example, once on the sum: the two example
        # batches are the cheapest operations and the sum's two the
        # dearest, so the median operation is an example single start,
        # not the boundary between two kinds of operation.
        example, _ = self.games
        ops = []
        for g in (example, *self.games):
            ops.append(Op("integrate", g, x0=corpus.interior_starts(g.sizes, 1, rng)[0],
                          steps=int(round(SINGLE_T / DT))))
        for g in (example, *self.games):
            ops.append(Op("integrate_batch", g, x0=corpus.interior_starts(g.sizes, BATCH_STARTS, rng),
                          steps=int(round(BATCH_T / DT))))
        return ops

    def run(self, op, op_id, traced, timed):
        game = self.parsed[op.game.name]
        crash = None
        with timed() as block:
            try:
                if op.kind == "integrate":
                    trajs = [self.dynamics.integrate(game, op.x0, SINGLE_T, DT)]
                else:
                    trajs = self.dynamics.integrate_batch(game, op.x0, BATCH_T, DT)
            except Exception:  # the benchmark records the crash and goes on
                crash = "raised: " + traceback.format_exc().strip().splitlines()[-1]
        res = Result(block, failure=crash)
        if crash:
            return res
        if len(trajs) != op.starts:
            res.failure, res.wrong = f"{len(trajs)} trajectories for {op.starts} starts", True
            return res
        for tr in trajs:
            problems = [] if tr.states.shape[0] == op.steps + 1 else [f"{tr.states.shape[0]} samples"]
            problems = problems or checks.trajectory_problems(op.game, tr.states, tr.ok)
            if problems:
                res.failure, res.wrong = "; ".join(problems), True
                break
        return res

    def start_steps(self) -> int:
        return sum(op.starts * op.steps for op in self.ops)


WORKLOADS = {w.name: w for w in (CliCold, Certify, Pipeline, Simulate)}


def warm_up(workdir: Path) -> None:
    """One pass of every subcommand on the bundled example, plus a tiny batch.

    Pays lazy imports and first-call costs before timing, and reaches
    every layer, so a traced window that starts with it sees all eight.
    """
    from polyrep import cli, dynamics, gamefile

    path = corpus.write_corpus([corpus.example_game()], workdir / "warmup")["example"]
    for sub in CLI_SUBCOMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(cli_argv(sub, path, 0)))
        if code != 0:
            raise RuntimeError(f"warm-up `polyrep {sub}` on the bundled example exited {code}")
    game = gamefile.parse_game(path)
    dynamics.integrate_batch(game, np.array([corpus.EXAMPLE_Q, [0.2, 0.3, 0.5, 0.4, 0.6]]), 0.1, DT)
