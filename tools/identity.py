"""Compare every CLI output of this tree with another tree's: the identity gate of a refactor.

    python tools/identity.py --against PARENT_DIR

PARENT_DIR is a checkout with its own src/ (a `git worktree` or a `git
archive` of the parent commit).  The runner writes the benchmark's cli,
certify and pipeline corpora (perfbench/corpus.py, seeds 0-2) and both
fixtures to one directory, 107 game files.  Each tree then runs in its own
interpreter, its src/ first on sys.path, and calls `cli.main` on every
file: check, vertices, reduce and collapse at the default --tol and at
--tol 0, equilibrium, and simulate --T 2 --csv FILE, each in text and
JSON, 20 runs a file.  A run is keyed by its command line with the corpus
directory written {corpus}; its record is the sha256 of its exit code,
stdout, stderr and CSV bytes.  Both trees read the same corpus directory
and write the same CSV path, so a path in an output is the same in both.
The runner prints the keys whose records differ, a diff of the first few,
and exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
COMMANDS = [[c, *tol] for c in ("check", "vertices", "reduce", "collapse") for tol in ([], ["--tol", "0"])]
COMMANDS += [["equilibrium"]]
SHOWN = 3  # differing runs shown as a diff


def write_corpus(directory: Path) -> None:
    """The benchmark's cli, certify and pipeline corpora at SEEDS, and both fixtures, as game files."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    for seed in SEEDS:
        for name, games in [("cli", corpus.cli_corpus), ("certify", corpus.certify_corpus),
                            ("pipeline", corpus.pipeline_corpus)]:
            corpus.write_corpus(games(seed), directory / f"seed{seed}" / name)
    for fixture in ("example_game.txt", "example_sum2.txt"):
        shutil.copy(ROOT / "tests" / "fixtures" / fixture, directory / fixture)


def runs(directory: Path) -> dict[str, list[str]]:
    """{key: argv} of every run on the game files under the directory."""
    out = {}
    for game in sorted(directory.rglob("*.txt")):
        for fmt in ([], ["--format", "json"]):
            for command in [*([c[0], str(game), *c[1:]] for c in COMMANDS),
                            ["simulate", "--game", str(game), "--T", "2", "--csv", str(directory / "run.csv")]]:
                argv = command + fmt
                out[" ".join(argv).replace(str(directory), "{corpus}")] = argv
    return out


def _child(src: str, directory: Path, keys: list[str]) -> dict:
    """Every run's digest, or the outputs of the runs keyed, from the polyrep under src."""
    sys.path.insert(0, src)
    from polyrep import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"polyrep was imported from {cli.__file__}, not from {src}")
    records = {}
    csv = directory / "run.csv"
    for key, argv in runs(directory).items():
        if keys and key not in keys:
            continue
        csv.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is an output too, so it is compared, not fatal
                code = f"raised {type(exc).__name__}: {exc}"
        data = csv.read_bytes().decode("utf-8", "surrogateescape") if csv.exists() else ""  # lossless
        record = [code, out.getvalue(), err.getvalue(), data]
        records[key] = record if keys else hashlib.sha256(json.dumps(record).encode()).hexdigest()
    return records


def records(tree: Path, directory: Path, keys: list[str] = ()) -> dict:
    """`_child`'s records for the tree, run in an interpreter of its own with the tree's src/ first."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", str(tree / "src"), str(directory), *keys]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: the runs did not finish:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(tree: Path, other: Path, games: list[Path] | None = None) -> list[str]:
    """The keys whose records differ between the two trees, printed with a diff of the first SHOWN.

    The runs read `games` if given, else the corpus `write_corpus` writes; two games may not share a name.
    """
    if games is not None and len({game.name for game in games}) < len(games):
        raise ValueError("two game files share a name")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        if games is None:
            write_corpus(directory)
        for game in games or ():
            shutil.copy(game, directory / game.name)
        ours, theirs = records(tree, directory), records(other, directory)
        differ = sorted(key for key in ours if ours[key] != theirs.get(key))
        print(f"{len(differ)} of {len(ours)} runs differ on {len(list(directory.rglob('*.txt')))} game files")
        if differ:
            ours, theirs = records(tree, directory, differ[:SHOWN]), records(other, directory, differ[:SHOWN])
        for key in differ:
            print(f"differs: {key}")
        for key in differ[:SHOWN]:
            names = ("code", "stdout", "stderr", "csv")
            text = [[f"{n}: {line}" for n, part in zip(names, r[key]) for line in str(part).splitlines()]
                    for r in (theirs, ours)]
            diff = difflib.unified_diff(*text, str(other), str(tree), lineterm="", n=1)
            print("\n".join(list(diff)[:40]))
    return differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--against", type=Path, required=True, help="the other tree, with its own src/")
    args = p.parse_args(argv)
    return 1 if compare(ROOT, args.against.resolve()) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(_child(sys.argv[2], Path(sys.argv[3]), sys.argv[4:])))
    else:
        sys.exit(main())
