"""The identity runner (tools/identity.py): a tree matches itself, and a changed output is reported."""

import importlib.util
import shutil
from pathlib import Path

from conftest import FIXTURES, KELLEY_PROOF_GAME

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_a_tree_matches_itself_and_not_a_copy_with_one_output_changed(tmp_path, capsys):
    kelley = tmp_path / "kelley.txt"
    kelley.write_text(KELLEY_PROOF_GAME)
    games = [FIXTURES / "example_game.txt", FIXTURES / "example_sum2.txt", kelley]
    assert identity.compare(ROOT, ROOT, games) == []
    assert capsys.readouterr().out.startswith("0 of 60 runs differ on 3 game files and 0 matrix files\n")

    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "polyrep" / "cli.py"
    assert cli.read_text().count('f"interior: ') == 1  # equilibrium's text output, and only it
    cli.write_text(cli.read_text().replace('f"interior: ', 'f"interior found: '))
    keys = [f"equilibrium {{corpus}}/{game.name}" for game in sorted(games, key=lambda g: g.name)]
    assert identity.compare(ROOT, changed, games) == keys
    out = capsys.readouterr().out
    summary = "3 of 60 runs differ on 3 game files and 0 matrix files\n"
    assert out.startswith(summary + "".join(f"differs: {k}\n" for k in keys))
    assert "-stdout: interior found: True" in out and "+stdout: interior: True" in out
