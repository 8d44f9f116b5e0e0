"""README.md stays true: its Library block and CLI examples are run here and
must print what the README says they print."""

import ast
import json
import pathlib
import shlex

import depolar
from depolar import cli

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()

# the vertices and facets of the hollow triangle that the README's
# homology example reads
HOLLOW_TRIANGLE = {"vertices": ["a", "b", "c"],
                   "facets": [["a", "b"], ["b", "c"], ["a", "c"]]}


def block(heading, lang=""):
    """The first fenced block under heading whose fence names lang."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_block_shows_its_values():
    code = block("## Library", "python")
    lines = code.splitlines()
    env, shown = {}, 0
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            # the comment of an expression starts with the value's repr
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(eval(source, env))), source
            shown += 1
        else:
            exec(source, env)
    assert shown == 4


def cli_examples():
    """(command, output) of each "$ " line of the CLI block, the command's
    trailing comment dropped."""
    examples = []
    for line in block("## CLI").splitlines():
        if line.startswith("$ "):
            examples.append([line[2:].partition("  #")[0].strip(), []])
        elif examples:
            examples[-1][1].append(line)
    return [(command, "\n".join(out).strip("\n")) for command, out in
            examples]


def test_cli_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cx.json").write_text(json.dumps(HOLLOW_TRIANGLE))
    ran = []
    for command, want in cli_examples():
        argv = shlex.split(command)
        if argv[0] == "cat" and argv[1] == "map.json":
            # abridged: its variables and chains lines are shown in full
            got = json.loads((tmp_path / "map.json").read_text())
            for line in want.splitlines()[1:]:
                key, _, value = line.strip().rstrip(",}").partition(": ")
                assert got[json.loads(key)] == json.loads(value), line
        elif argv[0] == "cat":
            (tmp_path / argv[1]).write_text(want + "\n")
        elif "bench" not in argv:  # a bench cell is a process of its own
            assert cli.main(argv[1:]) == 0, command
            assert capsys.readouterr().out == want + "\n", command
            ran.append(argv[1])
    assert ran == ["gen", "dual-ideal", "depolarize", "homology", "betti"]


def test_readme_names_every_public_name():
    assert [name for name in depolar.__all__
            if f"`{name}`" not in README] == []
