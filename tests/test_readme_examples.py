"""Every chtg invocation in the README runs and exits as documented, and the
README's command-line section names exactly the options the parser takes."""

import argparse
import pathlib
import re

import pytest

from chtg.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# scan with t = 1.9 > t_A finds the test-word hit and exits 2
EXPECTED_EXIT = {"chtg scan --p 4 4 inf --t 1.9 --max-len 4 --json": 2}


def readme_commands():
    text = README.read_text()
    return [line.strip() for line in re.findall(r"^chtg .*$", text, re.M)]


@pytest.mark.parametrize("command", readme_commands())
def test_readme_cli_example(command, capsys):
    argv = command.split()[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXPECTED_EXIT.get(command, 0), command
    assert out.strip(), command


def test_readme_has_examples():
    assert len(readme_commands()) >= 8


def _registered_options():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subs.choices.values() for action in sub._actions
            for opt in action.option_strings} - {"-h", "--help"}


def test_readme_names_every_option():
    text = README.read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    registered = _registered_options()
    assert registered - documented == set(), "undocumented options"
    assert documented - registered == set(), "documented options the parser lacks"
