"""The command lines and options README.md shows still exist.

Every `bnbroadcast ...` line of README's `sh` blocks and every inline code
span that starts with `bnbroadcast ` must parse with the real argument
parser, and every inline code span that starts with `--` must name an
option of some subcommand.  A removed or renamed option then fails here
instead of lingering in the documentation; and every option of every
subcommand, but argparse's own `--help`, must appear in such a line or
span, so none goes undocumented.  Every spec of the family
table builds, and the too-large example after it is refused.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from bnbroadcast import BadSpec, build_family, parse_family_spec
from bnbroadcast.cli import build_parser
from bnbroadcast.corpus import FAMILY_KINDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def sh_lines():
    """Lines of the ```sh blocks."""
    return [line for lang, body in FENCE.findall(README) if lang == "sh"
            for line in body.splitlines()]


def inline_spans():
    """Inline code spans outside the fenced blocks, whitespace collapsed."""
    prose = FENCE.sub("", README)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def command_lines():
    return [line for line in sh_lines() + inline_spans()
            if line.startswith("bnbroadcast ")]


def argv_of(line):
    """The arguments of a shell line, without comments and redirections."""
    words = shlex.split(line, comments=True)[1:]
    if ">" in words:
        words = words[: words.index(">")]
    return words


def subcommand_options():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subs.choices.values()
            for action in sub._actions for opt in action.option_strings}


def test_readme_shows_command_lines():
    # the sh block alone has six; an empty list would mean the scan broke
    assert len(command_lines()) >= 7


@pytest.mark.parametrize("line", command_lines(),
                         ids=lambda line: " ".join(argv_of(line)))
def test_command_line_parses(line):
    try:
        build_parser().parse_args(argv_of(line))
    except SystemExit:
        pytest.fail(f"README command line no longer parses: {line}")


@pytest.mark.parametrize(
    "span", sorted({s for s in inline_spans() if s.startswith("--")}))
def test_inline_option_exists(span):
    option = span.split()[0].split("=")[0]
    assert option in subcommand_options(), f"README names unknown option {span!r}"


def documented_words():
    """The words of README's command lines and inline code spans, each cut
    at its first '='."""
    return {word.split("=")[0] for line in sh_lines() + inline_spans()
            for word in line.split()}


@pytest.mark.parametrize("option", sorted(subcommand_options() - {"-h", "--help"}))
def test_option_is_documented(option):
    assert option in documented_words(), f"README does not name {option}"


def family_table():
    """The specs in the first column of the table under "Family specs"."""
    section = README.partition("### Family specs")[2].partition("\n#")[0]
    return re.findall(r"^\| `([^`]+)` \|", section, re.M)


def test_family_table_shows_every_kind():
    assert {spec.partition(":")[0] for spec in family_table()} == set(FAMILY_KINDS)


@pytest.mark.parametrize("spec", family_table())
def test_family_table_spec_builds(spec):
    build_family(parse_family_spec(spec))


def test_too_large_example_is_refused():
    (spec,) = re.findall(r"larger one, such as `([^`]+)`", " ".join(README.split()))
    with pytest.raises(BadSpec, match=f"order {spec.partition(':')[2]} exceeds"):
        build_family(parse_family_spec(spec))
