"""Documentation health: links resolve, docs track the registry, CLI parses.

These checks run in CI's docs job (and in the normal suite) so the docs/
tree cannot silently rot: every relative link must point at a real file,
every registered scenario must be documented in docs/cli.md and
docs/scenarios.md, and every ``python -m repro`` invocation shown in the
documentation must actually parse against the real CLI.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.runtime.cli import build_parser
from repro.runtime.registry import REGISTRY, load_scenarios

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

#: Markdown inline links: [text](target)
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
#: ATX headings (anchors are derived from these, GitHub style).
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
#: Console-prompt lines that invoke the CLI inside code blocks.
_CLI_LINE = re.compile(
    r"^\$ (?:PYTHONPATH=\S+ )?python -m repro\b([^\n#]*)", re.MULTILINE)


def _doc_ids():
    return [str(path.relative_to(REPO_ROOT)) for path in DOC_FILES]


def _slugify(title: str) -> str:
    """GitHub's heading-anchor slug: drop punctuation, spaces to dashes."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", title)  # keep link text
    text = re.sub(r"[*_`]", "", text).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    """Every anchor a markdown file exposes (fenced code is not headings)."""
    seen: dict = {}
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        match = None if in_fence else _HEADING.match(line)
        if not match:
            continue
        slug = _slugify(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


@pytest.fixture(scope="module", autouse=True)
def _scenarios_loaded():
    load_scenarios()


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_resolve(doc):
    """Every internal link resolves — the file part AND the #anchor part."""
    text = doc.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        target_path = (doc.parent / path_part).resolve() if path_part else doc
        assert target_path.exists(), (
            f"{doc.name}: broken link {target!r} (resolved to {target_path})"
        )
        if anchor and target_path.suffix == ".md":
            assert anchor in _anchors(target_path), (
                f"{doc.name}: link {target!r} points at a heading that "
                f"{target_path.name} does not have"
            )


def test_docs_directory_has_the_three_pages():
    names = {path.name for path in (REPO_ROOT / "docs").glob("*.md")}
    assert {"architecture.md", "cli.md", "scenarios.md"} <= names


@pytest.mark.parametrize("page", ["cli.md", "scenarios.md"])
def test_every_scenario_is_documented(page):
    text = (REPO_ROOT / "docs" / page).read_text(encoding="utf-8")
    missing = [scenario.name for scenario in REGISTRY.scenarios()
               if f"`{scenario.name}`" not in text]
    assert not missing, f"docs/{page} does not mention scenarios: {missing}"


def test_every_scenario_has_a_table_row():
    """A mention is not enough: docs/scenarios.md must carry one table row
    (``| `name` | ...``) per registered scenario."""
    text = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
    rows = {line.split("`")[1] for line in text.splitlines()
            if line.startswith("| `") and line.count("`") >= 2}
    missing = [scenario.name for scenario in REGISTRY.scenarios()
               if scenario.name not in rows]
    assert not missing, (
        f"docs/scenarios.md has no table row for scenarios: {missing}"
    )


def test_every_ledger_claim_is_documented():
    """docs/scenarios.md renders the claims ledger row for row."""
    from tests.test_paper_claims import CLAIMS

    lines = set((REPO_ROOT / "docs" / "scenarios.md")
                .read_text(encoding="utf-8").splitlines())
    missing = [claim.claim for claim in CLAIMS if claim.doc_row not in lines]
    assert not missing, (
        f"docs/scenarios.md does not carry the ledger rows of: {missing}"
    )


def test_cli_doc_mentions_every_parameter():
    text = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    missing = []
    for scenario in REGISTRY.scenarios():
        for param in scenario.params:
            if f"`{param.name}=" not in text:
                missing.append(f"{scenario.name}.{param.name}")
    assert not missing, f"docs/cli.md does not list parameters: {missing}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_documented_cli_invocations_parse(doc):
    """Every `python -m repro ...` line in the docs is a valid invocation."""
    parser = build_parser()
    for match in _CLI_LINE.finditer(doc.read_text(encoding="utf-8")):
        argv = shlex.split(match.group(1).strip())
        if not argv or argv[0].startswith(("<", "...")):
            continue  # usage placeholder, not a concrete invocation
        args, extra = parser.parse_known_args(argv)
        assert args.command in {"list", "run", "run-all", "resume",
                                "journal", "workload"}
        if args.command == "run" and args.scenario is not None:
            assert args.scenario in REGISTRY, (
                f"{doc.name}: unknown scenario {args.scenario!r} in "
                f"'python -m repro {' '.join(argv)}'"
            )
            scenario = REGISTRY.get(args.scenario)
            declared = {p.name for p in scenario.params}
            for flag in extra:
                if flag.startswith("--"):
                    name = flag[2:].split("=")[0].replace("-", "_")
                    assert name in declared, (
                        f"{doc.name}: scenario {scenario.name!r} has no "
                        f"parameter {name!r}"
                    )


def test_repro_list_smoke(capsys):
    """`python -m repro list` works in-process and shows every scenario."""
    from repro.runtime.cli import main

    assert main(["list"]) == 0
    printed = capsys.readouterr().out
    for scenario in REGISTRY.scenarios():
        assert scenario.name in printed
