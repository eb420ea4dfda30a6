"""README.md names only code that exists: its dotted names and its CLI flags."""

import argparse
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import shrinker_audit
from shrinker_audit import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
PROSE_SPANS = re.findall(r"`([^`]+)`", FENCED.sub("", README))
# a fenced block's lines, with backslash continuations joined
CODE_LINES = "\n".join(FENCED.findall(README)).replace("\\\n", " ").splitlines()

MODULES = {info.name: importlib.import_module(f"shrinker_audit.{info.name}")
           for info in pkgutil.iter_modules(shrinker_audit.__path__)}
MODULES["shrinker_audit"] = shrinker_audit
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and not name.startswith("_")
           and obj.__module__ == module.__name__}


def _resolve(dotted):
    """Follow ``head.attr...`` from a package module or public class; None if no such head."""
    head, *attrs = dotted.split(".")
    obj = MODULES.get(head, CLASSES.get(head))
    if obj is None:
        return None  # a report key, such as minimal_evidence.shooting
    for attr in attrs:
        # a dataclass field with no default is no class attribute
        obj = getattr(obj, attr) if hasattr(obj, attr) else obj.__dataclass_fields__[attr]
    return obj


def test_readme_dotted_names_resolve():
    checked = set()
    for span in PROSE_SPANS:
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if match and _resolve(match.group()) is not None:
            checked.add(match.group())
    # the library example's imports
    for line in CODE_LINES:
        match = re.match(r"from (shrinker_audit\.\w+) import (.+)", line)
        for name in match.group(2).split(", ") if match else ():
            assert _resolve(f"{match.group(1)}.{name}") is not None
            checked.add(f"{match.group(1)}.{name}")
    assert {"quadrature.audit_grid", "PhiPath.pieces", "audit.check_pointwise_identities",
            "phigeo.MAX_SCHEDULE_SUBSTEPS", "shrinker_audit.phigeo.PhiParams"} <= checked


def _options(parser):
    return set(parser._option_string_actions)


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _report_diff_parser():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser()


def test_readme_flags_exist():
    subcommands = _subcommands(cli.build_parser())
    checked = 0
    for line in CODE_LINES:
        words = line.split("#")[0].split()
        flags = [word for word in words if word.startswith("--")]
        if words[:1] == ["shrinker-audit"]:
            assert set(flags) <= _options(subcommands[words[1]]), line
        elif "tools/report_diff.py" in words:
            assert set(flags) <= _options(_report_diff_parser()), line
        else:
            continue
        checked += len(flags)
    # prose shows shrinker-audit flags only: each belongs to some subcommand
    any_subcommand = set().union(*map(_options, subcommands.values()))
    prose = {flag for span in PROSE_SPANS for flag in re.findall(r"--[\w-]+", span)}
    assert prose <= any_subcommand
    assert checked >= 10 and {"--model", "--config", "--samples", "--N"} <= prose
