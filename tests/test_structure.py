"""The north star's structural rules, checked on the syntax trees of ``src``.

- The FD oracle (``numgeom``) never sees closed-form curvature.
- Inside ``phigeo``, the discrete descent and the shooting side (the march,
  Newton shooting and their constants) name nothing of each other. They
  share only the problem: ``PhiParams``, phi, grad phi, the action and C.
- ``cli`` is the only module that opens a file.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shrinker_audit"

CLOSED_FORM_CURVATURE = {"scalar_R", "ricci_norm_sq", "eval_geometry", "chart_ricci",
                         "GeometryEval"}
SHARED_PROBLEM = {"PhiParams", "phi_value", "grad_phi", "action", "conserved_quantity"}
DESCENT_FUNCTIONS = {"minimize_action_discrete", "_discrete_action", "_discrete_gradient",
                     "_solve_dirichlet_laplacian"}
DESCENT_CONSTANTS = ("DESCENT_", "DEFAULT_DESCENT_")
CERTIFICATE = ("certify_", "CERTIFY_")
FILE_OPENS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)


def _names(node: ast.AST) -> set:
    """Every identifier a tree names: variables, attributes, imported names,
    and string constants, which ``getattr`` could turn into a name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update({sub.name.rpartition(".")[2], sub.asname} - {None})
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _top_level(tree: ast.Module) -> dict:
    """Each module-level function, class or assigned name, with its statement."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defs[sub.id] = node
    return defs


def _called(tree: ast.Module) -> set:
    """The name of every callee: ``f(...)`` gives f, ``x.f(...)`` gives f."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_fd_oracle_never_names_closed_form_curvature():
    assert _names(_tree("numgeom.py")) & CLOSED_FORM_CURVATURE == set()


def test_descent_and_shooting_share_only_the_problem():
    defs = _top_level(_tree("phigeo.py"))
    descent = {name for name in defs
               if name in DESCENT_FUNCTIONS or name.startswith(DESCENT_CONSTANTS)}
    shooting = {name for name in defs
                if name not in descent | SHARED_PROBLEM and not name.startswith(CERTIFICATE)}
    # the rule is about names that exist, on both sides
    assert DESCENT_FUNCTIONS | SHARED_PROBLEM <= set(defs)
    assert {"_march", "_shooting", "solve_bvp_shooting"} <= shooting
    for side, other in ((descent, shooting), (shooting, descent)):
        for name in sorted(side):
            crossing = _names(defs[name]) & other
            assert not crossing, f"phigeo.{name} names {sorted(crossing)} of the other solver"


def test_the_file_open_detector_sees_the_cli():
    assert "open" in _called(_tree("cli.py"))


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")
                                          if path.name != "cli.py"))
def test_only_the_cli_opens_files(module):
    assert _called(_tree(module)) & FILE_OPENS == set()
