"""The suite's AST fences, one row per rule.

Each rule below is stated in one place of the program, and its fence
keeps it there.  A row holds the pattern, the files it searches, the
exact {file: owners} where it matches today, and a hand-written sample
with the owners it must report.  The owner of a match is the innermost
function around it, or "<module>".  Docstrings are string constants,
which the syntax tree does not search.  Adding a rule means one row
plus one sample.
"""

import ast
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src/**/*.py", "scripts/*.py")

# The point and table fields the library's text forms read: `label()`,
# `json_fields()` and `BurnsidePresentation.table()`.
POINT_FIELDS = {"layer", "char", "height", "residue", "_products"}


def owners(tree: ast.AST, match: Callable[[ast.AST], bool]) -> set[str]:
    """The innermost function, or "<module>", around each node that
    `match` accepts."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def names(node: ast.AST) -> set[str]:
    """Every name and attribute name in node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def calls(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and name in names(node.func)


def raises(node: ast.AST, name: str) -> bool:
    """Whether node is `raise name` or `raise name(...)`."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    return name in names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)


def minus_one(node: ast.AST) -> bool:
    """p - 1 or char - 1, or its negation."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Name)
        and node.left.id in ("p", "char")
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
    )


def congruence(node: ast.AST) -> bool:
    """A remainder or a range step by p - 1 or char - 1."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return minus_one(node.right)
    return calls(node, "range") and len(node.args) == 3 and minus_one(node.args[2])


def bound(node: ast.AST) -> bool:
    """A comparison with the int 0 or 1 by <, <=, > or >=."""
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
        and any(
            isinstance(side, ast.Constant) and type(side.value) is int and side.value in (0, 1)
            for side in (node.left, *node.comparators)
        )
    )


def bound_guard(node: ast.AST) -> bool:
    """An `if` that tests a bound of 0 or 1 and raises ValueError in its body."""
    return (
        isinstance(node, ast.If)
        and any(bound(n) for n in ast.walk(node.test))
        and any(raises(n, "ValueError") for stmt in node.body for n in ast.walk(stmt))
    )


def pipe_handler(node: ast.AST) -> bool:
    """An `except` naming BrokenPipeError, or a call of dup2."""
    if isinstance(node, ast.ExceptHandler):
        return node.type is not None and "BrokenPipeError" in names(node.type)
    return calls(node, "dup2")


class Fence(NamedTuple):
    match: Callable[[ast.AST], bool]
    globs: tuple[str, ...]
    expected: dict[str, set[str]]
    sample: str
    sample_owners: set[str]


FENCES = {
    # The admissibility inequality is stated once in each of its two
    # forms: capped at hmax in `_widths`, which the count DP and the
    # listing walk read, and exact in `is_p_admissible`.
    "delta_p in classify": Fence(
        lambda node: calls(node, "delta_p"),
        ("src/excspec/classify.py",),
        {"src/excspec/classify.py": {"_widths", "is_p_admissible"}},
        "def f(p, k):\n"
        "    return delta_p(p, k, 1)\n"
        "def g(p, k):\n"
        "    return [combinat.delta_p(p, k, l) for l in range(1, k)]\n"
        "def h(delta_p):\n"
        "    return delta_p\n",
        {"f", "g"},
    ),
    # Only combinat states p-1 | k-l: delta_p tests it, layer_class walks it.
    "layer congruence": Fence(
        congruence,
        PROGRAM,
        {"src/excspec/combinat.py": {"delta_p", "layer_class"}},
        "def f(k, l, p):\n"
        "    return (k - l) % (p - 1) == 0\n"
        "def g(k, char):\n"
        "    return range(k, 0, -(char - 1))\n"
        "def h(k, p):\n"
        "    return k % p, range(1, k, p), (k - 1) % 2\n"
        "STEP = range(1, 9, p - 1)\n",
        {"f", "g", "<module>"},
    ),
    # Every entry point reads check_height, check_layer, check_window or
    # check_prime, so nothing else restates a bound of 0 or 1.
    "0/1 bound guards": Fence(
        bound_guard,
        PROGRAM,
        {},
        "def f(i, j):\n"
        "    if not 1 <= i <= j:\n"
        "        raise ValueError('need 1 <= i <= j')\n"
        "def g(i, j):\n"
        "    if j > 0:\n"
        "        return i\n"
        "    if i < True:\n"
        "        raise ValueError('a bool is not the int 1')\n"
        "    if i == 1:\n"
        "        raise ValueError('an equality is not a bound')\n"
        "if N < 1:\n"
        "    raise ValueError('at import')\n",
        {"f", "<module>"},
    ),
    # Every budget is refused through combinat.check_budget.
    "BudgetError raises": Fence(
        lambda node: raises(node, "BudgetError"),
        PROGRAM,
        {"src/excspec/combinat.py": {"check_budget"}},
        "def check_budget(name, amount, limit, unit):\n"
        "    raise BudgetError(name)\n"
        "def f(k):\n"
        "    def spend():\n"
        "        raise combinat.BudgetError('over')\n"
        "    if k > 64:\n"
        "        raise BudgetError\n"
        "def g():\n"
        "    try:\n"
        "        pass\n"
        "    except BudgetError:\n"
        "        raise\n"
        "raise BudgetError('at import')\n",
        {"check_budget", "spend", "f", "<module>"},
    ),
    # The exit-code contract is stated once: `cli.main` and both scripts
    # end through `cli.guarded`, so nothing else catches BrokenPipeError
    # or points stdout at /dev/null.
    "closed pipe": Fence(
        pipe_handler,
        PROGRAM,
        {"src/excspec/cli.py": {"guarded"}},
        "import os\n"
        "def f():\n"
        "    try:\n"
        "        print('x')\n"
        "    except (ValueError, BrokenPipeError):\n"
        "        pass\n"
        "def g():\n"
        "    def inner():\n"
        "        os.dup2(0, 1)\n"
        "    return inner\n"
        "def h():\n"
        "    try:\n"
        "        pass\n"
        "    except OSError:\n"
        "        return os.open(os.devnull, os.O_WRONLY)\n"
        "try:\n"
        "    pass\n"
        "except BrokenPipeError:\n"
        "    pass\n",
        {"<module>", "f", "inner"},
    ),
    # cli.py parses and prints: each point prints itself, and the ring
    # table is walked by `BurnsidePresentation.table()`.
    "point fields in cli": Fence(
        lambda node: isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in POINT_FIELDS,
        ("src/excspec/cli.py",),
        {},
        "def label(pt):\n"
        "    char = '*' if pt.height == 1 else str(pt.char)\n"
        "    return f'P({pt.layer}|{char},{pt.height})'\n"
        "def poset(args):\n"
        "    return lambda q: {'char': q.residue}\n"
        "def ring(pres):\n"
        "    return [terms for row in pres._products for terms in row]\n"
        "def fine(pt, args):\n"
        "    pt.layer = 1\n"
        "    return pt.label(), args.slice, {'layer': 1}\n",
        {"label", "poset", "ring"},
    ),
}


@pytest.mark.parametrize("fence", FENCES.values(), ids=FENCES.keys())
def test_the_rule_is_stated_only_where_it_lives(fence):
    found = {}
    for glob in fence.globs:
        paths = sorted(ROOT.glob(glob))
        assert paths, f"{glob} matches no file"
        for path in paths:
            where = owners(ast.parse(path.read_text()), fence.match)
            if where:
                found[path.relative_to(ROOT).as_posix()] = where
    assert found == fence.expected


@pytest.mark.parametrize("fence", FENCES.values(), ids=FENCES.keys())
def test_the_fence_sees_its_sample(fence):
    assert owners(ast.parse(fence.sample), fence.match) == fence.sample_owners
