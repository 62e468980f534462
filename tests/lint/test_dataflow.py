"""Dataflow instances: hypothesis agreement with CPython, join precision.

The headline property: on straight-line integer programs, constant
propagation's environment at the end equals what ``exec`` computes —
the evaluator mirrors CPython semantics exactly on its supported
subset.
"""

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.flow import ConstantPropagation
from repro.lint.flow.dataflow import NAC, UNDEF, constant_env_at, eval_const_expr

NAMES = ("a", "b", "c", "d")


@st.composite
def straightline_program(draw):
    """A list of ``name = operand op operand`` lines over ints."""
    n = draw(st.integers(min_value=1, max_value=8))
    lines = []
    defined: list[str] = []

    def operand() -> str:
        if defined and draw(st.booleans()):
            return draw(st.sampled_from(defined))
        return str(draw(st.integers(min_value=-9, max_value=9)))

    for _ in range(n):
        target = draw(st.sampled_from(NAMES))
        op = draw(st.sampled_from(["+", "-", "*"]))
        lines.append(f"{target} = {operand()} {op} {operand()}")
        if target not in defined:
            defined.append(target)
    return lines


@settings(deadline=None, max_examples=200)
@given(straightline_program())
def test_constprop_agrees_with_exec_on_straight_line(lines):
    src = "def f():\n" + "".join(f"    {ln}\n" for ln in lines) + "    pass\n"
    func = ast.parse(src).body[0]
    env = constant_env_at(func, func.body[-1])

    ns: dict = {}
    exec("\n".join(lines), {"__builtins__": {}}, ns)  # noqa: S102 - test oracle

    for name, want in ns.items():
        got = env.get(name)
        assert got == want and type(got) is type(want), (name, got, want)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.sampled_from(["+", "-", "*", "//", "%", "==", "!=", "<", "<=", ">", ">="]),
)
def test_eval_const_expr_matches_eval(a, b, op):
    src = f"({a}) {op} ({b})"
    expr = ast.parse(src, mode="eval").body
    got = eval_const_expr(expr, {})
    try:
        want = eval(src)  # noqa: S307 - test oracle over literal ints
    except ZeroDivisionError:
        assert got is NAC
        return
    assert got == want and type(got) is type(want)


def _last_stmt_env(code: str):
    func = ast.parse(code).body[0]
    return ConstantPropagation(func).env_at(func.body[-1])


def test_join_widens_conflicting_branch_values_to_nac():
    env = _last_stmt_env(
        "def f(flag):\n"
        "    if flag:\n"
        "        x = 1\n"
        "    else:\n"
        "        x = 2\n"
        "    pass\n"
    )
    assert env["x"] is NAC


def test_join_keeps_agreeing_branch_values():
    env = _last_stmt_env(
        "def f(flag):\n"
        "    if flag:\n"
        "        x = 7\n"
        "    else:\n"
        "        x = 7\n"
        "    pass\n"
    )
    assert env["x"] == 7


def test_loop_carried_variable_is_nac_but_invariant_is_const():
    env = _last_stmt_env(
        "def f(items):\n"
        "    scale = 4\n"
        "    acc = 0\n"
        "    for it in items:\n"
        "        acc = acc + 1\n"
        "    pass\n"
    )
    assert env["scale"] == 4
    assert env["acc"] is NAC


def test_parameters_start_as_nac():
    env = _last_stmt_env("def f(x):\n    pass\n")
    assert env["x"] is NAC


def test_eval_const_expr_supported_builtins_and_bool_ops():
    env = {"x": 3}
    cases = {
        "abs(-x)": 3,
        "max(x, 10)": 10,
        "x > 0 and x < 5": True,
        "x == 1 or x == 3": True,
        "-x if x > 0 else x": -3,
    }
    for src, want in cases.items():
        got = eval_const_expr(ast.parse(src, mode="eval").body, env)
        assert got == want, (src, got, want)
    assert eval_const_expr(ast.parse("open('f')", mode="eval").body, env) is NAC
    assert eval_const_expr(ast.parse("y + 1", mode="eval").body, env) is NAC


def test_undef_sentinel_reprs_distinct():
    assert repr(UNDEF) == "UNDEF" and repr(NAC) == "NAC"
    assert UNDEF is not NAC
