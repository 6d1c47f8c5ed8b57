"""The README's Quick start block runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_values():
    """Run the Quick start block; the value of each bare expression, in order."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def test_quick_start_values():
    conv, ratio, objective, defect = quick_start_values()
    assert abs(conv - 4 * np.pi) <= 1e-12 * 4 * np.pi
    assert abs(ratio - 2 * np.pi) <= 1e-12 * 2 * np.pi
    assert abs(objective - 2 * np.pi) <= 1e-12 * 2 * np.pi
    assert defect < 1e-12
