import ast
import tokenize
from pathlib import Path

import mdelab


def small_literals(path: Path) -> list[str]:
    """Numeric literals with 0 < |value| < 1e-3 in a source file.

    Docstrings and comments are STRING and COMMENT tokens, so a threshold
    named in prose is not counted.
    """
    found = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NUMBER and 0 < abs(ast.literal_eval(tok.string)) < 1e-3:
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return found


def test_no_threshold_literal_outside_the_tolerance_module():
    src = Path(mdelab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name != "tolerances.py":
            found += small_literals(path)
    assert found == []

