"""The private numpy and scipy names that plumeflux imports, pinned.

A private module or name (any dotted part, or the imported name, starting
with ``_``) can change or vanish in any release, so each one is a decision
this list records.
"""

import ast
from pathlib import Path

import plumeflux

ALLOWED = {"matched_filter": {"numpy.linalg._umath_linalg"}}


def private_imports(source: str) -> set[str]:
    """Dotted names of the private numpy and scipy modules or names that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names
            if name.split(".")[0] in ("numpy", "scipy") and any(part.startswith("_") for part in name.split("."))}


def test_private_imports_are_the_allowed_ones():
    found = {path.stem: names for path in sorted(Path(plumeflux.__file__).parent.glob("*.py"))
             if (names := private_imports(path.read_text(encoding="utf-8")))}
    assert found == ALLOWED


def test_a_private_name_or_module_is_found():
    source = ("import numpy as np\nfrom numpy import linalg\nimport scipy._lib.x\n"
              "def f():\n    from scipy.sparse import _sparsetools, csr_array\n    from .kernels import _padded\n")
    assert private_imports(source) == {"scipy._lib.x", "scipy.sparse._sparsetools"}
