"""The package's public surface: every module defines ``__all__``, every
name in it exists, and ``dispersivelab/__init__.py`` re-exports only names
in the ``__all__`` of the module it imports them from.  The private names
that each module imports from a sibling are pinned, so a new private twin
of a public function shows up as an edit to that table.  Only ``spectral``
reaches numpy's FFT module: every transform goes through its door."""

import ast
import importlib
from pathlib import Path

import dispersivelab

MODULES = ("spectral", "operators", "norms", "propagators", "laws", "corpus", "checks", "cli")


def test_star_imports_and_package_reexports_are_public():
    for mod in MODULES:
        assert hasattr(importlib.import_module(f"dispersivelab.{mod}"), "__all__"), mod
        exec(f"from dispersivelab.{mod} import *", {})  # raises on a stale __all__ entry
    tree = ast.parse(Path(dispersivelab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"dispersivelab.{node.module}").__all__
        stale = [a.name for a in node.names if a.name not in public]
        assert not stale, f"dispersivelab re-exports {stale} outside {node.module}.__all__"


# module -> sibling -> the private names it imports from that sibling
PRIVATE_IMPORTS = {
    "checks": {
        "corpus": {"_realize_blocks", "_require_corpus_keys"},
        "norms": {"_lebesgue_rows", "_powers", "_require_finite", "_spectral_l2"},
        "operators": {"_bessel_table", "_derivative_table", "_lp_deriv_linf_l1", "_riesz_table"},
        "propagators": {"_group_scan", "_group_table"},
        "spectral": {
            "_gate_error", "_multiply", "_require_gate", "_row_blocks", "_spectrum", "_table_norm",
        },
    },
    "cli": {"checks": {"_require_work"}},
    "corpus": {"spectral": {"_gate_error", "_row_blocks"}},
    "laws": {"propagators": {"_power"}, "spectral": {"_one_row", "_per_row"}},
    "norms": {"operators": {"_bessel_table"}, "spectral": {"_one_row", "_per_row", "_table_norm"}},
    "operators": {
        "spectral": {
            "_Bands", "_Table", "_banded", "_build_table", "_fft", "_ifft", "_multiply",
            "_multiply_bands", "_per_row", "_table",
        }
    },
    "propagators": {
        "spectral": {
            "_Table", "_banded", "_fft", "_ifft", "_irfft", "_mirror", "_mirrored_table",
            "_multiply", "_multiply_bands", "_rfft",
        }
    },
}


def test_private_imports_between_modules_are_pinned():
    found = {}
    for path in sorted(Path(dispersivelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private = {a.name for a in node.names if a.name.startswith("_")}
                if private:
                    found.setdefault(path.stem, {}).setdefault(node.module, set()).update(private)
    assert found == PRIVATE_IMPORTS


def test_only_spectral_reaches_numpy_fft():
    for path in sorted(Path(dispersivelab.__file__).parent.glob("*.py")):
        if path.stem != "spectral":
            text = path.read_text()
            assert "np.fft" not in text and "numpy.fft" not in text, path.name
