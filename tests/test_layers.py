"""The exact layers load only the layers below them.

`ScaledScalar`, `BlockPolynomial`, the complexes and the family check read
their input through the readers in `errors`, and `RadPoly` builds on the first
two. Symmetry actions build on the complexes; the invariance test and the
decompositions build on all of these. Each module is imported in a fresh
interpreter, which then lists the omegadec modules it loaded, and whether
numpy or `dataclasses` (which loads `inspect`) is among them: none of these
layers may load either.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

# module -> the omegadec modules it loads
LAYERS = {
    "scalars": {"errors"},
    "blockpoly": {"errors"},
    "complexes": {"errors"},
    "familycheck": {"errors"},
    "radpoly": {"errors", "scalars", "blockpoly"},
    "symmetry": {"errors", "complexes"},
    "invariance": {"errors", "scalars", "blockpoly", "radpoly", "complexes", "symmetry"},
    "decomposition": {"errors", "scalars", "blockpoly", "radpoly", "complexes", "symmetry",
                      "invariance"},
}

PROBE = """
import importlib, json, sys
importlib.import_module("omegadec." + sys.argv[1])
print(json.dumps({"modules": sorted(m[len("omegadec."):] for m in sys.modules
                                    if m.startswith("omegadec.")),
                  "dataclasses": "dataclasses" in sys.modules,
                  "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("module", LAYERS)
def test_each_layer_loads_only_the_layers_below_it(module):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", PROBE, module], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    assert set(probe["modules"]) == LAYERS[module] | {module}
    assert not probe["dataclasses"] and not probe["numpy"]
