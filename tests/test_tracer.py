"""The benchmark's tracer must still install over the package.

``perfbench/tracer.py`` wraps linrel's public functions and methods by name,
so a refactor that removes or renames one breaks ``perfbench/run.py
--trace 1``.  This test installs the tracer in a fresh interpreter, so that
the wrappers do not leak into the other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

from linrel import relation
from linrel.relation import LinearRelation

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import tracer
from linrel import LinearRelation, relation

t = tracer.Tracer()
t.install()
a = LinearRelation.from_generators(2, 2, [(1, 0, 1, 2), (0, 1, 0, 1)])
b = LinearRelation.from_generators(2, 1, [(1, 1, 3), (0, 0, 1)])
relation.compose(b, a)
relation.profile(a)
m = t.metrics()
assert m["relation.compose_calls"] >= 1, m
assert m["subspace.calls"] >= 1, m
print("ok")
"""

PROFILE_SCRIPT = """
import tracer
from linrel import LinearRelation, relation

t = tracer.Tracer()
t.install()
a = LinearRelation.from_generators(2, 2, [(1, 0, 1, 2), (0, 0, 0, 1)])
a.profile()
relation.profile(a)
m = t.metrics()
# the method is the function, so each spelling is one traced call
assert m["relation.profile_calls"] == 2, m
assert m["relation.profile_repeat_frac"] == 0.5, m
print("ok")
"""

SOLVER_SCRIPT = """
import tracer
from linrel import LinearRelation, Matrix, factor

t = tracer.Tracer()
t.install()
a = LinearRelation.graph_of_matrix(Matrix.from_rows([[1, 2], [0, 0]]))
b = LinearRelation.identity(2)
for name in tracer.SOLVERS:
    assert getattr(factor, name)(a, b).solvable, name
m = t.metrics()
for name in tracer.SOLVERS:
    assert m[f"factor.{name}.calls"] == 1, m
assert m["factor.solvable_frac"] == 1.0, m
# each solvable answer composes twice, the witness's candidate and its
# check, but the candidate is one stacked product, not a traced compose
assert m["factor.compose_per_solve"] == 1.0, m
print("ok")
"""


HARNESS_SCRIPT = """
import tracer
from linrel import LinearRelation, harness

t = tracer.Tracer()
t.install()
a = LinearRelation.from_generators(1, 2, [(1, 1, 1)])
b = LinearRelation.identity(2)
assert harness.oracle_product_membership(a, b, (1,), (1, 1))
assert harness.brute_force_right_witness(a, b) is not None
assert harness.brute_force_left_witness(a, LinearRelation.identity(1)) == a
m = t.metrics()
assert m["harness.oracle_calls"] >= 1, m
assert m["harness.grid_candidates"] >= 1, m
print("ok")
"""


def _run_traced(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_tracer_installs_and_counts():
    _run_traced(SCRIPT)


def test_profile_method_is_the_memoized_function():
    assert LinearRelation.profile is relation.profile


def test_tracer_counts_each_profile_call_once():
    _run_traced(PROFILE_SCRIPT)


def test_tracer_counts_compose_per_solve():
    _run_traced(SOLVER_SCRIPT)


def test_tracer_wraps_the_oracle_and_the_brute_force_search():
    _run_traced(HARNESS_SCRIPT)
