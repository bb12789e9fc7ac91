import contextlib
import hashlib
import io
import os
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

from linrel import Subspace, cli, harness, serialize_relation
from linrel.exact import check_canonical

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI draws the same examples on every run and prints the blob that replays a
# failure, so a CI failure reproduces locally under HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", settings.get_profile("default"), derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def source_env():
    """The environment for a child interpreter, with this checkout's ``src``
    first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class FullCheck(NamedTuple):
    code: int
    out: str
    err: str
    digest: str
    canonical: int


@pytest.fixture(scope="session")
def full_check():
    """One ``linrel check --suite full --seed 0``, the only run of every
    suite at seed 0, with two recorders patched in.

    Every suite reports through ``_first_failure``, so ``digest`` takes each
    check it is handed, as it is drawn, and the kind and text of each shown
    relation.  Internal constructors skip the public constructor's
    canonical-form check, so ``Subspace._make`` gets it back: a non-canonical
    construction raises, and ``check`` exits 1 with the row on ``err``.
    ``canonical`` counts the constructions that passed it."""
    digest = hashlib.sha256()
    first_failure = harness._first_failure
    make = Subspace._make.__func__
    canonical = 0

    def recorded(checks, *shown, kind=None):
        def drawn():
            for label, ok in checks:
                digest.update(f"{label}: {ok!r}\n".encode())
                yield label, ok

        digest.update(f"kind {kind}\n".encode())
        for rel in shown:
            digest.update(serialize_relation(rel).encode("ascii"))
        return first_failure(drawn(), *shown, kind=kind)

    def checked(cls, ambient_dim, rows):
        nonlocal canonical
        check_canonical(rows, ambient_dim)
        canonical += 1
        return make(cls, ambient_dim, rows)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(harness, "_first_failure", recorded)
        patch.setattr(Subspace, "_make", classmethod(checked))
        code = cli.main(["check", "--suite", "full", "--seed", "0"])
    return FullCheck(code, out.getvalue(), err.getvalue(), digest.hexdigest(), canonical)
