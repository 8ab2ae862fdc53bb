"""Mutation table: which bundled checks notice a wrong action.

Each mutant changes one term of the gauge or de Rham action with
``monkeypatch``, never in the source, and ``run --bundled --no-timing``
runs in process.  A killed mutant must exit 1 with exactly the failing
checks recorded here, named ``scenario:check``; a later change that makes
one of those checks vacuous shows up as a changed set.  The survivors pass
every bundled check, so the report says ``pass`` on an action that is not
the one the scenario declares (ROADMAP item 12); they are strict xfails
that expect exit 1, and turn into failures once a check kills them.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from gaugemods import derham, gauge
from gaugemods.cli import main


def bundled_failures():
    """The exit code of ``run --bundled --no-timing`` and its failing checks."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["run", "--bundled", "--no-timing"])
    report = json.loads(out.getvalue())
    return code, {f"{s['name']}:{c['name']}" for s in report["scenarios"]
                  for c in s["checks"] if c["status"] == "fail"}


def after_init(monkeypatch, cls, mutate):
    """Run ``mutate`` on every new instance of ``cls`` once it is built."""
    init = cls.__init__

    def mutated(self, *args, **kwargs):
        init(self, *args, **kwargs)
        mutate(self)
    monkeypatch.setattr(cls, "__init__", mutated)


def negate_rho(gm):
    gm.rho_columns = tuple(tuple(tuple({r: -c for r, c in col.items()} for col in rho)
                                 for rho in row) for row in gm.rho_columns)


def transpose_rho(gm):
    """rho(E_pi) read as rho(E_ip)."""
    rc = gm.rho_columns
    gm.rho_columns = tuple(tuple(rc[i][p] for i in range(len(rc))) for p in range(len(rc)))


def double_field(connection):
    connection.field_columns = tuple(
        tuple(tuple((r, b + b) for r, b in col) for col in columns)
        for columns in connection.field_columns)


def drop_twist(connection):
    connection.twist = None


# on the line (gl_1) rho(E_11) transposed is itself, and negated it is the
# gl_1 module of weight -1, so the action is still a module action and
# affine1_gauge passes both
SAMPLED_GAUGE_CHECKS = {f"{s}:gauge.{c}"
                        for s in ("affine2_gauge", "sphere_gauge_flat", "sphere_gauge_grad")
                        for c in ("lie_action", "twist_roundtrip")}
GAUGE_CONSISTENCY = {"derham_affine2:derham.gauge_consistency",
                     "derham_sphere:derham.gauge_consistency"}
CROSSCHECK = {"circle:circle.crosscheck"}


def test_the_unmutated_run_passes():
    assert bundled_failures() == (0, set())


@pytest.mark.parametrize("mutate, failing", [
    (negate_rho, SAMPLED_GAUGE_CHECKS | GAUGE_CONSISTENCY | CROSSCHECK),
    (transpose_rho, SAMPLED_GAUGE_CHECKS | GAUGE_CONSISTENCY),
], ids=["rho term negated", "rho(E_pi) read as rho(E_ip)"])
def test_a_wrong_rho_term_is_killed(monkeypatch, mutate, failing):
    after_init(monkeypatch, gauge.GaugeModule, mutate)
    assert bundled_failures() == (1, failing)


def test_a_doubled_b_in_act_is_killed_by_the_crosscheck_alone(monkeypatch):
    after_init(monkeypatch, gauge._Connection, double_field)
    assert bundled_failures() == (1, CROSSCHECK)


@pytest.mark.xfail(strict=True, reason="no bundled check compares the twist with the "
                                       "declared one (ROADMAP item 12)")
def test_a_twist_never_added_is_killed(monkeypatch):
    after_init(monkeypatch, gauge._Connection, drop_twist)
    assert bundled_failures()[0] == 1


@pytest.mark.xfail(strict=True, reason="no bundled de Rham scenario sets B "
                                       "(ROADMAP item 12)")
def test_a_doubled_b_in_d_is_killed(monkeypatch):
    d = derham.d
    monkeypatch.setattr(derham, "d", lambda B, x: d([b + b for b in B], x))
    assert bundled_failures()[0] == 1
