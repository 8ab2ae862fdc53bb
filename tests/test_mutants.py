"""Mutation table: which bundled checks notice a wrong action.

Each mutant changes one term of the gauge, tau, de Rham or circle action
with ``monkeypatch``, never in the source, and ``run --bundled --no-timing``
runs in process.  A killed mutant must exit 1 with exactly the failing
checks recorded here, named ``scenario:check``; a later change that makes
one of those checks vacuous shows up as a changed set.  One mutant makes a
bundled check raise, and its test asserts that error instead.  The
survivors pass every bundled check, so the report says ``pass`` on an
action that is not the one the scenario declares (ROADMAP item 12); they
are strict xfails that expect exit 1, and turn into failures once a check
kills them.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from gaugemods import circle, derham, gauge, groebner
from gaugemods.cli import main
from gaugemods.groebner import LocalizedElement


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


def drop_fields(connection):
    """f_i tau_i(g) dropped from the action: the columns of M_eta are built
    while the f_i are still known."""
    for u in range(len(connection.field_columns[0])):
        connection.column(u)
    connection.fields = []


def mutate_tau(monkeypatch, mutate):
    """tau(a) replaced by mutate(a, tau, tau(a)) in every derivation."""
    loc_partial = groebner.loc_partial
    monkeypatch.setattr(groebner, "loc_partial",
                        lambda a, tau: mutate(a, tau, loc_partial(a, tau)))


def n_tau_h(a, tau, power):
    """n t / h^power for a = n / h^p and tau(h) = t / h^k."""
    return LocalizedElement(a.loc, a.num * tau.tau_h.num, power)


def far(a, tau):
    """The power p + 1 + k of the quotient rule's term p n tau(h) / h^(p+1)."""
    return a.hpower + 1 + tau.tau_h.hpower


# on the line (gl_1) rho(E_11) transposed is itself, and negated it is the
# gl_1 module of weight -1, so the action is still a module action and
# affine1_gauge passes both
SAMPLED_GAUGE_CHECKS = {f"{s}:gauge.{c}"
                        for s in ("affine2_gauge", "sphere_gauge_flat", "sphere_gauge_grad")
                        for c in ("lie_action", "twist_roundtrip")}
GAUGE_CONSISTENCY = {"derham_affine2:derham.gauge_consistency",
                     "derham_sphere:derham.gauge_consistency"}
CROSSCHECK = {"circle:circle.crosscheck"}
ALL_SAMPLED_GAUGE_CHECKS = {f"{s}:gauge.{c}"
                            for s in ("affine1_gauge", "affine2_gauge", "sphere_gauge_flat",
                                      "sphere_gauge_grad")
                            for c in ("av_compat", "lie_action", "twist_roundtrip")}
# the bundled checks derive a fraction n / h^p with p > 0 and tau(h) != 0
# only on the sphere's chart z, so only there is the quotient rule's
# p n tau(h) term not 0
SPHERE_TAU = {"derham_sphere:derham.complex", "derham_sphere:derham.morphism"} | {
    f"{s}:gauge.{c}" for s in ("sphere_gauge_flat", "sphere_gauge_grad")
    for c in ("lie_action", "twist_roundtrip")}
SPHERE_AV_COMPAT = {"sphere_gauge_flat:gauge.av_compat", "sphere_gauge_grad:gauge.av_compat"}


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


def test_a_dropped_f_tau_g_term_is_killed(monkeypatch):
    after_init(monkeypatch, gauge._Connection, drop_fields)
    assert bundled_failures() == (1, ALL_SAMPLED_GAUGE_CHECKS | GAUGE_CONSISTENCY | CROSSCHECK)


@pytest.mark.parametrize("mutate, failing", [
    (lambda a, tau, r: r - n_tau_h(a, tau, far(a, tau)) if a.hpower else r,
     SPHERE_TAU | SPHERE_AV_COMPAT),
    (lambda a, tau, r: r + n_tau_h(a, tau, far(a, tau)) * (2 * a.hpower),
     SPHERE_TAU),
    (lambda a, tau, r: r + (n_tau_h(a, tau, far(a, tau))
                            - n_tau_h(a, tau, a.hpower + 1)) * a.hpower,
     SPHERE_TAU),
], ids=["p read as p+1", "sign of p n tau(h) flipped", "power p+1+k read as p+1"])
def test_a_wrong_quotient_rule_is_killed(monkeypatch, mutate, failing):
    mutate_tau(monkeypatch, mutate)
    assert bundled_failures() == (1, failing)


def test_a_p0_tau_over_one_more_h_is_refused_as_a_non_closed_form(monkeypatch):
    mutate_tau(monkeypatch, lambda a, tau, r: r if a.hpower else
               LocalizedElement(r.loc, r.num, r.hpower + 1))
    with pytest.raises(ValueError, match="1-form is not closed"):
        bundled_failures()


def test_a_negated_d_is_killed_by_the_image_witness_alone(monkeypatch):
    d = derham.d
    monkeypatch.setattr(derham, "d", lambda B, x: d(B, x).scale(-1))
    assert bundled_failures() == (1, {"derham_affine2:derham.image_witness",
                                      "derham_sphere:derham.image_witness"})


def test_e_n_acting_as_e_n_plus_1_is_killed(monkeypatch):
    act_e = circle.act_e
    monkeypatch.setattr(circle, "act_e", lambda n, x: act_e(n + 1, x))
    assert bundled_failures() == (1, {f"circle:circle.{c}" for c in (
        "annihilator_q", "annihilator_s", "basis", "casimir", "crosscheck", "p_operator",
        "witt")})


@pytest.mark.xfail(strict=True, reason="no bundled check compares the twist with the "
                                       "declared one (ROADMAP item 12)")
def test_a_twist_never_added_is_killed(monkeypatch):
    monkeypatch.setattr(gauge.GaugeModule, "twist", lambda self, omega: self)
    assert bundled_failures()[0] == 1


@pytest.mark.xfail(strict=True, reason="no bundled de Rham scenario sets B "
                                       "(ROADMAP item 12)")
def test_a_doubled_b_in_d_is_killed(monkeypatch):
    d = derham.d
    monkeypatch.setattr(derham, "d", lambda B, x: d([b + b for b in B], x))
    assert bundled_failures()[0] == 1
