"""The benchmark's four workloads.

Each workload turns (seed, round index) into the inputs of one round of
operations during set-up, so every timed round works on fresh values of
the same shape.  ``Op.run`` is what the timed window measures; it includes
the library's own exact check and returns ``(ok, output)``.  ``Op.verify``
is the benchmark's independent oracle and runs after the timing stops; it
returns ``None`` when the output agrees with it, or the kind of failure.
Library calls go through module attributes (``maass.check_maass``) so the
traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

from hermlift import cli, congr, elliptic, hecke, hermitian, lfun, maass, quadfield, ring
from hermlift.quadfield import FieldParams

ZZ = ring.HeckeRing([0, 1])
GAUSS = ring.HeckeRing([1, 0, 1])
QUARTIC = ring.HeckeRing([1, 0, 0, 0, 1])  # Z[x]/(x^4 + 1)

# Failure kinds that count in ``failed`` without making the run incorrect:
# the CLI's known range defect (see perfbench/README.md), an honest refusal
# (exit 2 with a message), and a command whose input an earlier failed
# command never wrote.
KNOWN_FAILURES = ("range-defect", "refused", "upstream")


@dataclass
class Op:
    label: str
    units: int
    run: Callable[[], tuple[bool, object]]
    verify: Callable[[object], str | None] | None = None
    canonical: Callable[[object], object] | None = None  # what the digest covers


def derive(*parts) -> int:
    """A seed for one input, fixed by the benchmark seed and the input's role."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_by_type(D: int, want: int, count: int) -> list[int]:
    out, p = [], 2
    while len(out) < count:
        if is_prime(p) and quadfield.chi_K(D, p) == want:
            out.append(p)
        p += 1
    return out


def eigen_ops(D: int, primes, ell: int) -> list:
    """The operators a congruence report compares, chosen as the CLI chooses
    them: T1 and T2 at split primes, T0 and Up at inert ones."""
    ops = []
    for p in primes:
        if p in (D, ell) or not is_prime(p):
            continue
        kinds = ("SplitT1", "SplitT2") if quadfield.chi_K(D, p) == 1 else ("InertT0", "InertUp")
        ops += [hecke.HeckeOpId.make(kind, p, D, ell) for kind in kinds]
    return ops


def canon(x) -> str:
    """Canonical text of an exact output, for the run digest."""
    if isinstance(x, ring.HeckeElem):
        return f"{list(x.num)}/{x.den}"
    if isinstance(x, maass.CoeffTable):
        head = f"table {x.D} {x.params.k} {list(x.ring.modulus)} {x.bound_det} {x.bound_diag}"
        rows = [
            f"{h.coords()} {canon(x.values[h])}"
            for h in sorted(x.values, key=hermitian.HermPoint.sort_key)
        ]
        return "\n".join([head, *rows])
    if isinstance(x, elliptic.QExpansion):
        return f"qexp {x.n_max} " + " ".join(f"{n}:{canon(x.coeffs[n])}" for n in sorted(x.coeffs))
    if isinstance(x, lfun.EulerFactor):
        return f"euler {x.norm} " + " | ".join(repr(c) for c in x.coeffs)
    if isinstance(x, dict):
        return "{" + ", ".join(f"{canon(k)}: {canon(v)}" for k, v in sorted(x.items(), key=repr)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(canon(v) for v in x) + "]"
    return repr(x)


class Workload:
    name = ""
    unit = ""
    operation = ""
    nominal_round_s = 1.0  # one round's timed work on the defining machine
    round_multiple = 1

    def rounds_for(self, seconds: float) -> int:
        k = max(1, round(seconds / self.nominal_round_s))
        return -(-k // self.round_multiple) * self.round_multiple

    def prepare(self, workdir: str, seed: int):
        """Set-up shared by all rounds of one run."""
        return None

    def make_round(self, ctx, seed: int, r: int) -> list[Op]:
        """The operations of round r; the warm-up round is r = -1."""
        raise NotImplementedError

    def warm_up(self, ctx, seed: int) -> None:
        for op in self.make_round(ctx, seed, -1):
            op.run()

    def attach_tracer(self, ctx, tracer) -> None:
        """Let work done in other processes report to ``tracer`` (None detaches)."""

    def peak_rss_kb(self, ctx) -> int:
        """Peak resident memory of the process doing the work so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# inert-maass


@dataclass(frozen=True)
class InertSpec:
    D: int
    p: int
    kind: str
    act: str
    bound_det: int
    bound_diag: int
    points: int


class InertMaass(Workload):
    """Inert T0, T and Up on random-alpha lifts, each output membership-checked.

    Every round applies T0, T and Up, for both fields, at both of the two
    smallest inert primes to shallow tables (diag 2).  At the smallest inert
    prime it also applies T0 and Up (which is T twice) to a deep table (diag
    6, bound just large enough for a point of content 6 and positive
    determinant) of one field, alternating.  With eight deep operations per
    run the tail percentile falls inside one operator's latency cluster.
    Tables stay within one alpha range per field, which caps Up, since Up
    needs alpha up to p^4 times the determinant bound and generating alpha
    is set-up work.
    """

    name = "inert-maass"
    unit = "output points checked"
    operation = "one inert operator applied to a lift and materialised, plus check_maass on the result"
    nominal_round_s = 3.6
    round_multiple = 4
    ALPHA_RANGE = {7: 18000, 23: 24000}
    SHALLOW = (2, 4, ("T0", "T", "Up"))  # (bound_diag, bound_det / D, operators)
    DEEP = {7: (6, 108, ("T0", "Up")), 23: (6, 180, ("T0", "Up"))}  # (bound_diag, bound_det, operators)
    ACT = {"T0": ("act_inert_T0", 2), "T": ("act_inert_T", 2), "Up": ("act_inert_Up", 4)}  # p-power reach
    COMBOS = ((ZZ, 8, 7), (GAUSS, 12, 23), (GAUSS, 8, 7), (ZZ, 12, 23))  # ring, k, deep field of round r % 4

    def prepare(self, workdir, seed):
        specs = {}
        for D, reach in self.ALPHA_RANGE.items():
            primes = primes_by_type(D, -1, 2)
            diag, mult, kinds = self.SHALLOW
            shapes = [(p, diag, mult * D, kinds, "shallow") for p in primes]
            shapes.append((primes[0], *self.DEEP[D], "deep"))
            for p, diag, bd, kinds, shape in shapes:
                for kind in kinds:
                    act, step = self.ACT[kind]
                    b = min(bd, reach // p**step)
                    npts = len(hermitian.enumerate_points(D, b, diag))
                    specs.setdefault((D, shape), []).append(InertSpec(D, p, kind, act, b, diag, npts))
        return specs

    def make_round(self, specs, seed, r, deep_too=True):
        rg, k, deep = self.COMBOS[r % 4]
        ops = []
        for D, reach in self.ALPHA_RANGE.items():
            t = maass.random_alpha_tuple(
                FieldParams(D, k), quadfield.trivial_char(), rg, reach, seed=derive(self.name, seed, r, D), spread=5
            )
            shapes = ("shallow", "deep") if deep_too and D == deep else ("shallow",)
            ops += [self._op(t, s, k) for shape in shapes for s in specs[(D, shape)]]
        return ops

    def warm_up(self, specs, seed):
        # the shallow tables touch every code path and module cache
        for op in self.make_round(specs, seed, -1, deep_too=False):
            op.run()

    @staticmethod
    def _op(t, s: InertSpec, k: int) -> Op:
        def run():
            out = getattr(hecke, s.act)(t, s.p, s.bound_det, s.bound_diag)
            ok, _ = maass.check_maass(out)
            return ok, out

        label = f"{s.kind}@{s.p} D={s.D} k={k} ring={t.ring.degree} diag={s.bound_diag} det<={s.bound_det}"
        return Op(label, s.points, run)


# ---------------------------------------------------------------------------
# lift-descent


class LiftDescent(Workload):
    """Lift, act, descend and compare with the classical T_p polynomial.

    One operation is one (form, class character, operator) diagram and
    builds its own lift at the range the operator needs.
    """

    name = "lift-descent"
    unit = "coefficients compared"
    operation = "one (form, class character, operator) diagram: build_lift, act, descend, compare"
    nominal_round_s = 1.25
    D = 23
    N = 100  # coefficients compared per diagram and component
    SPLIT_PRIMES = (2, 3)
    INERT_PRIMES = (5, 7)

    def prepare(self, workdir, seed):
        D = self.D
        chars = quadfield.char_values(quadfield.class_group(D))
        pts = {}
        for n in range(1, self.N + 1):
            if maass.a_K(D, n) == 0:
                continue
            for w in quadfield.norm_ball(D, D * (n // D + 3)):
                if (w.norm() + n) % D == 0:
                    pts[n] = hermitian.point(D, 1, (n + w.norm()) // D, w.a, w.b)
                    break
        return chars, pts

    def make_round(self, ctx, seed, r):
        chars, pts = ctx
        k = (8, 12)[r % 2]
        top = max(self.INERT_PRIMES)
        f = elliptic.synthetic_newform(
            FieldParams(self.D, k), GAUSS, "negate-x", p_max=self.N * top * top + 60, seed=derive(self.name, seed, r)
        )
        ops = []
        # split diagrams under all three characters, inert ones under the
        # trivial and one cubic character: the median operation then falls
        # inside one operator's cluster of latencies, not between two
        for chi in chars:
            for p in self.SPLIT_PRIMES:
                for kind, reach in (("SplitT1", p), ("SplitT2", p * p)):
                    ops.append(self._split_op(f, chi, kind, p, reach))
        for chi in chars[:2]:
            for p in self.INERT_PRIMES:
                ops.append(self._inert_op(f, chi, p, pts))
        return ops

    def _split_op(self, f, chi, kind, p, reach) -> Op:
        D, k, N = self.D, f.k, self.N
        h = quadfield.class_group(D).order

        def run():
            t = maass.build_lift(f, chi, N * reach)
            base = maass.descend(t, N * reach)[0][1]
            op = hecke.HeckeOpId.make(kind, p, D)
            dop = hecke.descend_op(op, k)
            lhs = maass.descend(hecke.act_split_on_lift(t, op), N)
            rhs = dop.apply_to_qexp(base, k, D)
            shift = dop.zeta_exponent(chi, D)
            ok = rhs.n_max >= N
            for b, (exp_b, q_b) in lhs.items():
                if chi.order > 1 and exp_b != (chi.exponent(b) + shift) % chi.order:
                    ok = False
                if any(q_b.a(n) != rhs.a(n) for n in range(1, N + 1)):
                    ok = False
            return ok, [(b, e, q) for b, (e, q) in sorted(lhs.items())]

        return Op(f"{kind}@{p} k={k} chi-order={chi.order}", N * h, run)

    def _inert_op(self, f, chi, p, pts) -> Op:
        D, k, N = self.D, f.k, self.N
        points = list(pts.values())

        def run():
            t = maass.build_lift(f, chi, N * p * p)
            comps = maass.descend(t, N * p * p)
            raw = hecke.eval_inert_raw(t, "InertT0", p, points)
            dop = hecke.descend_op(hecke.HeckeOpId.make("InertT0", p, D), k)
            rhs = dop.apply_to_qexp(comps[0][1], k, D)
            ok = all(raw[h] * maass.a_K(D, n) == rhs.a(n) for n, h in pts.items())
            if chi.order > 1:
                ok = ok and all(comps[b][0] == chi.exponent(b) for b in comps)
            return ok, [raw[h] for h in points]

        return Op(f"T0@{p} raw k={k} chi-order={chi.order}", len(points), run)


# ---------------------------------------------------------------------------
# euler-congruence


class EulerCongruence(Workload):
    """Euler-factor identities for every class character, and congruence depths.

    Congruences use one split ell, where val_at Hensel-lifts (13 in Z[i],
    17 in Z[x]/(x^4+1)), and one where no lift is needed (11 in Z[i]).
    """

    name = "euler-congruence"
    unit = "identities checked"
    operation = "one verify_product134 identity, or one eigenvalue or table depth against its bound"
    nominal_round_s = 0.62
    EULER_D = (23, 47, 199)
    P_MAX = 47
    CONGRUENCES = ((GAUSS, 13), (GAUSS, 11), (QUARTIC, 17))
    CONGR_D, K, TABLE_DIAG = 23, 8, 2
    OP_PRIMES = (2, 3, 5, 7, 11)

    def prepare(self, workdir, seed):
        euler = []
        for D in self.EULER_D:
            chars = quadfield.char_values(quadfield.class_group(D))
            primes = [p for p in range(2, self.P_MAX + 1) if is_prime(p) and p != D]
            euler.append((D, chars, primes))
        n_primes = {(rg, ell): len(ring.primes_above(rg, ell)) for rg, ell in self.CONGRUENCES}
        return euler, n_primes

    def make_round(self, ctx, seed, r):
        euler, n_primes = ctx
        ops = []
        for D, chars, primes in euler:
            f = elliptic.synthetic_newform(
                FieldParams(D, self.K), GAUSS, "negate-x", p_max=self.P_MAX, seed=derive(self.name, seed, r, D)
            )
            for p in primes:
                for chi in chars:
                    ops.append(self._identity_op(f, chi, p))
        D = self.CONGR_D
        chi = quadfield.trivial_char()
        n_tab = self.TABLE_DIAG**2 * D
        for rg, ell in self.CONGRUENCES:
            params = FieldParams(D, self.K)
            f, g0 = (
                elliptic.synthetic_newform(params, rg, "negate-x", p_max=n_tab + 10, seed=derive(self.name, seed, r, ell, i))
                for i in (0, 1)
            )
            tf = maass.build_lift(f, chi, n_tab).identity_table(n_tab, self.TABLE_DIAG)
            hops = eigen_ops(D, self.OP_PRIMES, ell)
            for m in (1, 2):
                scale = ell**m
                g = replace(f, ap={p: a + (g0.ap[p] - a) * scale for p, a in f.ap.items()}, label=f"pert-{ell}-{m}")
                g.validate()
                tg = maass.build_lift(g, chi, n_tab).identity_table(n_tab, self.TABLE_DIAG)
                for i in range(n_primes[(rg, ell)]):
                    ops.append(self._eigen_op(f, g, chi, hops, rg, ell, i, m))
                    ops.append(self._table_op(tf, tg, rg, ell, i, m))
        return ops

    @staticmethod
    def _identity_op(f, chi, p) -> Op:
        def run():
            ok, _ = lfun.verify_product134(f, chi, p)
            return ok, None

        return Op(
            f"product134 D={f.D} p={p} chi-order={chi.order}",
            1,
            run,
            canonical=lambda _: lfun.std_factor_lift(f, chi, p),
        )

    @staticmethod
    def _eigen_op(f, g, chi, hops, rg, ell, i, m) -> Op:
        def run():
            prime = ring.primes_above(rg, ell)[i]
            sf = congr.build_eigen_system(f, chi, hops)
            sg = congr.build_eigen_system(g, chi, hops)
            depth, capped = congr.eigen_congruence(sf, sg, prime)["min"]
            return depth >= m, (depth, capped)

        return Op(f"eigen depth ell={ell} deg={rg.degree} prime#{i} m={m}", 1, run)

    @staticmethod
    def _table_op(tf, tg, rg, ell, i, m) -> Op:
        def run():
            prime = ring.primes_above(rg, ell)[i]
            depth, capped = congr.table_congruence(tf, tg, prime)
            return depth >= m, (depth, capped)

        return Op(f"table depth ell={ell} deg={rg.degree} prime#{i} m={m}", 1, run)


# ---------------------------------------------------------------------------
# cli-pipeline


class Pipeline:
    """One round of the CLI pipeline: its files, its runner and its oracle.

    ``hecke_ops`` are split operators optionally followed by one inert T0;
    the oracle applies them with the library to the true lift.
    """

    D, K = 23, 8
    ELL = 13

    def __init__(self, runner: "CliRunner", rdir: str, seed: int, r, bound_det=4000, bound_diag=4,
                 hecke_ops=("T1@2", "T0@5")):
        self.runner, self.rdir = runner, rdir
        self.bound_det, self.bound_diag, self.hecke_ops = bound_det, bound_diag, hecke_ops
        os.makedirs(rdir, exist_ok=True)
        params = FieldParams(self.D, self.K)
        self.chi_index = r % 3
        self.chi = quadfield.char_values(quadfield.class_group(self.D))[self.chi_index]
        self.f, g0 = (
            elliptic.synthetic_newform(
                params, GAUSS, "negate-x", p_max=bound_det + 100, seed=derive("cli-pipeline", seed, r, i)
            )
            for i in (0, 1)
        )
        scale = self.ELL**2
        self.g = replace(self.f, ap={p: a + (g0.ap[p] - a) * scale for p, a in self.f.ap.items()}, label="g")
        self.g.validate()
        for name, form in (("f.nf", self.f), ("g.nf", self.g)):
            with open(self.path(name), "w") as fh:
                fh.write(elliptic.format_newform(form))
        self._lift = None

    def path(self, name: str) -> str:
        return os.path.join(self.rdir, name)

    def ops(self) -> list[Op]:
        ci = str(self.chi_index)
        hecke_args = [a for name in self.hecke_ops for a in ("--op", name)]
        cmds = [
            ("lift", ["lift", "f.nf", "lift.tbl", "--chi", ci, "--bound-det", str(self.bound_det),
                      "--bound-diag", str(self.bound_diag)], "lift.tbl", self.check_lift),
            ("check-maass", ["check-maass", "lift.tbl"], None, self.check_maass_ok),
            ("hecke", ["hecke", "lift.tbl", "h.tbl", *hecke_args], "h.tbl", self.check_hecke),
            ("check-maass", ["check-maass", "h.tbl"], None, self.check_maass_ok),
            ("descend", ["descend", "h.tbl"], None, self.check_descend),
            ("euler", ["euler", "f.nf", "--p", "2", "--p", "3", "--p", "5", "--p", "7", "--chi", ci,
                       "--verify-product134"], None, self.check_euler),
            ("congruence", ["congruence", "f.nf", "g.nf", "--ell", str(self.ELL), "--chi", ci], None,
             self.check_congruence),
        ]
        inputs = {"check-maass": 1, "hecke": 1, "descend": 1}
        out = []
        for name, argv, written, check in cmds:
            needs = self.path(argv[inputs[name]]) if name in inputs else None
            out.append(self._op(name, ["--json", *argv], written, needs, check))
        return out

    def _op(self, name, argv, written, needs, check) -> Op:
        def run():
            proc = self.runner.run(name, argv, self.rdir)
            return True, (proc, needs)

        def verify(output):
            proc, needs_path = output
            if needs_path is not None and not os.path.exists(needs_path):
                return "upstream"
            if proc.returncode == 2 and proc.stderr.startswith("error:"):
                return "refused"
            if proc.returncode != 0:
                return "exit"
            records = [json.loads(line) for line in proc.stdout.splitlines()]
            return check(records)

        def canonical(output):
            proc, _ = output
            text = f"exit {proc.returncode}\n{proc.stdout}"
            if written and os.path.exists(self.path(written)):
                with open(self.path(written)) as fh:
                    text += fh.read()
            return text

        return Op(name, 1, run, verify, canonical)

    # -- the oracle: the library acting on the true lift -----------------------

    def true_lift(self):
        if self._lift is None:
            self._lift = maass.build_lift(self.f, self.chi, self.bound_det)
        return self._lift

    def read(self, name):
        return cli.read_table(self.path(name))

    @staticmethod
    def truncated(table, chi, zetaexp):
        """The generating function the CLI extracts from a table: alpha at the
        determinants primitive points reach, zero elsewhere, declared valid
        up to the table's determinant bound (the ROADMAP 1 range defect)."""
        ok, alpha = maass.check_maass(table)
        if not ok:
            return None
        return maass.MaassTuple(table.params, chi, table.ring, alpha, table.bound_det, zetaexp)

    def split_part(self, t):
        """The lift after the hecke command's split operators."""
        for name in self.hecke_ops:
            op = hecke.HeckeOpId.parse(name, self.D)
            if op.kind in ("SplitT1", "SplitT2"):
                t = hecke.act_split_on_lift(t, op)
        return t

    def inert_part(self):
        op = hecke.HeckeOpId.parse(self.hecke_ops[-1], self.D)
        return op if op.kind == "InertT0" else None

    def acted(self, t, bound_det, bound_diag):
        """The hecke command's output, computed by the library from the lift t."""
        t, inert = self.split_part(t), self.inert_part()
        if inert is None:
            return t, t.identity_table(bound_det, bound_diag)
        return t, hecke.act_inert_T0(t, inert.p, bound_det, bound_diag)

    def check_lift(self, records):
        table, chi, ze = self.read("lift.tbl")
        t = self.true_lift()
        want = t.identity_table(self.bound_det, self.bound_diag)
        rec = records[0]
        good = (
            table.values == want.values
            and (table.bound_det, table.bound_diag, chi, ze) == (self.bound_det, self.bound_diag, self.chi, 0)
            and rec["alpha_support"] == len(t.alpha)
            and rec["alpha_max"] == t.alpha_max
        )
        return None if good else "mismatch"

    @staticmethod
    def check_maass_ok(records):
        # the true lift and every operator image of it are in the Maass space
        return None if records[0]["maass"] is True else "mismatch"

    def check_hecke(self, records):
        table, chi, ze = self.read("h.tbl")
        t, want = self.acted(self.true_lift(), table.bound_det, table.bound_diag)
        if table.values == want.values and ze == t.zeta_exp and chi == self.chi:
            return None
        trunc = self.truncated(*self.read("lift.tbl"))
        if trunc is None:
            return "mismatch"
        t, got = self.acted(trunc, table.bound_det, table.bound_diag)
        return "range-defect" if table.values == got.values and ze == t.zeta_exp else "mismatch"

    def check_descend(self, records):
        table, chi, ze = self.read("h.tbl")
        n_max = table.bound_det
        t, inert = self.split_part(self.true_lift()), self.inert_part()
        if inert is not None:
            psi = maass.descend(t, t.alpha_max)[0][1]
            q = hecke.descend_op(inert, self.K).apply_to_qexp(psi, self.K, self.D)
        else:
            q = maass.descend(t, n_max)[0][1]
        want = [
            {"component": b, "zeta_exp": t.component_exponent(b), "coeffs": self._coeffs(q, n_max)}
            for b in range(quadfield.class_group(self.D).order)
        ]
        if records == want:
            return None
        trunc = self.truncated(table, chi, ze)
        if trunc is None:
            return "mismatch"
        got = [
            {"component": b, "zeta_exp": e, "coeffs": self._coeffs(q, n_max)}
            for b, (e, q) in sorted(maass.descend(trunc, n_max).items())
        ]
        return "range-defect" if records == got else "mismatch"

    @staticmethod
    def _coeffs(q, n_max):
        return {str(n): str(q.a(n)) for n in range(1, min(n_max, q.n_max) + 1) if not q.a(n).is_zero()}

    def check_euler(self, records):
        want = []
        for p in (2, 3, 5, 7):
            ok, _ = lfun.verify_product134(self.f, self.chi, p)
            want.append(
                {
                    "p": p,
                    "std_factors": [[str(c) for c in fac.coeffs] for fac in lfun.std_factor_lift(self.f, self.chi, p)],
                    "bc_factors": [[str(c) for c in fac.coeffs] for fac in lfun.bc_factor(self.f, p, self.chi)],
                    "product134": "OK" if ok else "FAIL",
                }
            )
        return None if records == want and all(w["product134"] == "OK" for w in want) else "mismatch"

    def check_congruence(self, records):
        hops = eigen_ops(self.D, range(2, 21), self.ELL)  # the CLI's default --p-max is 20
        systems = [congr.build_eigen_system(g, self.chi, hops, label=g.label) for g in (self.f, self.g)]
        want = [
            json.loads(json.dumps(congr.maass_ideal_report(systems[0], systems[1:], prime).to_dict()))
            for prime in ring.primes_above(GAUSS, self.ELL)
        ]
        good = records == want and all(w["max_depth"] >= 2 for w in want)
        return None if good else "mismatch"


class CliRunner:
    """Runs one CLI command in a fresh interpreter through ``clichild.py``.

    Untraced, the child runs the CLI as ``python -m hermlift.cli`` does and
    reports its peak memory; traced, it also records the layers' spans.
    """

    BOOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clichild.py")

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.tracer = None
        self.peak_kb = 0  # largest child's peak resident memory
        self.started = 0

    def run(self, name: str, argv: list[str], cwd: str) -> subprocess.CompletedProcess:
        self.started += 1
        report = os.path.join(cwd, f"child-{self.started}.json")
        env = self.env
        start = time.perf_counter_ns()
        if self.tracer is not None:
            env = dict(env, PERFBENCH_SPAWN_NS=str(start))
        proc = subprocess.run(
            [sys.executable, self.BOOT, report, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=150
        )
        if self.tracer is not None:
            sid = self.tracer.add_span(f"bench.command.{name}", "bench", start, time.perf_counter_ns())
            if os.path.exists(report):
                self.tracer.merge(report, sid)
        elif os.path.exists(report):
            with open(report) as fh:
                self.peak_kb = max(self.peak_kb, json.load(fh)["peak_kb"])
        if os.path.exists(report):
            os.remove(report)
        return proc


class CliPipeline(Workload):
    """ROADMAP's fixed pipeline, one fresh ``python -m hermlift.cli`` per command."""

    name = "cli-pipeline"
    unit = "commands checked"
    operation = "one CLI command from process start to exit"
    nominal_round_s = 1.9

    def prepare(self, workdir, seed):
        runner = CliRunner(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        return runner, workdir

    def make_round(self, ctx, seed, r):
        runner, workdir = ctx
        return Pipeline(runner, os.path.join(workdir, f"round-{r}"), seed, r).ops()

    def warm_up(self, ctx, seed):
        # a cold start users also pay once: byte-compiling the package
        runner, workdir = ctx
        runner.run("classgroup", ["classgroup", str(Pipeline.D)], workdir)

    def attach_tracer(self, ctx, tracer):
        ctx[0].tracer = tracer

    def peak_rss_kb(self, ctx):
        return ctx[0].peak_kb


WORKLOADS = {w.name: w for w in (InertMaass(), LiftDescent(), CliPipeline(), EulerCongruence())}
