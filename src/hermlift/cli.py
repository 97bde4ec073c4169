"""Command-line surface and file formats.

Subcommands cover the whole pipeline: class-group inspection, building a
lift from a newform file, applying Hecke operators to table files,
membership checking, descent back to q-expansions, Euler-factor printing
and verification, and congruence-depth reports.  Every command has a
deterministic text mode and a ``--json`` line-record mode, and exits 0
exactly when all checks pass.

Newform files are line oriented (see ``hermlift.elliptic.parse_newform``).
Table files store one classical component in canonical point order;
``write_table`` writes a ``CoeffTable`` with its class character and zeta
exponent, and ``read_table`` gives those three back.  Each header line
comes once; ``ring``, ``chi`` and ``normalization`` take several values,
the others one::

    field 23
    k 8
    ring 1 0 1
    chiorder 3
    chi 0 1 2
    zetaexp 0
    bound_det 92
    bound_diag 2
    normalization unit i/sqrt(-D_K) dropped
    point <t1> <t3> <wa> <wb> <numerator coords> / <denominator>

A point line gives the coordinates of a lattice point; ``read_table`` is
the one place its scaled determinant is computed, and the library reads
every table by the lattice key (det, t1, t3, wa, wb) from then on.
``hecke`` acts on the lift's generating function, one operator after
another; after a final inert operator it writes that operator's raw image
of the previous lift, once the image has passed the membership check, and
after a final split operator the table of the generating function.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hecke
from .congr import build_eigen_system, maass_ideal_report
from .elliptic import NewformData, _header, parse_newform
from .hecke import HeckeOpId, act_inert_on_lift, act_split_on_lift
from .maass import CoeffTable, MaassTuple, build_lift, check_maass, descend
from .lfun import _place_factors, _verify_factors
from .quadfield import ClassChar, FieldParams, char_values, chi_K, class_group
from .ring import VAL_CAP, HeckeElem, HeckeRing, _is_prime, primes_above

NORMALIZATION_NOTE = "unit i/sqrt(-D_K) dropped"


class CommandError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refusals of the command line reach ``main`` as ``CommandError``, exit 2."""

    def error(self, message):
        raise CommandError(message)


# ---------------------------------------------------------------------------
# table file format


def write_table(path: str, table: CoeffTable, chi: ClassChar, zetaexp: int) -> None:
    """Write a table, its class character and zeta exponent: the inverse of
    ``read_table``.  A path that cannot be written is refused, exit 2."""
    lines = [
        f"field {table.D}",
        f"k {table.params.k}",
        "ring " + " ".join(str(c) for c in table.ring.modulus),
        f"chiorder {chi.order}",
        "chi " + " ".join(str(e) for e in chi.exponents),
        f"zetaexp {zetaexp}",
        f"bound_det {table.bound_det}",
        f"bound_diag {table.bound_diag}",
        f"normalization {NORMALIZATION_NOTE}",
    ]
    zero = table.ring.zero()
    for (_, t1, t3, a, b), v in zip(table.lattice, table.vals):  # canonical order
        if v is not zero:
            lines.append(f"point {t1} {t3} {a} {b} {' '.join(map(str, v.num))} / {v.den}")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CommandError(f"{path}: {exc}") from exc


def read_table(path: str) -> tuple[CoeffTable, ClassChar, int]:
    """A table file's table, class character and zeta exponent.  The shape is fixed
    at the first point, after the field, k, ring and bound lines.  Point lines
    with the same value text share one value object, zeros the ring's zero."""
    D = k = params = bound_det = bound_diag = ring = table = None
    chiorder, chi_exps, zetaexp = 1, (0,), 0
    placed: set[int] = set()
    seen: dict[str, int] = {}
    shared: dict[tuple[str, ...], HeckeElem] = {}  # one value object per value text
    try:
        fh = open(path)
    except OSError as exc:
        raise CommandError(f"{path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            key = parts[0]
            try:
                if key == "point":
                    if table is None:
                        if None in (params, bound_det, bound_diag, ring):
                            raise ValueError("point before the field, k, ring and bound lines")
                        table = CoeffTable(params, ring, bound_det, bound_diag)
                        index, vals, zero, q, g = table.index, table.vals, ring.zero(), params.norm_c, ring.degree
                    t1, t3, wa, wb = map(int, parts[1:5])
                    text = tuple(parts[5:])
                    v = shared.get(text)  # a text seen before passed every check of the value
                    if v is None:
                        slash = parts.index("/")
                        if len(parts) != slash + 2:
                            raise ValueError("missing denominator after '/'" if len(parts) == slash + 1 else
                                             f"tokens after the denominator: {' '.join(parts[slash + 2:])}")
                        num = tuple(map(int, parts[5:slash]))
                        if len(num) != g:
                            raise ValueError(f"{len(num)} numerator coordinates for a ring of degree {g}")
                    det = D * t1 * t3 - (wa * wa + wa * wb + wb * wb * q)
                    if not det:
                        raise ValueError(f"value at the singular point {(t1, t3, wa, wb)} (cusp forms)")
                    i = index.get((det, t1, t3, wa, wb))
                    if i is None:
                        raise ValueError(f"point {(t1, t3, wa, wb)} outside bound_det {bound_det}, "
                                         f"bound_diag {bound_diag}")
                    if i in placed:
                        raise ValueError(f"duplicate point {(t1, t3, wa, wb)}")
                    placed.add(i)
                    if v is None:
                        v = HeckeElem(ring, num, int(parts[slash + 1]))
                        v = shared[text] = v if any(num) else zero
                    vals[i] = v
                    continue
                if table is not None and key in ("field", "k", "ring", "bound_det", "bound_diag"):
                    raise ValueError(f"{key} line after the first point")
                _header(key, parts, seen, lineno, ("field", "k", "chiorder", "zetaexp", "bound_det", "bound_diag"))
                if key == "field":
                    D = int(parts[1])
                    class_group(D)  # refuses a D that is not a prime = 3 (mod 4)
                elif key == "k":
                    k = int(parts[1])
                elif key == "ring":
                    ring = HeckeRing([int(c) for c in parts[1:]])
                elif key == "chiorder":
                    chiorder, chi_line = int(parts[1]), lineno
                elif key == "chi":
                    chi_exps, chi_line = tuple(int(e) for e in parts[1:]), lineno
                elif key == "zetaexp":
                    zetaexp, zeta_line = int(parts[1]), lineno
                elif key in ("bound_det", "bound_diag"):
                    bound = int(parts[1])
                    if bound < 0:
                        raise ValueError(f"{key} {bound} is negative")
                    bound_det, bound_diag = (bound, bound_diag) if key == "bound_det" else (bound_det, bound)
                elif key != "normalization":
                    raise ValueError(f"unknown key {key!r}")
                if key in ("field", "k") and None not in (D, k):
                    params = FieldParams(D, k)  # refused at the later of the two lines
            except (IndexError, ValueError, ZeroDivisionError) as exc:
                raise CommandError(f"{path}:{lineno}: malformed table line ({exc})") from exc
    if None in (params, bound_det, bound_diag, ring):
        raise CommandError(f"{path}: missing table header fields")
    chi = ClassChar(chiorder, chi_exps)
    if not (chiorder == 1 and chi.is_trivial()) and chi not in char_values(class_group(D)):
        raise CommandError(f"{path}:{chi_line}: malformed table line (no character of the class group of "
                           f"D = {D} has order {chiorder} and exponents {list(chi_exps)})")
    if not 0 <= zetaexp < max(chiorder, 1):
        raise CommandError(f"{path}:{zeta_line}: malformed table line (zetaexp {zetaexp} outside 0..{max(chiorder, 1) - 1})")
    return table if table is not None else CoeffTable(params, ring, bound_det, bound_diag), chi, zetaexp


def table_as_tuple(table: CoeffTable, chi: ClassChar, zetaexp: int) -> MaassTuple:
    ok, res = check_maass(table)
    if not ok:
        raise CommandError(f"table is not in the Maass space (witness point {res})")
    return MaassTuple(params=table.params, chi=chi, ring=table.ring, alpha=res, alpha_max=table.bound_det,
                      zeta_exp=zetaexp, source_label="table")


# ---------------------------------------------------------------------------
# output helpers


class Out:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, record: dict, text: str):
        if self.as_json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(text)


def _load_newform(path: str) -> NewformData:
    try:
        with open(path) as fh:
            return parse_newform(fh.read())
    except (OSError, ValueError) as exc:
        raise CommandError(f"{path}: {exc}") from exc


def _resolve_chi(D: int, index: int) -> ClassChar:
    chars = char_values(class_group(D))
    if not 0 <= index < len(chars):
        raise CommandError(f"chi index {index} out of range (h = {len(chars)})")
    return chars[index]


# ---------------------------------------------------------------------------
# subcommands


def cmd_classgroup(args, out: Out) -> int:
    cg = class_group(args.D)
    chars = char_values(cg)
    record = {
        "D": args.D,
        "h": cg.order,
        "forms": [[f.A, f.B, f.C] for f in cg.forms],
        "identity": cg.identity_index,
        "composition": cg.composition,
        "characters": [{"order": c.order, "exponents": list(c.exponents)} for c in chars],
    }
    text = [f"D = {args.D}: h = {cg.order}"]
    text.append("forms: " + ", ".join(str(f) for f in cg.forms))
    text.append("composition table:")
    for row in cg.composition:
        text.append("  " + " ".join(str(x) for x in row))
    for i, c in enumerate(chars):
        text.append(f"chi_{i}: order {c.order}, exponents {list(c.exponents)}")
    out.emit(record, "\n".join(text))
    return 0


def cmd_lift(args, out: Out) -> int:
    f = _load_newform(args.newform)
    chi = _resolve_chi(f.D, args.chi)
    t = build_lift(f, chi, args.bound_det)
    warn = None
    if t.is_zero():
        warn = ("self-conjugate input: the lift vanishes identically" if f.is_self_conjugate()
                else f"no nonzero alpha up to {t.alpha_max}: the range holds no coefficient of the lift")
    write_table(args.output, t.identity_table(args.bound_det, args.bound_diag), chi, t.zeta_exp)
    support = sorted(t.alpha)
    record = {
        "output": args.output,
        "alpha_support": len(support),
        "alpha_max": t.alpha_max,
        "first_indices": support[:10],
        "warning": warn,
    }
    text = (
        f"wrote {args.output}: alpha supported on {len(support)} indices up to {t.alpha_max}"
        + (f"\nwarning: {warn}" if warn else "")
    )
    out.emit(record, text)
    return 0


def cmd_hecke(args, out: Out) -> int:
    table, chi, zetaexp = read_table(args.table)
    ops = [HeckeOpId.parse(name, table.D) for name in args.op]
    t, bound_diag = table_as_tuple(table, chi, zetaexp), table.bound_diag
    split = ("SplitT1", "SplitT2")
    *chain, op = ops
    for o in chain:  # each operator maps a lift to a lift, read at the alpha level
        t = (act_split_on_lift if o.kind in split else act_inert_on_lift)(t, o)
    if op.kind in split:
        t = act_split_on_lift(t, op)
        alpha_max = t.alpha_max
        table = t.identity_table(alpha_max, bound_diag)
    else:
        # a final inert operator writes its raw coset image of the previous
        # lift, tabulated once, which must pass the membership check; looked
        # up by name at run time, so a wrapper installed on the hecke module
        # is honoured.  Inert operators leave the zeta exponent unchanged.
        alpha_max = t.alpha_max // op.p ** op.reach
        table = getattr(hecke, op.kind.replace("Inert", "act_inert_"))(t, op.p, alpha_max, bound_diag)
        table_as_tuple(table, chi, t.zeta_exp)
    write_table(args.output, table, chi, t.zeta_exp)
    record = {"output": args.output, "ops": [str(o) for o in ops], "alpha_max": alpha_max, "zetaexp": t.zeta_exp}
    out.emit(record, f"wrote {args.output} after {' '.join(str(o) for o in ops)} (alpha valid to {alpha_max})")
    return 0


def cmd_check_maass(args, out: Out) -> int:
    table, _, _ = read_table(args.table)
    skipped: set[int] = set()
    ok, res = check_maass(table, unconstrained=skipped)
    if ok:
        record = {"maass": True, "alpha_support": len(res), "unconstrained": sorted(skipped)}
        note = f"; {len(skipped)} determinant values unconstrained" if skipped else ""
        out.emit(
            record,
            f"OK: table satisfies the divisor-sum condition (alpha on {len(res)} indices{note})",
        )
        return 0
    record = {"maass": False, "witness": list(res.coords())}
    out.emit(record, f"FAIL: condition violated at point {res.coords()}")
    return 1


def cmd_descend(args, out: Out) -> int:
    if args.n_max is not None and args.n_max < 1:
        raise CommandError(f"--n-max {args.n_max} must be at least 1")
    table, chi, zetaexp = read_table(args.table)
    t = table_as_tuple(table, chi, zetaexp)
    n_max = t.alpha_max if args.n_max is None else args.n_max
    comps = descend(t, n_max)  # refuses an n_max past alpha_max
    q = comps[0][1]  # every component shares one expansion
    coeffs = {n: str(v) for n in range(1, n_max + 1) if not (v := q.a(n)).is_zero()}
    head = ", ".join(f"a({n})={v}" for n, v in list(coeffs.items())[:8])
    for b, (exp, _) in sorted(comps.items()):
        record = {"component": b, "zeta_exp": exp, "coeffs": coeffs}
        out.emit(record, f"component {b}: zeta exponent {exp}, " + head)
    return 0


def cmd_euler(args, out: Out) -> int:
    f = _load_newform(args.newform)
    chi = _resolve_chi(f.D, args.chi)
    ok_all = True
    for p in args.p:
        factors, bc = _place_factors(f, chi, p)  # one read of the Satake pair and the places; refuses p = D
        record = {
            "p": p,
            "std_factors": [[str(c) for c in fac.coeffs] for fac in factors],
            "bc_factors": [[str(c) for c in fac.coeffs] for fac in bc],
        }
        text = [f"p = {p}:"]
        for fac in factors:
            text.append(f"  std (norm {fac.norm}): " + " | ".join(str(c) for c in fac.coeffs))
        for fac in bc:
            text.append(f"  bc  (norm {fac.norm}): " + " | ".join(str(c) for c in fac.coeffs))
        if args.verify_product134:
            ok, _ = _verify_factors(f, factors, bc)
            ok_all = ok_all and ok
            record["product134"] = "OK" if ok else "FAIL"
            text.append(f"  product134: {'OK' if ok else 'FAIL'}")
        out.emit(record, "\n".join(text))
    return 0 if ok_all else 1


def cmd_congruence(args, out: Out) -> int:
    if args.cap < 1:
        raise CommandError(f"--cap {args.cap} must be at least 1")
    forms = [_load_newform(path) for path in args.newforms]
    if not forms:
        raise CommandError("no newform files given")
    ref, others = forms[0], forms[1:]
    D = ref.D
    if any(g.D != D or g.ring != ref.ring for g in others):
        raise CommandError("all newforms must share the field and the coefficient ring")
    FieldParams(D, ref.k, args.ell)  # ell an odd prime above k, prime to D and to h
    chi = _resolve_chi(D, args.chi)
    ops = []
    for p in range(2, args.p_max + 1):
        if p in (D, args.ell) or not _is_prime(p):
            continue
        if p > ref.p_max():
            break
        kinds = ("SplitT1", "SplitT2") if chi_K(D, p) == 1 else ("InertT0", "InertUp")
        ops += [HeckeOpId.make(kind, p, D, args.ell) for kind in kinds]
    systems = [build_eigen_system(g, chi, ops, label=g.label or f"form{i}") for i, g in enumerate(forms)]
    for prime in primes_above(ref.ring, args.ell):
        report = maass_ideal_report(systems[0], systems[1:], prime, cap=args.cap)
        record = report.to_dict()
        text = [f"ell = {args.ell}, prime {record['prime']}: max depth {report.max_depth} ({report.kind})"]
        for e in report.entries:
            mark = " (self)" if e.get("self") else ""
            cap_mark = ">=" if e["capped"] else "="
            text.append(f"  {e['label']}{mark}: depth {cap_mark} {e['depth']}")
        out.emit(record, "\n".join(text))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hermlift",
        description="Exact Maass lifts on U(2,2): Hecke action, descent, L-factors, congruences.",
    )
    parser.add_argument("--json", action="store_true", help="line-record JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="class group of Q(sqrt(-D))")
    p.add_argument("D", type=int)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("lift", help="build a lift table from a newform file")
    p.add_argument("newform")
    p.add_argument("output")
    p.add_argument("--chi", type=int, default=0, help="class character index")
    p.add_argument("--bound-det", type=int, default=200)
    p.add_argument("--bound-diag", type=int, default=2)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("hecke", help="apply Hecke operators to a table file")
    p.add_argument("table")
    p.add_argument("output")
    p.add_argument("--op", action="append", required=True, help="e.g. T0@3, T1@2, Up@5")
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("check-maass", help="verify the divisor-sum condition on a table")
    p.add_argument("table")
    p.set_defaults(func=cmd_check_maass)

    p = sub.add_parser("descend", help="descend a lift table to elliptic q-expansions")
    p.add_argument("table")
    p.add_argument("--n-max", type=int)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("euler", help="Euler factors of a lift, with optional verification")
    p.add_argument("newform")
    p.add_argument("--p", type=int, action="append", required=True)
    p.add_argument("--chi", type=int, default=0)
    p.add_argument("--verify-product134", action="store_true")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("congruence", help="eigenvalue congruence depth report")
    p.add_argument("newforms", nargs="+")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--chi", type=int, default=0)
    p.add_argument("--p-max", type=int, default=20)
    p.add_argument("--cap", type=int, default=VAL_CAP)
    p.set_defaults(func=cmd_congruence)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = Out(args.json)
        return args.func(args, out)
    except (CommandError, ValueError, KeyError) as exc:
        # a KeyError's str() is the repr of its message: print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
