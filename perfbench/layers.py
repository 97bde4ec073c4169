"""The layers the traced run wraps, and the per-layer metrics derived from it.

A layer is one module of ``src/hermlift``.  Every public function a module
defines is wrapped in a span named ``<module>.<function>`` (``cli.cmd.<command>``
for the subcommand handlers), plus the two methods named in ``METHODS``.
Helpers in ``COUNT_ONLY`` run once per lattice point or coefficient, so
they only count calls, and ``HeckeElem`` arithmetic is counted as
``ring.elem_ops``; their time stays in the self time of the caller.
"""

from __future__ import annotations

import importlib
import inspect
import os

MODULES = ("ring", "quadfield", "hermitian", "elliptic", "maass", "hecke", "lfun", "congr", "cli")

COUNT_ONLY = {
    "quadfield": ("chi_K", "split_type", "trivial_char"),
    "hermitian": ("point", "det_scaled", "content", "content_p"),
    "maass": ("a_K",),
    "hecke": ("descend_op",),
}
METHODS = {
    "maass": (("MaassTuple", "identity_table", "maass.identity_table"),),
    "hecke": (("DescendedOp", "apply_to_qexp", "hecke.apply_to_qexp"),),
}
ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__")

INERT_SPANS = (
    "hecke.act_inert_T0",
    "hecke.act_inert_T",
    "hecke.act_inert_Up",
    "hecke.eval_inert_raw",
    "hecke.inert_getter",
)
# enumerate_points results count as points of the innermost of these spans
POINT_CONSUMERS = {
    "hecke.act_inert_T0": "hecke.inert.points",
    "hecke.act_inert_T": "hecke.inert.points",
    "hecke.act_inert_Up": "hecke.inert.points",
    "maass.check_maass": "maass.check_maass.points",
    "maass.identity_table": "maass.identity_table.points",
}
CLI_COMMANDS = ("lift", "check-maass", "hecke", "descend", "euler", "congruence")

PER_LAYER = (
    [
        ("ring.elem_ops", "count"),
        ("ring.val_at.calls", "count"),
        ("ring.val_at.s", "s"),
        ("ring.primes_above.s", "s"),
        ("quadfield.class_group.s", "s"),
        ("hermitian.enumerate_points.calls", "count"),
        ("hermitian.enumerate_points.points", "count"),
        ("hermitian.enumerate_points.s", "s"),
        ("elliptic.extend_coeffs.calls", "count"),
        ("elliptic.extend_coeffs.coeffs", "count"),
        ("elliptic.extend_coeffs.s", "s"),
        ("elliptic.apply_Tp.s", "s"),
        ("maass.build_lift.self_s", "s"),
        ("maass.descend.s", "s"),
        ("maass.check_maass.s", "s"),
        ("maass.check_maass.points", "count"),
        ("maass.identity_table.s", "s"),
        ("maass.identity_table.points", "count"),
        ("hecke.inert.s", "s"),
        ("hecke.inert.points", "count"),
        ("hecke.inert.us_per_point", "us"),
        ("hecke.split.s", "s"),
        ("hecke.split.coeffs", "count"),
        ("hecke.apply_to_qexp.s", "s"),
        ("lfun.verify_product134.calls", "count"),
        ("lfun.verify_product134.s", "s"),
        ("lfun.std_factor_lift.s", "s"),
        ("lfun.bc_factor.s", "s"),
        ("congr.table_congruence.s", "s"),
        ("congr.table_congruence.points", "count"),
        ("congr.eigen_congruence.s", "s"),
        ("cli.startup.s", "s"),
    ]
    + [(f"cli.cmd.{c}.s", "s") for c in CLI_COMMANDS]
    + [
        ("cli.read_table.s", "s"),
        ("cli.read_table.bytes", "bytes"),
        ("cli.write_table.s", "s"),
        ("cli.write_table.bytes", "bytes"),
    ]
    + [(f"{m}.self_s", "s") for m in MODULES + ("bench",)]
    + [("trace.overhead", "ratio")]
)


def span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return "cli.cmd." + func[4:].replace("_", "-")
    return f"{module}.{func}"


# -- count hooks, run after a wrapped call returns ------------------------


def _points(tr, args, kwargs, result):
    tr.count("hermitian.enumerate_points.points", len(result))
    consumer = tr.enclosing(POINT_CONSUMERS)
    if consumer is not None:
        tr.count(POINT_CONSUMERS[consumer], len(result))


def _inert_getter(tr, args, kwargs, result):
    tr.count("hecke.inert.points")


def _lazy_action(tr, args, kwargs, result):
    # the CLI evaluates a lazy inert action point by point
    result.getter = tr.span_wrapper(result.getter, "hecke.inert_getter", "hecke", _inert_getter)


def _file_bytes(counter):
    def hook(tr, args, kwargs, result):
        tr.count(counter, os.path.getsize(args[0]))

    return hook


HOOKS = {
    "hermitian.enumerate_points": _points,
    "hecke.eval_inert_raw": lambda tr, a, kw, r: tr.count("hecke.inert.points", len(r)),
    "hecke.inert_action": _lazy_action,
    "hecke.act_split_on_lift": lambda tr, a, kw, r: tr.count("hecke.split.coeffs", r.alpha_max),
    "elliptic.extend_coeffs": lambda tr, a, kw, r: tr.count("elliptic.extend_coeffs.coeffs", r.n_max),
    "congr.table_congruence": lambda tr, a, kw, r: tr.count(
        "congr.table_congruence.points", len(set(a[0].values) | set(a[1].values))
    ),
    "cli.read_table": _file_bytes("cli.read_table.bytes"),
    "cli.write_table": _file_bytes("cli.write_table.bytes"),
}


def install(tr, extra_namespaces=()) -> None:
    """Wrap every layer function in ``tr``; undo with ``tr.restore()``."""
    mods = {m: importlib.import_module(f"hermlift.{m}") for m in MODULES}
    namespaces = [importlib.import_module("hermlift"), *mods.values(), *extra_namespaces]
    for m, mod in mods.items():
        for func, obj in list(vars(mod).items()):
            if func.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = span_name(m, func)
            if func in COUNT_ONLY.get(m, ()):
                wrapper = tr.count_wrapper(obj, name + ".calls")
            else:
                wrapper = tr.span_wrapper(obj, name, m, HOOKS.get(name))
            tr.patch_function(obj, wrapper, namespaces)
        for cls, meth, name in METHODS.get(m, ()):
            owner = getattr(mod, cls, None)
            if owner is not None and meth in vars(owner):
                tr.patch_attr(owner, meth, tr.span_wrapper(vars(owner)[meth], name, m, HOOKS.get(name)))
    elem = mods["ring"].HeckeElem
    for op in ELEM_OPS:
        tr.patch_attr(elem, op, tr.count_wrapper(vars(elem)[op], "ring.elem_ops"))


def metrics(tr, window_s: float, overhead: float, speed: float = 1.0) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced window lasting ``window_s`` seconds.

    Times are multiplied by ``speed``, the calibration factor of the window.
    """
    spans = tr.spans
    selfs = tr.self_times()
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    module_self: dict[str, int] = {}
    under_build = [False] * len(spans)
    build_self = 0
    for i, (sid, name, module, start, end, parent, _) in enumerate(spans):
        total[name] = total.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        module_self[module] = module_self.get(module, 0) + selfs[i]
        under_build[i] = name == "maass.build_lift" or (parent is not None and under_build[parent])
        if under_build[i] and module == "maass":
            build_self += selfs[i]

    def secs(*names):
        return sum(total.get(n, 0) for n in names) / 1e9

    counts = dict(tr.counters)
    for name in ("ring.val_at", "hermitian.enumerate_points", "elliptic.extend_coeffs", "lfun.verify_product134"):
        counts[name + ".calls"] = calls.get(name, 0)
    values = {
        "maass.build_lift.self_s": build_self / 1e9,
        "hecke.inert.s": secs(*INERT_SPANS),
        "hecke.split.s": secs("hecke.act_split_on_lift"),
        "trace.overhead": overhead,
    }
    points = counts.get("hecke.inert.points", 0)
    values["hecke.inert.us_per_point"] = values["hecke.inert.s"] / points * 1e6 if points else 0.0
    library_self = 0
    for m in MODULES:
        values[f"{m}.self_s"] = module_self.get(m, 0) / 1e9
        library_self += values[f"{m}.self_s"]
    values["bench.self_s"] = window_s - library_self
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            v = values[name]
        elif unit == "s":
            v = secs(name[: -len(".s")])
        else:
            v = counts.get(name, 0)
        out[name] = (v * speed if unit in ("s", "us") else v, unit)
    return out
