import contextlib
import functools
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hermlift.cli import CommandError, build_parser, main, read_table, table_as_tuple, write_table
from hermlift.elliptic import bundled_cm_form, extend_coeffs, format_newform, rho_conjugate, synthetic_newform
from hermlift.lfun import verify_product134
from hermlift import hecke, maass
from hermlift.hecke import HeckeOpId, act_inert_T, act_inert_T0, act_inert_Up, act_inert_on_lift, act_split_on_lift
from hermlift.hermitian import enumerate_points, point
from hermlift.maass import CoeffTable, RangeError, build_lift, check_maass, random_alpha_tuple
from hermlift.quadfield import FieldParams, char_values, class_group, trivial_char
from hermlift.ring import HeckeRing

GAUSS = HeckeRing([1, 0, 1])
ZZ = HeckeRing([0, 1])
CM_PATH = Path(__file__).parent.parent / "src" / "hermlift" / "data" / "cm_d7_w3.nf"


@pytest.fixture
def synth_file(tmp_path):
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=1300, seed=17)
    path = tmp_path / "synth.nf"
    path.write_text(format_newform(f))
    return path, f


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_classgroup_examples(capsys):
    code, out = run(capsys, "classgroup", "7")
    assert code == 0 and "h = 1" in out

    code, out = run(capsys, "--json", "classgroup", "23")
    assert code == 0
    rec = json.loads(out)
    assert rec["h"] == 3 and len(rec["forms"]) == 3

    code, _ = run(capsys, "classgroup", "4")
    assert code == 2  # not a prime = 3 mod 4


def test_lift_cm_warns_self_conjugate(tmp_path, capsys):
    out_path = tmp_path / "cm.tbl"
    code, out = run(capsys, "lift", CM_PATH, out_path, "--bound-det", "50")
    assert code == 0
    assert "self-conjugate" in out
    table, chi, _ = read_table(str(out_path))
    assert not table.values  # all coefficients vanish


@pytest.mark.parametrize("bound", [0, 4])
def test_lift_of_an_empty_range_says_so(tmp_path, capsys, bound):
    # D = 23: chi = +1 at 1..4, so alpha vanishes there on a form that is
    # not self-conjugate
    f = synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=50, seed=1)
    assert not f.is_self_conjugate()
    nf = tmp_path / "f.nf"
    nf.write_text(format_newform(f))
    code, out = run(capsys, "--json", "lift", nf, tmp_path / "t.tbl", "--bound-det", bound)
    rec = json.loads(out)
    assert code == 0 and rec["alpha_support"] == 0
    assert rec["warning"] == f"no nonzero alpha up to {bound}: the range holds no coefficient of the lift"
    code, out = run(capsys, "lift", CM_PATH, tmp_path / "cm.tbl", "--bound-det", bound)
    assert code == 0 and "self-conjugate input: the lift vanishes identically" in out


def test_lift_hecke_checkmaass_pipeline(tmp_path, capsys, synth_file):
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    code, out = run(capsys, "lift", nf, tbl, "--bound-det", str(7 * 9 * 16), "--bound-diag", "2")
    assert code == 0 and "alpha supported" in out

    code, _ = run(capsys, "check-maass", tbl)
    assert code == 0

    out_tbl = tmp_path / "t0.tbl"
    code, _ = run(capsys, "hecke", tbl, out_tbl, "--op", "T0@3")
    assert code == 0
    code, txt = run(capsys, "check-maass", out_tbl)
    assert code == 0

    # split operator then membership again
    out2 = tmp_path / "t1.tbl"
    code, _ = run(capsys, "hecke", tbl, out2, "--op", "T1@2")
    assert code == 0
    code, _ = run(capsys, "check-maass", out2)
    assert code == 0


@pytest.mark.parametrize("op, act, reach", [("T@3", act_inert_T, 9), ("Up@3", act_inert_Up, 81)])
def test_hecke_inert_writes_the_library_action(tmp_path, capsys, synth_file, op, act, reach):
    nf, f = synth_file
    tbl, out_tbl = tmp_path / "lift.tbl", tmp_path / "out.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", str(7 * 81), "--bound-diag", "2")
    code, _ = run(capsys, "hecke", tbl, out_tbl, "--op", op)
    assert code == 0
    t = table_as_tuple(*read_table(str(tbl)))
    want = act(t, 3, t.alpha_max // reach, 2)
    got, _, _ = read_table(str(out_tbl))
    assert (got.bound_det, got.bound_diag) == (want.bound_det, want.bound_diag)
    assert got.values == want.values and got.values


@pytest.fixture
def lift_567(tmp_path, capsys):
    """A D = 7 lift table at bound_det 567 = 7 * 81, bound_diag 3."""
    nf, tbl = tmp_path / "f.nf", tmp_path / "lift.tbl"
    nf.write_text(format_newform(synthetic_newform(FieldParams(7, 8), GAUSS, "negate-x", p_max=600, seed=1)))
    assert run(capsys, "lift", nf, tbl, "--bound-det", "567", "--bound-diag", "3")[0] == 0
    return tbl


def test_hecke_writes_the_inert_image_of_its_own_lift(tmp_path, capsys, lift_567):
    # at (63, 3) the content-3 points of det 45, 54 and 63 are unconstrained:
    # a table tabulated again from the re-extracted alpha reads zero there
    out_tbl = tmp_path / "t0.tbl"
    assert run(capsys, "hecke", lift_567, out_tbl, "--op", "T0@3")[0] == 0
    assert run(capsys, "check-maass", out_tbl)[0] == 0
    want = act_inert_T0(table_as_tuple(*read_table(str(lift_567))), 3, 63, 3)
    got, chi, ze = read_table(str(out_tbl))
    assert (got.bound_det, got.bound_diag, chi, ze) == (63, 3, trivial_char(), 0)
    assert got.vals == want.vals and got.values


def test_inert_hecke_tabulates_once_and_a_final_split_tabulates_alpha(tmp_path, capsys, lift_567, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return tabulate(*args)

    tabulate = maass._tabulate
    monkeypatch.setattr(maass, "_tabulate", counting)
    monkeypatch.setattr(hecke, "_tabulate", counting)
    out_tbl = tmp_path / "out.tbl"
    assert run(capsys, "hecke", lift_567, out_tbl, "--op", "T0@3")[0] == 0
    assert len(calls) == 1
    # after a final split operator the table is tabulated from its alpha;
    # the inert operator before it acts on alpha, read at every det
    assert run(capsys, "hecke", lift_567, out_tbl, "--op", "T0@3", "--op", "T1@2")[0] == 0
    t = table_as_tuple(*read_table(str(lift_567)))
    split = act_split_on_lift(act_inert_on_lift(t, HeckeOpId.parse("T0@3", 7)), HeckeOpId.parse("T1@2", 7))
    got, chi, ze = read_table(str(out_tbl))
    assert split.alpha_max == 31 and (chi, ze) == (split.chi, split.zeta_exp)
    assert got.vals == split.identity_table(split.alpha_max, 3).vals


def test_final_inert_hecke_reads_its_operator_once(tmp_path, capsys, lift_567, monkeypatch):
    # a final inert operator is tabulated from the previous lift, with no
    # alpha-level image of its own built first and then dropped
    calls, getter = [], hecke._op_getter

    def counting(t, kind, p):
        calls.append((kind, p))
        return getter(t, kind, p)

    monkeypatch.setattr(hecke, "_op_getter", counting)
    assert run(capsys, "hecke", lift_567, tmp_path / "out.tbl", "--op", "T0@3")[0] == 0
    assert calls == [("InertT0", 3)]


def test_chained_inert_hecke_writes_the_raw_image_of_the_alpha_level_lift(tmp_path, capsys, lift_567):
    # T0@3 then T@3: the first image is read at the alpha level, valid to
    # 567 // 9 = 63 at every det, and the last is tabulated from it, raw
    out_tbl = tmp_path / "out.tbl"
    assert run(capsys, "hecke", lift_567, out_tbl, "--op", "T0@3", "--op", "T@3")[0] == 0
    assert run(capsys, "check-maass", out_tbl)[0] == 0
    t = table_as_tuple(*read_table(str(lift_567)))
    t0 = act_inert_on_lift(t, HeckeOpId.parse("T0@3", 7))
    want = act_inert_T(t0, 3, t0.alpha_max // 9, 3)
    got, chi, ze = read_table(str(out_tbl))
    assert (t0.alpha_max, got.bound_det, got.bound_diag, chi, ze) == (63, 7, 3, trivial_char(), 0)
    assert got.vals == want.vals and got.values


# header lines that are no character of the class group of D = 23, a zeta
# exponent outside 0..order-1, a field that is no prime = 3 (mod 4), a
# weight that is no positive multiple of 2, a negative bound, or a
# one-valued header with a second value
HEADER_FAULTS = ("chi 0", "chi 0 1 7", "chiorder 0", "zetaexp 3", "field 21", "k 7", "bound_det -4", "bound_diag -1",
                 "field 23 7", "k 8 9", "bound_det 100 5", "zetaexp 0 1")
# a header line given a second time, refused at the repeat
REPEATED_HEADERS = ("repeat field 7", "repeat zetaexp 1", "repeat chi 0 2 1", "repeat normalization none")
# a point line's tail after its numerator, in place of "/ den"; the error names the fault
DENOMINATOR_FAULTS = {
    "junk after the denominator": (["/", "1", "/", "7", "junk"], "tokens after the denominator: / 7 junk"),
    "second denominator": (["/", "1", "3"], "tokens after the denominator: 3"),
    "missing denominator": (["/"], "missing denominator after '/'"),
}


@pytest.mark.parametrize(
    "fault",
    ["point before field", "coordinate count", "duplicate point", "zero denominator", "out of bounds",
     "singular point", "zero singular point", *HEADER_FAULTS, *REPEATED_HEADERS, *DENOMINATOR_FAULTS],
)
def test_malformed_table_exits_2_at_its_line(tmp_path, capsys, synth_file, fault):
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    if fault in HEADER_FAULTS or fault in REPEATED_HEADERS:
        # a D = 23 table of the order-3 character chi_1
        nf = tmp_path / "d23.nf"
        nf.write_text(format_newform(synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=120, seed=2)))
        run(capsys, "lift", nf, tbl, "--chi", "1", "--bound-det", "100", "--bound-diag", "2")
    else:
        run(capsys, "lift", nf, tbl, "--bound-det", "100", "--bound-diag", "2")
    lines = tbl.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("point"))
    parts = lines[last].split()
    header = {line.split()[0]: i for i, line in enumerate(lines)}
    if fault in HEADER_FAULTS:
        assert lines[header["chiorder"]] == "chiorder 3"
        key = fault.split()[0]
        lines[header[key]] = fault
        # a character is reported at the later of its two lines
        bad_line = header["chi" if key == "chiorder" else key] + 1
    elif fault in REPEATED_HEADERS:
        line = fault.removeprefix("repeat ")
        bad_line = header[line.split()[0]] + 2
        lines.insert(bad_line - 1, line)
    elif fault == "point before field":
        lines.insert(0, lines.pop(last))
        bad_line = 1
    elif fault == "coordinate count":
        lines[last] = " ".join(parts[:5] + parts[6:])
        bad_line = last + 1
    elif fault == "duplicate point":
        lines.append(lines[last])
        bad_line = len(lines)
    elif fault == "out of bounds":
        lines.append(f"point 5 5 0 0 {' '.join(parts[5:-2])} / 1")  # det 25 D > 100, diag 5 > 2
        bad_line = len(lines)
    elif fault == "singular point":
        lines.append(f"point 0 1 0 0 {' '.join(parts[5:-2])} / 1")  # det 0, where a cusp form vanishes
        bad_line = len(lines)
    elif fault == "zero singular point":
        lines.append(f"point 1 1 -1 2 {' '.join('0' for _ in parts[5:-2])} / 1")  # det 0, value 0: no table has it
        bad_line = len(lines)
    elif fault in DENOMINATOR_FAULTS:
        lines[last] = " ".join(parts[:-2] + DENOMINATOR_FAULTS[fault][0])
        bad_line = last + 1
    else:
        lines[last] = " ".join(parts[:-1] + ["0"])
        bad_line = last + 1
    tbl.write_text("\n".join(lines) + "\n")
    for command in ("check-maass", "descend"):
        code = main([command, str(tbl)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tbl}:{bad_line}:" in err
        if fault in DENOMINATOR_FAULTS:
            assert DENOMINATOR_FAULTS[fault][1] in err
        if "singular" in fault:
            assert "singular point" in err and "(cusp forms)" in err and "outside" not in err
        if fault == "duplicate point":
            assert "duplicate point" in err


def test_shuffled_point_lines_read_back_equal(tmp_path, capsys, synth_file):
    # a valid table file with its point lines in any order is the same table
    nf, f = synth_file
    tbl, shuffled = tmp_path / "lift.tbl", tmp_path / "shuffled.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "200", "--bound-diag", "2")
    lines = tbl.read_text().splitlines()
    points = [line for line in lines if line.startswith("point")]
    mixed = random.Random(5).sample(points, len(points))
    assert mixed != points
    shuffled.write_text("\n".join([line for line in lines if not line.startswith("point")] + mixed) + "\n")
    (want, *want_rest), (got, *got_rest) = read_table(str(tbl)), read_table(str(shuffled))
    assert got.vals == want.vals and got_rest == want_rest
    records = [run(capsys, "--json", "check-maass", path) for path in (tbl, shuffled)]
    assert records[0][0] == 0 and records[0] == records[1]


def _later_primitive_point(lines, D):
    """The index of the last content-1 point line whose (det, content) class
    has an earlier point line in the file."""
    seen, later = set(), None
    for i, line in enumerate(lines):
        if line.startswith("point"):
            t1, t3, wa, wb = map(int, line.split()[1:5])
            det = D * t1 * t3 - (wa * wa + wa * wb + wb * wb * (1 + D) // 4)
            if math.gcd(t1, t3, wa, wb) == 1:
                later = i if det in seen else later
                seen.add(det)
    return later


@pytest.mark.parametrize("scale, ok", [(2, True), (1, False)])
def test_a_later_point_passes_by_its_value_not_its_text(tmp_path, capsys, synth_file, scale, ok):
    # a later point of a class written as an equal value in other text
    # ("2 0 / 2" for "1 0 / 1") passes; the same point with only its
    # denominator doubled fails, at exactly that point
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "200", "--bound-diag", "2")
    _, want = run(capsys, "--json", "check-maass", tbl)
    lines = tbl.read_text().splitlines()
    j = _later_primitive_point(lines, 7)
    parts = lines[j].split()
    assert parts[-2] == "/" and any(lines[i].split()[5:] == parts[5:] for i in range(j))
    num = [str(scale * int(c)) for c in parts[5:-2]]
    lines[j] = " ".join(parts[:5] + num + ["/", str(2 * int(parts[-1]))])
    tbl.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "--json", "check-maass", tbl)
    if ok:
        assert code == 0 and out == want
    else:
        assert code == 1 and json.loads(out) == {"maass": False, "witness": list(map(int, parts[1:5]))}


def test_an_explicit_zero_line_reads_as_the_left_out_point(tmp_path, capsys, synth_file):
    # an all-zero value line at a primitive point the writer left out (the
    # first point of its determinant's primitive class) reads as the ring's
    # zero, so alpha is not supported there and the record does not change
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "100", "--bound-diag", "2")
    code, want = run(capsys, "--json", "check-maass", tbl)
    assert code == 0 and json.loads(want)["alpha_support"] == 10
    table, _, _ = read_table(str(tbl))
    j = next(j for j, (det, c) in zip(table.first, table.distinct) if det and c == 1 and table.vals[j].is_zero())
    _, t1, t3, wa, wb = table.lattice[j]
    with tbl.open("a") as out:
        out.write(f"point {t1} {t3} {wa} {wb} 0 0 / 1\n")
    assert run(capsys, "--json", "check-maass", tbl) == (0, want)


@pytest.mark.parametrize("fault", ["field 21", "weight 6", "field 7 23", "weight 7 9", "involution negate-x trivial",
                                   "repeat field 23", "repeat weight 3", "repeat ring 0 1", "repeat label other",
                                   "repeat aDK 343 0"])
def test_malformed_newform_header_exits_2_at_its_line(tmp_path, capsys, synth_file, fault):
    nf, f = synth_file
    lines = nf.read_text().splitlines()
    line = fault.removeprefix("repeat ")
    i = next(i for i, old in enumerate(lines) if old.split()[0] == line.split()[0])
    if line == fault:
        lines[i] = fault
    else:  # refused at the second line of the key
        i += 1
        lines.insert(i, line)
    nf.write_text("\n".join(lines) + "\n")
    code = main(["lift", str(nf), str(tmp_path / "lift.tbl")])
    assert code == 2
    assert f"{nf}: malformed newform line {i + 1}:" in capsys.readouterr().err


def test_newform_file_short_of_the_bound_exits_2_with_its_message(tmp_path, capsys, synth_file):
    # a missing eigenvalue is a KeyError inside the library; the user reads
    # its message, not its repr
    nf, f = synth_file
    code = main(["lift", str(nf), str(tmp_path / "lift.tbl"), "--bound-det", str(2 * f.p_max())])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: eigenvalue at p = ") and "not ingested" in err
    assert "'" not in err and '"' not in err


def test_config_environment_variable_is_not_read(tmp_path, monkeypatch):
    # flag defaults are constants: a file named by HERMLIFT_CONFIG is ignored
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    monkeypatch.setenv("HERMLIFT_CONFIG", str(config))
    assert main(["classgroup", "7"]) == 0


def test_missing_table_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.tbl"
    assert main(["check-maass", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, lift_567):
    # an output in a directory that does not exist is refused like an
    # unreadable input, not raised as a traceback with exit 1
    for argv in (["lift", CM_PATH, "--bound-det", "50"], ["hecke", lift_567, "--op", "T0@3"]):
        out_tbl = tmp_path / "missing_dir" / "x.tbl"
        code = main([str(a) for a in argv[:2]] + [str(out_tbl)] + argv[2:])
        out, err = capsys.readouterr()
        assert code == 2 and not out and err.startswith(f"error: {out_tbl}: "), argv[0]


def test_check_maass_enumerates_once_and_reports_unconstrained(tmp_path, capsys, synth_file, monkeypatch):
    from hermlift import maass
    from hermlift.hermitian import _lattice, content, enumerate_points

    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "200", "--bound-diag", "2")
    calls = []

    def counting(*args):
        calls.append(args)
        return _lattice(*args)

    monkeypatch.setattr(maass, "_lattice", counting)
    code, out = run(capsys, "--json", "check-maass", tbl)
    assert code == 0 and len(calls) == 1
    # brute force: determinants in range that no primitive point realises
    pts = [h for h in enumerate_points(7, 200, 2) if not h.is_zero()]
    expected = sorted({h.det_scaled() for h in pts} - {h.det_scaled() for h in pts if content(h) == 1})
    rec = json.loads(out.splitlines()[0])
    assert expected and rec == {"maass": True, "alpha_support": rec["alpha_support"], "unconstrained": expected}
    code, out = run(capsys, "check-maass", tbl)
    assert out.splitlines()[0] == (
        f"OK: table satisfies the divisor-sum condition (alpha on {rec['alpha_support']} indices; "
        f"{len(expected)} determinant values unconstrained)"
    )


def test_check_maass_detects_fault(tmp_path, capsys, synth_file):
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "100", "--bound-diag", "2")
    text = tbl.read_text().splitlines()
    # corrupt the last point line's first numerator coordinate
    for i in range(len(text) - 1, -1, -1):
        if text[i].startswith("point"):
            parts = text[i].split()
            parts[5] = str(int(parts[5]) + 1)
            text[i] = " ".join(parts)
            break
    tbl.write_text("\n".join(text) + "\n")
    code, out = run(capsys, "check-maass", tbl)
    assert code == 1 and "FAIL" in out


def test_descend_roundtrip(tmp_path, capsys, synth_file):
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "120", "--bound-diag", "2")
    code, out = run(capsys, "--json", "descend", tbl, "--n-max", "60")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    # phi - phi^rho from two separate expansions, not from the lift
    phi, phi_rho = extend_coeffs(f, 60), extend_coeffs(rho_conjugate(f), 60)
    for n, v in rec["coeffs"].items():
        assert str(phi.a(int(n)) - phi_rho.a(int(n))) == v


def test_euler_verify(capsys):
    code, out = run(
        capsys, "euler", CM_PATH, "--p", "2", "--p", "3", "--p", "5", "--verify-product134"
    )
    assert code == 0
    assert out.count("product134: OK") == 3

    code, _ = run(capsys, "euler", CM_PATH, "--p", "7")
    assert code == 2  # ramified prime rejected


@pytest.mark.parametrize("p", ["4", "1", "0", "-3", "7"])
def test_euler_names_a_non_prime_p(capsys, p):
    # a non-prime p used to read as a missing eigenvalue; p = D is refused
    # by the library, in the words verify_product134 uses
    ramified = "p = 7 is the ramified prime; factors are defined away from it"
    assert main(["euler", str(CM_PATH), "--p", p]) == 2
    assert capsys.readouterr().err == f"error: {ramified if p == '7' else f'{p} is not prime'}\n"
    with pytest.raises(ValueError, match=ramified if p == "7" else f"^{p} is not prime$"):
        verify_product134(bundled_cm_form(), trivial_char(), int(p))


def test_congruence_report(tmp_path, capsys):
    params = FieldParams(7, 8, 13)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=20, seed=23)
    from dataclasses import replace

    ap2 = {p: a + GAUSS.from_int(13 * 13) * (1 if p % 7 in (1, 2, 4) else 0) for p, a in f.ap.items()}
    # keep the conjugation symmetry: only split primes (real values) perturbed
    g = replace(f, ap=ap2, label="g")
    g.validate()
    fa, fb = tmp_path / "f.nf", tmp_path / "g.nf"
    fa.write_text(format_newform(f))
    fb.write_text(format_newform(g))
    code, out = run(capsys, "--json", "congruence", fa, fb, "--ell", "13", "--p-max", "12")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert all(r["max_depth"] >= 2 for r in recs)


@pytest.mark.parametrize("k, ell, message", [
    (8, 5, "ell = 5 must exceed k = 8"),
    (8, 3, "ell = 3 must exceed k = 8"),  # 3 is also h(23)
    (8, 23, "ell must not divide the field discriminant"),
    (2, 3, "ell must not divide the class number"),
    (8, 15, "ell must be an odd prime"),
])
def test_congruence_refuses_ell_outside_the_paper_range(tmp_path, capsys, k, ell, message):
    paths = []
    for seed in (1, 2):
        f = synthetic_newform(FieldParams(23, k), GAUSS, "negate-x", p_max=20, seed=seed)
        paths.append(tmp_path / f"f{seed}.nf")
        paths[-1].write_text(format_newform(f))
    assert main(["congruence", *map(str, paths), "--ell", str(ell)]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_congruence_refuses_a_cap_below_one(tmp_path, capsys, cap):
    # a cap below 1 would print "depth >= cap" entries that bound nothing
    paths = []
    for seed in (1, 2):
        f = synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=20, seed=seed)
        paths.append(tmp_path / f"f{seed}.nf")
        paths[-1].write_text(format_newform(f))
    assert main(["congruence", *map(str, paths), "--ell", "13", "--cap", cap]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: --cap {cap} must be at least 1\n"
    code, out = run(capsys, "congruence", paths[0], paths[0], "--ell", "13", "--cap", "1")
    assert code == 0 and "(self): depth >= 1" in out


@pytest.mark.parametrize("argv, message", [
    (["hecke", "a.tbl", "b.tbl", "--op", "T0@3", "--bound-diag", "2"], "unrecognized arguments: --bound-diag 2"),
    (["hecke", "a.tbl", "b.tbl"], "the following arguments are required: --op"),
    (["congruence", "f.nf"], "the following arguments are required: --ell"),
    (["lift", "f.nf", "o.tbl", "--bound-det", "many"], "invalid int value: 'many'"),
    (["classgroup", "x"], "invalid int value: 'x'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
])
def test_command_line_refusals_return_2(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("error:") and message in err
    assert "usage:" not in err


def test_parser_error_raises_instead_of_exiting():
    with pytest.raises(CommandError, match="boom"):
        build_parser().error("boom")


@pytest.mark.parametrize("argv", [["--help"], ["hecke", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_table_roundtrip_byte_stable(tmp_path, synth_file):
    nf, f = synth_file
    t = build_lift(f, trivial_char(), 100)
    p1, p2 = tmp_path / "a.tbl", tmp_path / "b.tbl"
    write_table(str(p1), t.identity_table(100, 2), t.chi, t.zeta_exp)
    table, chi, ze = read_table(str(p1))
    t2 = build_lift(f, trivial_char(), 100)
    write_table(str(p2), t2.identity_table(100, 2), t2.chi, t2.zeta_exp)
    assert p1.read_bytes() == p2.read_bytes()
    # written in canonical point order
    points = [line.split()[1:5] for line in p1.read_text().splitlines() if line.startswith("point")]
    keys = [point(7, *map(int, c)).sort_key() for c in points]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # read back equals what was written
    assert {h: v for h, v in table.values.items()} == {
        h: v for h, v in t.identity_table(100, 2).values.items()
    }


@settings(deadline=None, max_examples=30)
@given(
    D=st.sampled_from([7, 23]),
    ring=st.sampled_from([ZZ, GAUSS]),
    bound_diag=st.integers(0, 3),
    det_excess=st.integers(-30, 10),
    seed=st.integers(0, 10**6),
)
def test_table_file_round_trip_and_values_view(D, ring, bound_diag, det_excess, seed):
    bound_det = max(0, D * bound_diag * bound_diag + det_excess)
    t = random_alpha_tuple(FieldParams(D, 8), trivial_char(), ring, bound_det, seed=seed, spread=2)
    # a file carries no alpha at determinants that no primitive point realises
    skipped = set()
    check_maass(t.identity_table(bound_det, bound_diag), unconstrained=skipped)
    t = replace(t, alpha={n: v for n, v in t.alpha.items() if n not in skipped})
    want = t.identity_table(bound_det, bound_diag)
    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d) / "a.tbl", Path(d) / "b.tbl"
        write_table(str(first), want, t.chi, t.zeta_exp)
        table, chi, ze = read_table(str(first))
        # the generating function re-extracted and tabulated again
        again = table_as_tuple(table, chi, ze).identity_table(bound_det, bound_diag)
        write_table(str(second), again, chi, ze)
        assert first.read_bytes() == second.read_bytes()
    assert table.values == want.values and table.values is table.values
    keys = [h.sort_key() for h in table.values]
    assert keys == sorted(keys)
    assert not any(v.is_zero() for v in table.values.values())
    with pytest.raises(TypeError):
        table.values[point(D, 0, 0)] = ring.one()
    # a point past the bounds is out of range; a point of another field is
    # refused as eval_inert_raw and the oracle refuse it, naming both fields
    outside, other = point(D, bound_diag + 1, 0), point(7 if D == 23 else 23, 0, 0)
    for call in (lambda h: CoeffTable(table.params, ring, bound_det, bound_diag, {h: ring.one()}), table.get):
        with pytest.raises(RangeError):
            call(outside)
        with pytest.raises(ValueError, match=f"has discriminant {other.D}, the source has discriminant {D}") as err:
            call(other)
        assert not isinstance(err.value, RangeError)


@settings(deadline=None, max_examples=40)
@given(D=st.sampled_from([7, 23]), ring=st.sampled_from([ZZ, GAUSS]), bound_det=st.integers(0, 120),
       bound_diag=st.integers(0, 3), data=st.data())
def test_read_table_gives_back_any_written_table(D, ring, bound_det, bound_diag, data):
    # any values, not only a lift's: signs, denominators, zeros, every class
    # character, at any point of the table
    points = enumerate_points(D, bound_det, bound_diag)
    coords = st.lists(st.integers(-50, 50), min_size=ring.degree, max_size=ring.degree)
    value = st.builds(lambda c, d: ring.element(c, d), coords, st.integers(1, 12))
    values = data.draw(st.dictionaries(st.sampled_from(points), value, max_size=40)) if points else {}
    t = CoeffTable(FieldParams(D, 8), ring, bound_det, bound_diag, values)
    chi = data.draw(st.sampled_from(char_values(class_group(D))))
    zetaexp = data.draw(st.integers(0, max(chi.order, 1) - 1))
    with tempfile.TemporaryDirectory() as d:
        write_table(f"{d}/t.tbl", t, chi, zetaexp)
        got, got_chi, got_zetaexp = read_table(f"{d}/t.tbl")
    assert (got.params, got.ring, got.bound_det, got.bound_diag) == (t.params, ring, bound_det, bound_diag)
    assert got.vals == t.vals and (got_chi, got_zetaexp) == (chi, zetaexp)


def test_get_outside_the_table_raises_range_error(tmp_path, synth_file):
    # a read table answers inside its bounds and refuses beyond them, and
    # refuses a point of another field naming both discriminants
    nf, f = synth_file
    write_table(str(tmp_path / "h.tbl"), build_lift(f, trivial_char(), 20).identity_table(20, 2), trivial_char(), 0)
    table, _, _ = read_table(str(tmp_path / "h.tbl"))
    assert table.get(point(7, 1, 1, 0, 0)) == build_lift(f, trivial_char(), 20).oracle()(point(7, 1, 1, 0, 0))
    for h in (point(7, 3, 1, 0, 0), point(7, 2, 2, 0, 0)):  # diag 3 > 2, det 28 > 20
        with pytest.raises(RangeError):
            table.get(h)
    with pytest.raises(ValueError, match="discriminant 23, the source has discriminant 7") as err:
        table.get(point(23, 1, 1, 0, 0))
    assert not isinstance(err.value, RangeError)


def test_descend_n_max_default_is_the_full_range_and_below_one_exits_2(tmp_path, capsys, synth_file):
    nf, f = synth_file
    tbl = tmp_path / "lift.tbl"
    run(capsys, "lift", nf, tbl, "--bound-det", "120", "--bound-diag", "2")
    code, out = run(capsys, "--json", "descend", tbl)
    full = json.loads(out.splitlines()[0])["coeffs"]
    code, out = run(capsys, "--json", "descend", tbl, "--n-max", "120")  # alpha_max itself
    assert code == 0 and json.loads(out.splitlines()[0])["coeffs"] == full
    # past alpha_max descend refuses rather than printing up to alpha_max
    assert main(["descend", str(tbl), "--n-max", "500"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: alpha valid to 120, needed at 500\n"
    code, out = run(capsys, "--json", "descend", tbl, "--n-max", "20")
    short = json.loads(out.splitlines()[0])["coeffs"]
    assert code == 0 and short == {n: v for n, v in full.items() if int(n) <= 20} != full
    for n_max in ("0", "-3"):
        assert main(["descend", str(tbl), "--n-max", n_max]) == 2
        out, err = capsys.readouterr()
        assert not out and f"--n-max {n_max} must be at least 1" in err


def test_bad_file_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.nf"
    bad.write_text("field 7\nweight 3\nring 0 1\naDK -7\nap 3 5\n")
    out_tbl = tmp_path / "x.tbl"
    code, _ = run(capsys, "lift", bad, out_tbl)
    assert code == 2
    assert not out_tbl.exists()  # no partial output


JUNK = ["", "0", "1", "-1", "2", "3", "7", "x", "1/0", "3/2", "-3/4", "/", "#", "ap", "point", "1e3", "+1"]


def _header_lines(lines):
    """Indices of the lines whose keyword occurs once in the file."""
    keys = [(line.split() or [""])[0] for line in lines]
    return [i for i, key in enumerate(keys) if keys.count(key) == 1]


@st.composite
def mutated(draw, text):
    """text with one to three random line mutations, half of them on a header
    line (one whose keyword occurs once): a uniform pick would spend nearly
    all of them on the point and coefficient lines."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        header = _header_lines(lines)
        if header and draw(st.booleans()):
            i = draw(st.sampled_from(header))
        else:
            i = draw(st.integers(0, max(len(lines) - 1, 0)))
        kind = draw(st.sampled_from(["drop", "dup", "swap", "token", "cut-token", "insert", "truncate"]))
        if not lines:
            lines = [draw(st.sampled_from(JUNK))]
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(JUNK), max_size=4))))
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            parts = lines[i].split() or [""]
            j = draw(st.integers(0, len(parts) - 1))
            if kind == "token":
                parts[j] = draw(st.sampled_from(JUNK))
            else:
                del parts[j]
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@functools.cache
def _fuzz_inputs():
    """A valid newform file, a D = 7 table file and a D = 23 table file of an
    order-3 class character, by kind."""
    f = synthetic_newform(FieldParams(7, 8), GAUSS, "negate-x", p_max=60, seed=3)
    g = synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=60, seed=3)
    chi = char_values(class_group(23))[1]
    with tempfile.TemporaryDirectory() as d:
        write_table(f"{d}/lift.tbl", build_lift(f, trivial_char(), 40).identity_table(40, 2), trivial_char(), 0)
        write_table(f"{d}/lift23.tbl", build_lift(g, chi, 24).identity_table(24, 1), chi, 0)
        return {
            "nf": format_newform(f),
            "tbl": Path(f"{d}/lift.tbl").read_text(),
            "tbl23": Path(f"{d}/lift23.tbl").read_text(),
        }


FUZZ_COMMANDS = {
    "nf": [["lift", "{}", "{out}", "--bound-det", "30"], ["euler", "{}", "--p", "3", "--verify-product134"]],
    "tbl": [["check-maass", "{}"], ["descend", "{}", "--n-max", "20"], ["hecke", "{}", "{out}", "--op", "T0@3"]],
    "tbl23": [["check-maass", "{}"], ["descend", "{}", "--n-max", "20"], ["hecke", "{}", "{out}", "--op", "T1@2"]],
}


def _assert_exits_cleanly(kind, text):
    """Every command of the file kind on text exits 0, 1 or 2, never with a
    traceback, and 2 only with an error message."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"input.{kind}"
        path.write_text(text)
        for argv in FUZZ_COMMANDS[kind]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([a.format(str(path), out=f"{d}/out.tbl") for a in argv])
            assert code in (0, 1, 2), (argv, code, text)
            assert "Traceback" not in err.getvalue()
            assert code != 2 or err.getvalue().startswith("error: ")


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(FUZZ_COMMANDS)), st.data())
def test_mutated_input_files_exit_cleanly(kind, data):
    # malformed input exits 2 with a message, never with a traceback
    _assert_exits_cleanly(kind, data.draw(mutated(_fuzz_inputs()[kind])))


@pytest.mark.parametrize("kind", sorted(FUZZ_COMMANDS))
def test_every_header_edit_exits_cleanly(kind):
    # each header line dropped, cut by its last token, extended by one, and
    # with its first value replaced: the edits a random line pick seldom makes
    lines = _fuzz_inputs()[kind].splitlines()
    for i in _header_lines(lines):
        key, *values = lines[i].split()
        edits = [None, " ".join([key, *values[:-1]]), f"{lines[i]} 1"]
        edits += [" ".join([key, junk, *values[1:]]) for junk in ("-1", "x")] if values else []
        for edit in edits:
            text = lines[:i] + ([] if edit is None else [edit]) + lines[i + 1:]
            _assert_exits_cleanly(kind, "\n".join(text) + "\n")
