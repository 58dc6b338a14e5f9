"""Command line interface: output text, JSON schema, exit codes."""

import json
import resource
import subprocess
import sys
import time

import pytest

from irrcyclic import cli, errors, numtheory, weights


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out + captured.err


def test_dist_text(capsys):
    rc, out = run(capsys, "dist", "--p", "5", "--s", "1", "--m", "4", "--N", "4")
    assert rc == 0
    assert out == "1 + 156x^112 + 156x^124 + 156x^128 + 156x^136\n"


def test_dist_two_weight(capsys):
    rc, out = run(capsys, "dist", "--p", "3", "--s", "1", "--m", "4", "--N", "2")
    assert rc == 0
    assert out.strip() == "1 + 40x^24 + 40x^30"


def test_dist_bad_divisor_exits_2(capsys):
    rc, out = run(capsys, "dist", "--p", "2", "--s", "1", "--m", "4", "--N", "7")
    assert rc == 2
    assert out.startswith("invalid parameters: NotADivisor:")


def test_dist_composite_p_exits_2(capsys):
    rc, out = run(capsys, "dist", "--p", "6", "--s", "1", "--m", "2", "--N", "1")
    assert rc == 2
    assert "NotPrime" in out


def test_dist_strong_pseudoprime_p_exits_2(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin on every base up to 37
    rc, out = run(capsys, "dist", "--p", "318665857834031151167461",
                  "--s", "1", "--m", "2", "--N", "2")
    assert rc == 2
    assert "NotPrime" in out


def test_dist_closed_miss_exits_3(capsys):
    rc, out = run(capsys, "dist", "--p", "3", "--s", "1", "--m", "4", "--N", "8",
                  "--method", "closed")
    assert rc == 3
    assert out.startswith("unsupported: Unsupported:")


def test_dist_auto_falls_back_to_brute(capsys):
    rc, out = run(capsys, "dist", "--p", "3", "--s", "1", "--m", "4", "--N", "8")
    assert rc == 0
    assert out.strip() == "1 + 20x^4 + 20x^6 + 30x^8 + 10x^10"


def test_dist_budget_blocks_brute(capsys):
    rc, out = run(capsys, "dist", "--p", "3", "--s", "1", "--m", "4", "--N", "8",
                  "--budget", "16")
    assert rc == 3
    assert "out of budget" in out


def test_dist_brute_budget_exits_3(capsys):
    rc, out = run(capsys, "dist", "--p", "2", "--s", "1", "--m", "10", "--N", "3",
                  "--method", "brute", "--budget", "100")
    assert rc == 3
    assert out == (
        "unsupported: SizeBudgetExceeded: r = 1024 exceeds the enumeration budget 100\n"
    )


def test_budget_irrelevant_when_closed_form_applies(capsys):
    # closed forms never enumerate the field, so the budget must not trip
    rc, out = run(capsys, "dist", "--p", "2", "--s", "1", "--m", "20", "--N", "1",
                  "--budget", "1000")
    assert rc == 0
    assert out.strip() == "1 + 1048575x^524288"


def test_verify_match(capsys):
    rc, out = run(capsys, "verify", "--p", "2", "--s", "1", "--m", "4", "--N", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "MATCH: thm24 == brute"
    assert lines[1] == "1 + 10x^2 + 5x^4"
    assert "integral=True congruent=True bounded=True" in lines[2]


def test_verify_no_closed_form_exits_3_but_prints_oracle(capsys):
    rc, out = run(capsys, "verify", "--p", "3", "--s", "1", "--m", "4", "--N", "8")
    assert rc == 3
    lines = out.splitlines()
    assert lines[0].startswith("no closed form applies")
    assert lines[1] == "1 + 20x^4 + 20x^6 + 30x^8 + 10x^10"


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    real = weights.weight_distribution

    def skewed(spec, method="auto", **kw):
        dist = real(spec, method, **kw)
        if dist.method != "brute":
            bad = tuple((w + 1, c) for w, c in dist.entries)
            object.__setattr__(dist, "entries", bad)
        return dist

    monkeypatch.setattr(cli.weights, "weight_distribution", skewed)
    rc, out = run(capsys, "verify", "--p", "3", "--s", "1", "--m", "4", "--N", "2")
    assert rc == 4
    assert out.startswith("MISMATCH:")


def test_bounds_text(capsys):
    rc, out = run(capsys, "bounds", "--p", "3", "--s", "1", "--m", "4", "--N", "2")
    assert rc == 0
    assert out == ("[n, k] = [40, 4] over GF(3)\n"
                   "divisor = 2\n"
                   "lower = 24\n"
                   "upper = 30\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_outputs_past_the_int_digit_limit(capsys):
    # r = 2^15000 has 4516 digits, past Python's default limit of 4300 for
    # int <-> str; main lifts the limit only while it runs a command
    limit = sys.get_int_max_str_digits()
    rc, text = run(capsys, "bounds", "--p", "2", "--s", "1", "--m", "15000", "--N", "1")
    assert rc == 0
    rc, dist = run(capsys, "dist", "--p", "2", "--s", "1", "--m", "15000", "--N", "3",
                   "--format", "json")
    assert rc == 0
    rc, periods = run(capsys, "periods", "--p", "2", "--s", "1", "--m", "15000", "--N", "3",
                      "--format", "json")
    assert rc == 0
    assert sys.get_int_max_str_digits() == limit
    spec = weights.code_params(2, 1, 15000, 3)
    sys.set_int_max_str_digits(0)
    try:
        lo, hi = weights.bounds(weights.code_params(2, 1, 15000, 1))
        assert text == f"[n, k] = [{2**15000 - 1}, 15000] over GF(2)\ndivisor = 1\n" \
            f"lower = {lo}\nupper = {hi}\n"
        rec = json.loads(dist)
        assert (rec["method"], rec["r"]) == ("thm24", spec.r)
        assert rec["weights"] == [
            {"w": str(w), "count": str(c)} for w, c in weights.weight_distribution(spec).entries
        ]
        rec = json.loads(periods)
        assert rec["method"] == "thm24" and len(rec["periods"]) == 3
        assert sum(int(v) for v in rec["periods"]) == -1
    finally:
        sys.set_int_max_str_digits(limit)


def test_periods_order2(capsys):
    rc, out = run(capsys, "periods", "--p", "3", "--s", "1", "--m", "4", "--N", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "eta_0 = -5, eta_1 = 4"
    assert lines[1] == "integral=True congruent=True bounded=True"


def test_periods_order3_with_polynomial(capsys):
    rc, out = run(capsys, "periods", "--p", "2", "--s", "1", "--m", "4", "--N", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "eta_0 = -3, eta_1 = 1, eta_2 = 1"
    assert lines[1] == "polynomial: X^3 + X^2 - 5X + 3"


def test_periods_irrational_prints_symbolic(capsys):
    rc, out = run(capsys, "periods", "--p", "3", "--s", "1", "--m", "3", "--N", "2")
    assert rc == 0
    assert "RootOfUnitySum(3" in out
    # no integer summary line for irrational periods
    assert "integral=" not in out


@pytest.mark.parametrize("p,m,N,poly", [
    (13, 1, 4, "X^4 + X^3 + 2X^2 - 4X + 3"),
    (7, 1, 3, "X^3 + X^2 - 2X - 1"),
])
def test_periods_irrational_prints_polynomial(capsys, p, m, N, poly):
    # irrational periods come from the enumeration; the polynomial is the
    # closed form's, computed over r
    rc, out = run(capsys, "periods", "--p", str(p), "--s", "1", "--m", str(m), "--N", str(N))
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith(f"eta_{i} = RootOfUnitySum") for i, line in enumerate(lines[:N]))
    assert lines[N:] == [f"polynomial: {poly}"]


def test_periods_roots_only_prints_unassigned_roots(capsys):
    rc, out = run(capsys, "periods", "--p", "7", "--s", "1", "--m", "3", "--N", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "polynomial: X^3 + X^2 - 114X + 216"
    assert lines[1] == "roots: {-12, 2, 9} (class assignment not determined)"


def test_periods_closed_miss_exits_3(capsys):
    rc, out = run(capsys, "periods", "--p", "3", "--s", "1", "--m", "4", "--N", "8",
                  "--method", "closed")
    assert rc == 3
    assert out.startswith("unsupported: Unsupported:")


def test_periods_closed_order_past_budget_exits_3(capsys):
    # thm24 gives these periods, but one line per class is past the budget
    rc, out = run(capsys, "periods", "--p", "2", "--s", "1", "--m", "20", "--N", "1025",
                  "--budget", "1000")
    assert rc == 3
    assert out == "unsupported: SizeBudgetExceeded: periods of order 1025 exceed budget 1000\n"


def test_table1_text(capsys):
    rc, out = run(capsys, "table1")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].split() == ["n", "k", "d", "q", "computed", "printed", "residue"]
    assert len(lines) == 9
    assert sum(1 for ln in lines if ln.endswith("agree")) == 7
    bad = [ln for ln in lines if ln.endswith("DISAGREE")]
    assert len(bad) == 1
    assert bad[0].split()[:4] == ["312", "4", "240", "5"]


@pytest.mark.parametrize("argv", [
    ["bounds", "--p", "3", "--s", "1", "--m", "4", "--N", "2", "--method", "brute"],
    ["bounds", "--p", "3", "--s", "1", "--m", "4", "--N", "2", "--budget", "100"],
    ["table1", "--method", "auto"],
    ["table1", "--budget", "100"],
])
def test_unread_flags_are_rejected(capsys, argv):
    # bounds and table1 enumerate nothing, so they take --format only
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_json_schema_is_stable_across_commands(capsys):
    outs = []
    for argv in (["dist", "--p", "3", "--s", "1", "--m", "4", "--N", "2"],
                 ["verify", "--p", "3", "--s", "1", "--m", "4", "--N", "2"],
                 ["bounds", "--p", "3", "--s", "1", "--m", "4", "--N", "2"],
                 ["periods", "--p", "2", "--s", "1", "--m", "4", "--N", "3"],
                 ["table1"]):
        rc, out = run(capsys, *argv, "--format", "json")
        assert rc == 0
        outs.append(json.loads(out))
    keys = [tuple(o.keys()) for o in outs]
    assert len(set(keys)) == 1
    # unused fields are explicit nulls, not missing keys
    assert outs[0]["verify"] is None
    assert outs[0]["table"] is None
    assert outs[4]["p"] is None


def test_json_weights_are_decimal_strings(capsys):
    rc, out = run(capsys, "dist", "--p", "3", "--s", "1", "--m", "4", "--N", "2",
                  "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["method"] == "thm18"
    assert rec["weights"] == [{"w": "24", "count": "40"},
                              {"w": "30", "count": "40"}]
    assert rec["bounds"] == {"lower": 24, "upper": 30}


def test_json_verify_block(capsys):
    rc, out = run(capsys, "verify", "--p", "3", "--s", "1", "--m", "4", "--N", "2",
                  "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["verify"] == {"match": True, "oracle_method": "brute"}
    assert rec["thm14"] == {"integral": True, "congruent": True, "bounded": True}


@pytest.mark.parametrize("argv", [
    ("verify", "--p", "2", "--s", "1", "--m", "4", "--N", "3"),
    # irrational periods: the record carries their text
    ("periods", "--p", "3", "--s", "1", "--m", "3", "--N", "2", "--method", "brute"),
    ("table1",),
], ids=["verify", "periods-irrational", "table1"])
def test_report_roundtrip(capsys, argv):
    # one plain JSON object per run, its keys in schema order: encoding the
    # parsed record again gives the printed line byte for byte
    rc, out = run(capsys, *argv, "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert tuple(rec) == cli._SCHEMA
    assert json.dumps(rec) + "\n" == out


def test_a_key_outside_the_schema_is_refused(capsys):
    rec = dict.fromkeys(cli._SCHEMA)
    rec["weight"] = []
    with pytest.raises(KeyError, match="'weight'"):
        cli._finish(rec, 0.0, "json", [])
    assert capsys.readouterr().out == ""


def test_table1_rows_helper():
    rows = table = cli.table1_rows()
    assert len(rows) == 8
    assert sum(r["agree"] for r in table) == 7
    off = next(r for r in rows if not r["agree"])
    assert (off["n"], off["computed_bound"], off["printed_bound"]) == (312, 240, 236)


def test_missing_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist", "--p", "3", "--s", "1", "--m", "4"])
    assert exc.value.code == 2


def test_entry_raises_systemexit(capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "argv",
                        ["irrcyclic", "dist", "--p", "3", "--s", "1",
                         "--m", "4", "--N", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0


def test_verify_default_method_is_closed(capsys):
    # (3,1,4,8) has no closed form; under auto it would silently fall back
    # to brute and trivially match, hiding the gap
    rc, _ = run(capsys, "verify", "--p", "3", "--s", "1", "--m", "4", "--N", "8")
    assert rc == 3
    rc, out = run(capsys, "verify", "--p", "3", "--s", "1", "--m", "4", "--N", "8",
                  "--method", "auto")
    assert rc == 0
    assert out.splitlines()[0] == "MATCH: brute == brute"


def test_method_flag_does_not_leak_between_subcommands(capsys):
    # dist defaults to auto even though verify defaults to closed
    rc, _ = run(capsys, "dist", "--p", "3", "--s", "1", "--m", "4", "--N", "8")
    assert rc == 0
    rc, _ = run(capsys, "verify", "--p", "3", "--s", "1", "--m", "4", "--N", "8")
    assert rc == 3


def _limit_memory():
    # 1 GiB of address space: an answer that grows with N fails fast here
    # instead of paging the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,rc,method", [
    # n = (2^255 - 1)/31 is not a prime power; deciding that must not factor n
    (["dist", "--p", "2", "--s", "1", "--m", "255", "--N", "31"], 3, None),
    # thm24 answers order 4 over GF(3^62); the text form prints the
    # polynomial of those periods, not one solved at r
    (["periods", "--p", "3", "--s", "1", "--m", "62", "--N", "4"], 0, "thm24"),
    # the thm24 rule takes ord_N(2), which divides m, without factoring N
    (["dist", "--p", "2", "--s", "1", "--m", "256", "--N", str((2**256 - 1) // 3)], 3, None),
    (["dist", "--p", "2", "--s", "1", "--m", "255", "--N", str((2**255 - 1) // 7)], 3, None),
    (["periods", "--p", "3", "--s", "1", "--m", "62", "--N", "4", "--format", "text"], 0, None),
    # no closed form, and the field is refused before any polynomial is built
    (["periods", "--p", "7", "--s", "1", "--m", "31", "--N", "3", "--format", "text"], 3, None),
    # thm24 at N = 2^32 + 1 gives its periods as runs, not as N entries
    (["dist", "--p", "2", "--s", "1", "--m", "64", "--N", str(2**32 + 1)], 0, "thm24"),
    # thm19 and thm21 solve for their roots at p^(d/3) and p^(d/2), not at r
    (["dist", "--p", "7", "--s", "1", "--m", "30", "--N", "3"], 0, "thm19"),
    (["dist", "--p", "13", "--s", "1", "--m", "24", "--N", "4"], 0, "thm21"),
    # periods prints one value per class, so that order is refused past the
    # budget before the runs are expanded
    (["periods", "--p", "2", "--s", "1", "--m", "64", "--N", str(2**32 + 1)], 3, None),
    (["periods", "--p", "2", "--s", "1", "--m", "64", "--N", str(2**32 + 1),
      "--format", "text"], 3, None),
    # an enumerated (N, p) period histogram past the tower cap is refused
    # before it is allocated
    (["periods", "--p", "4194301", "--s", "1", "--m", "1", "--N", "4194300",
      "--method", "brute"], 3, None),
    # a norm-form scan past its cap is refused before it starts: thm19, thm21
    # at two degrees and thm22 would each scan for hours
    (["dist", "--p", "7", "--s", "1", "--m", "300", "--N", "3"], 3, None),
    (["dist", "--p", "13", "--s", "1", "--m", "32", "--N", "4"], 3, None),
    (["dist", "--p", "13", "--s", "1", "--m", "40", "--N", "4"], 3, None),
    (["dist", "--p", "1000000000000000000000183", "--s", "1", "--m", "3", "--N", "7"], 3, None),
])
def test_large_specs_end_promptly(argv, rc, method):
    fmt = [] if "--format" in argv else ["--format", "json"]
    run = subprocess.run(
        [sys.executable, "-m", "irrcyclic.cli", *argv, *fmt],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory,
    )
    assert run.returncode == rc, run.stderr
    if method is not None:
        assert json.loads(run.stdout)["method"] == method


class _Factored(Exception):
    """Raised by the factoring guard below; the CLI maps no exit code to it."""


# (p, s, m, N) and the exit codes of dist, bounds and periods.  Every r - 1
# here is past 2^64, where factorize can stall (it does on 2^101 - 1), so the
# guard refuses to factor any number that large
@pytest.mark.parametrize("spec,codes", [
    ((2, 1, 101, 1), (0, 0, 0)),
    ((2, 1, 101, 7432339208719), (3, 0, 3)),
    ((2, 1, 101, 2**101 - 1), (3, 0, 3)),
    ((37, 1, 23, 1), (0, 0, 0)),
    ((37, 1, 23, 2), (0, 0, 3)),
    ((37, 1, 23, 4), (0, 0, 3)),
    ((53, 1, 19, 2), (0, 0, 3)),
])
def test_closed_paths_never_factor_large_numbers(monkeypatch, capsys, spec, codes):
    real = numtheory._factorize

    def guard(n):
        if n >= 1 << 64:
            raise _Factored(n)
        return real(n)

    monkeypatch.setattr(numtheory, "_factorize", guard)
    args = [f"--{k}={v}" for k, v in zip("psmN", spec)]
    for command, rc in zip(("dist", "bounds", "periods"), codes):
        start = time.perf_counter()
        assert run(capsys, command, *args, "--format", "json")[0] == rc, command
        assert time.perf_counter() - start < 1, command


def test_closed_paths_never_import_numpy():
    # a closed-form dist, bounds or periods needs no field enumeration, and an
    # oversize enumeration is refused before the field layer loads; verify
    # enumerates, which shows that the check sees numpy when it arrives.
    # Each line also shows whether dataclasses and fractions are loaded: the
    # records are plain classes, and every closed form runs on integers
    code = (
        "import contextlib, io, sys\n"
        "import irrcyclic.cli as cli\n"
        "def modules():\n"
        "    return ' '.join(str(name in sys.modules)\n"
        "                    for name in ('numpy', 'dataclasses', 'fractions'))\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "            rc = cli.main(list(argv))\n"
        "    return rc, err.getvalue(), modules()\n"
        "print('import', 0, modules())\n"
        "spec = ('--p', '2', '--s', '1', '--m', '200', '--N', '3')\n"
        "for name, argv in [\n"
        "    ('dist', ('dist', *spec)),\n"
        "    ('bounds', ('bounds', *spec)),\n"
        "    ('periods-json', ('periods', *spec, '--format', 'json')),\n"
        "    ('periods-text', ('periods', '--p', '7', '--s', '1', '--m', '3', '--N', '3')),\n"
        "    ('tower-budget', ('periods', '--p', '2', '--s', '1', '--m', '40', '--N', '5',\n"
        "                      '--method', 'brute')),\n"
        "    ('enum-budget', ('periods', '--p', '2', '--s', '1', '--m', '24', '--N', '5',\n"
        "                     '--method', 'brute')),\n"
        "    ('dist-tower-budget', ('dist', '--p', '2', '--s', '1', '--m', '40', '--N', '5',\n"
        "                           '--method', 'brute', '--budget', '2199023255552')),\n"
        "    ('verify-enum-budget', ('verify', '--p', '2', '--s', '1', '--m', '30', '--N', '3')),\n"
        "    ('verify-tower-budget', ('verify', '--p', '2', '--s', '1', '--m', '40', '--N', '3',\n"
        "                             '--budget', '2199023255552')),\n"
        "    ('thm22', ('dist', '--p', '2', '--s', '1', '--m', '21', '--N', '49')),\n"
        "    ('verify', ('verify', '--p', '2', '--s', '1', '--m', '4', '--N', '3')),\n"
        "]:\n"
        "    rc, err, loaded = run(*argv)\n"
        "    print(name, rc, loaded, err.strip())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = [line.rstrip() for line in out.stdout.splitlines()]
    assert lines[:5] == [
        "import 0 False False False",
        "dist 0 False False False",
        "bounds 0 False False False",
        "periods-json 0 False False False",
        "periods-text 0 False False False",
    ]
    # the refusals keep the text and the order of the field layer's checks
    assert lines[5:10] == [
        "tower-budget 3 False False False unsupported: SizeBudgetExceeded:"
        " r = 2^40 exceeds the tower budget 67108864",
        "enum-budget 3 False False False unsupported: SizeBudgetExceeded:"
        " period enumeration at r = 16777216 exceeds budget 4194304",
        "dist-tower-budget 3 False False False unsupported: SizeBudgetExceeded:"
        " r = 2^40 exceeds the tower budget 67108864",
        "verify-enum-budget 3 False False False unsupported: SizeBudgetExceeded:"
        " oracle at r = 1073741824 exceeds budget 4194304",
        "verify-tower-budget 3 False False False unsupported: SizeBudgetExceeded:"
        " r = 2^40 exceeds the tower budget 67108864",
    ]
    assert lines[10] == "thm22 0 False False False"
    assert lines[11].startswith("verify 0 True ")

