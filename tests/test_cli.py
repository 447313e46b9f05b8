import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from langchev import ff, liealg, rootdata
from langchev.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_lang_gl1_worked_example():
    code, out = run(["lang", "--group", "GL", "--p", "3", "--e", "1",
                     "--d", "1", "--c", "[[2]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["level"] == "3^(1*2)"
    assert payload["s"] == 2


def test_lang_identity_trivial():
    code, out = run(["lang", "--group", "GL", "--p", "5", "--c",
                     "[[1,0],[0,1]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 1


def test_lang_malformed_matrix():
    code, _ = run(["lang", "--group", "GL", "--p", "3", "--c", "[[bad"])
    assert code == 2


_GL5 = ["lang", "--group", "GL", "--p", "5", "--c"]
_A1_ALGEBRA = ["chevalley", "--type", "A1", "--algebra"]


@pytest.mark.parametrize("argv", [
    _GL5 + ["[]"], _GL5 + ["[[]]"], _GL5 + ["5"], _GL5 + ['{"a":1}'],
    ["lang", "--group", "Torus", "--p", "5", "--c", "[]"],
    ["lang", "--instance", "[1]"],
    ["lang", "--instance", '{"group": [1], "p": 5, "c": [[2]]}'],
    ["lang", "--group", "Sp", "--p", "5", "--c", "[[1,0],[0,1]]",
     "--form", '{"kind":"symplectic"}'],
    _A1_ALGEBRA + ['{"level":"5^(1*1)"}'],
    _A1_ALGEBRA + ['{"level":"5^(1*1)","dim":3,"triples":[[0,1,3,[1]]]}'],
    _A1_ALGEBRA + ['{"level":"5^(1*1)","dim":3,"triples":[[0,1]]}'],
], ids=["empty", "empty-row", "scalar", "object", "torus-empty",
        "instance-array", "group-array", "form-without-gram",
        "algebra-without-dim", "triple-past-dim", "short-triple"])
def test_malformed_json_is_an_input_error(argv, capsys):
    code, out = run(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("input error: ")


@pytest.mark.parametrize("key", ["p", "e", "r", "s"])
@pytest.mark.parametrize("value", ['"x"', "true", "5.0", "[5]"])
def test_instance_field_must_be_a_json_integer(key, value, capsys):
    spec = '{"group": "GL", "p": 5, "c": [[2]], "%s": %s}' % (key, value)
    code, out = run(["lang", "--instance", spec])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err == [f"input error: instance {key} must be a JSON integer, "
                   f"not {json.loads(value)!r}"]


@pytest.mark.parametrize("flag", ["--r", "--s"])
def test_lang_degree_flags_must_be_integers(flag, capsys):
    code, out = run(_GL5 + ["[[2]]", flag, "x"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err == [f"input error: {flag} must be an integer or auto, "
                   f"not 'x'"]


def test_lang_singular_c():
    code, _ = run(["lang", "--group", "GL", "--p", "3", "--c",
                   "[[1,1],[1,1]]"])
    assert code == 2


def test_lang_instance_json_form_group(tmp_path):
    spec = {
        "group": "Sp", "p": 5, "e": 1, "d_or_n": 2, "r": 1,
        "c": [[1, 0], [0, 1]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(spec))
    code, out = run(["lang", "--instance", str(path)])
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("argv, message", [
    (["--group", "Sp", "--p", "7", "--c", "[[1,0],[0,1]]", "--form",
      '{"kind":"orthogonal","gram":[[0,1],[1,0]]}'],
     "Sp needs a form of kind 'symplectic', not 'orthogonal'"),
    (["--group", "SO", "--p", "7", "--c", "[[1,0],[0,1]]", "--form",
      '{"kind":"symplectic","gram":[[0,1],[6,0]]}'],
     "SO needs a form of kind 'orthogonal', not 'symplectic'"),
    (["--group", "GL", "--p", "7", "--c", "[[1,0],[0,1]]", "--form",
      '{"kind":"orthogonal","gram":[[0,1],[1,0]]}'], "GL takes no form"),
    (["--group", "Torus", "--p", "7", "--c", "[1, 1]", "--form",
      '{"kind":"symplectic","gram":[[0,1],[6,0]]}'], "Torus takes no form"),
], ids=["Sp-orthogonal", "SO-symplectic", "GL-form", "Torus-form"])
def test_lang_form_of_the_wrong_kind_exits_2(argv, message, capsys):
    # the identity preserves every form: the form's kind is the only fault
    code, out = run(["lang"] + argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {message}"]


@pytest.mark.parametrize("trust", [["--trust-s"], []])
def test_lang_claimed_s_below_one_is_named(trust, capsys):
    # a trusted s = 0 used to reach the solve and fail as "r = 0"
    code, out = run(_GL5 + ["[[2]]", "--s", "0"] + trust)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.splitlines() == [
        "input error: claimed s = 0 must be >= 1"]


def test_lang_torus():
    code, out = run(["lang", "--group", "Torus", "--p", "3", "--c",
                     "[2, 1]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["s"] == 2


def test_lang_torus_infers_level():
    argv = ["lang", "--group", "Torus", "--p", "5", "--c", "[[1,2],[3,1]]"]
    code, out = run(argv)
    assert code == 0
    code_r, out_r = run(argv + ["--r", "2"])
    assert code_r == 0
    assert json.loads(out)["level"] == json.loads(out_r)["level"]


def test_lang_d_must_match_c(capsys):
    cases = ((["--group", "GL", "--p", "3", "--c", "[[2]]"], 1),
             (["--group", "GL", "--p", "5", "--c", "[[1,0],[0,1]]"], 2),
             (["--group", "Torus", "--p", "3", "--c", "[2, 1]"], 2))
    for argv, d in cases:
        capsys.readouterr()
        code, out = run(["lang"] + argv + ["--d", str(d)])
        assert code == 0 and json.loads(out)["ok"]
        for wrong in (d - 1, d + 2):
            code, out = run(["lang"] + argv + ["--d", str(wrong)])
            assert code == 2 and out == ""
            assert f"--d {wrong}, but" in capsys.readouterr().err


def test_lang_c_written_over_k2_descends_unless_r_is_claimed(capsys):
    # the coefficient-array length sets the level c is parsed at, not r:
    # the instance finds r = 1 for a c whose entries lie in k
    argv = ["lang", "--group", "GL", "--p", "5", "--c", "[[[2,0]]]"]
    code, out = run(argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["level"] == "5^(1*4)"
    assert payload == json.loads(run(["lang", "--group", "GL", "--p", "5",
                                      "--c", "[[2]]"])[1])
    capsys.readouterr()
    code, out = run(argv + ["--r", "2"])
    assert code == 2 and out == ""
    assert "claimed r = 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lang", "--group", "GL", "--p", "5", "--c", "[[2]]", "--order-cap",
     "10"],
    ["chevalley", "--type", "A1", "--p", "5", "--toral-factor", "32"],
    ["chevalley", "--type", "A1", "--p", "5", "--split-factor", "4"],
])
def test_removed_budget_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    assert exc.value.code == 2


def test_chevalley_scramble_roundtrip():
    code, out = run(["chevalley", "--type", "A2", "--p", "7", "--scramble",
                     "5", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_chevalley_json_pinned_for_fixed_seed():
    # sha256 of the whole JSON line; B2 over GF(25) runs the m = 2 kernel
    code, out = run(["chevalley", "--type", "B2", "--p", "5", "--e", "2",
                     "--scramble", "1", "--seed", "7"])
    assert code == 0
    assert json.loads(out)["verdict"] is True
    assert json.loads(out)["witness"] is None
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "22acb984a12cbcba23ceb71e60773c544c5ed04869427ebe9c69e3520d4e7cca")


def test_lang_prime_past_word_size_is_input_error(capsys):
    # (p-1)^2 >= 2^63: no int64 product over this field is exact
    code, out = run(["lang", "--group", "GL", "--p", "4294967311", "--c",
                     "[[2,3],[5,7]]"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "4294967311" in err and "Traceback" not in err


def test_lang_degree_past_word_size_is_input_error(capsys):
    # int64 holds GF(p) products at this p, but no level of degree >= 2:
    # the tower degree the norm's order needs is refused before any search
    start = time.perf_counter()
    code, out = run(["lang", "--group", "GL", "--p", "2147483647", "--c",
                     "[[2,3],[5,7]]"])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "2147483647" in err and "Traceback" not in err


def _cli_env():
    import langchev
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(langchev.__file__))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.mark.parametrize("p, s", [(257, 172), (10007, 10006)])
def test_lang_degree_past_budget_exits_3(p, s):
    # the norm order s needs the level k_s; building it took longer than
    # any timeout before the degree budget was checked first
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "langchev.cli", "lang", "--group", "GL",
         "--p", str(p), "--c", "[[2,3],[5,7]]"], env=_cli_env(),
        capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 10
    assert done.returncode == 3 and done.stdout == ""
    err = done.stderr.splitlines()
    assert len(err) == 1 and f"k_{s} " in err[0] and "64" in err[0]


def test_lang_max_degree_flag(capsys):
    # 2 has order 4 mod 5, so the solution lives in GF(5^4)
    argv = ["lang", "--group", "GL", "--p", "5", "--c", "[[2]]"]
    code, out = run(argv + ["--max-degree", "3"])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert "k_4 " in err and "budget 3" in err
    code, out = run(argv + ["--max-degree", "4"])
    assert code == 0 and json.loads(out)["level"] == "5^(1*4)"


def test_verification_failure_exits_6(monkeypatch, capsys):
    from langchev import linalg
    from langchev.errors import LangchevError, VerificationError
    assert issubclass(VerificationError, AssertionError)
    assert issubclass(VerificationError, LangchevError)
    factor_int = linalg._factor_int

    def dropping(n, rng):  # the bound loses its 2: 3 has order 6 mod 7
        out = factor_int(n, rng)
        out.pop(2, None)
        return out

    monkeypatch.setattr(linalg, "_factor_int", dropping)
    code, out = run(["lang", "--group", "GL", "--p", "7", "--c", "[[3]]"])
    assert code == 6 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == ["verification failed: order bound violated"]


def _outputs_with_and_without_optimize(argv):
    env = _cli_env()
    outs = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-m", "langchev.cli",
                               *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    return outs


# Sp over GF(5) with the block form diag(J, J) and SO over GF(7) with
# diag(1, 1, 3): c = a0^(-F) a0 for a seeded a0 over k_2, in CLI JSON
FORM_INSTANCES = [
    ("Sp", "5",
     "[[[3,1],[0,4],[4,4],[0,4]],[[0,2],[3,4],[2,0],[0,2]],"
     "[[0,3],[0,4],[3,3],[0,0]],[[3,0],[4,1],[0,3],[3,2]]]",
     '{"kind": "symplectic", "gram": [[0,1,0,0],[4,0,0,0],[0,0,0,1],'
     '[0,0,4,0]]}', "23b0f61ce987"),
    ("SO", "7",
     "[[[3,0],[5,1],[3,1]],[[5,6],[3,0],[4,1]],[[2,4],[5,4],[4,0]]]",
     '{"kind": "orthogonal", "gram": [[1,0,0],[0,1,0],[0,0,3]]}',
     "37da3c53327c"),
]


def test_lang_output_same_under_python_optimize():
    # python -O strips assert statements; over GF(5^8) inverses go through
    # extended Euclid and the norm's order through matrix_order, and the
    # Sp and SO solves run the normal-basis and form checks: none of these
    # may depend on asserts
    outs = _outputs_with_and_without_optimize(
        ["lang", "--group", "GL", "--p", "5", "--c", "[[0,1],[3,0]]",
         "--seed", "1", "--output", "json"])
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["level"] == "5^(1*8)"
    assert hashlib.sha256(outs[0].encode()).hexdigest().startswith(
        "8ae1dab9f169")
    for group, p, c, form, digest in FORM_INSTANCES:
        outs = _outputs_with_and_without_optimize(
            ["lang", "--group", group, "--p", p, "--c", c, "--form", form,
             "--seed", "1", "--output", "json"])
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["ok"] is True
        assert hashlib.sha256(outs[0].encode()).hexdigest().startswith(
            digest)


def test_chevalley_output_same_under_python_optimize():
    # the recognition's own checks (root lines, sl2 normalization, the
    # h-basis system) raise explicitly, so -O runs the same code
    outs = _outputs_with_and_without_optimize(
        ["chevalley", "--type", "B3", "--p", "7", "--seed", "1"])
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["verdict"] is True


def test_no_assert_statements_in_checked_modules():
    # python -O strips assert statements, so every module of the package
    # raises its checks explicitly
    import langchev
    src = os.path.dirname(langchev.__file__)
    names = sorted(n for n in os.listdir(src) if n.endswith(".py"))
    assert {"cli.py", "ff.py", "lang.py", "linalg.py"} <= set(names)
    for name in names:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert lines == [], f"assert statements in {name} at {lines}"


def test_chevalley_char_guard(capsys):
    code, _ = run(["chevalley", "--type", "A2", "--p", "3"])
    assert code == 2
    assert "characteristic must exceed 3" in capsys.readouterr().err
    code, _ = run(["chevalley", "--type", "A2", "--p", "1"])
    assert code == 2
    assert "p = 1 is not prime" in capsys.readouterr().err


def test_chevalley_algebra_over_gf3_exits_2(tmp_path, capsys):
    # the characteristic gate of LieAlgebraFq refuses an external algebra
    # too: sl2 over GF(3), [h, e] = 2e, [h, f] = -2f, [e, f] = h
    triples = [[0, 1, 1, [2]], [1, 0, 1, [1]], [0, 2, 2, [1]],
               [2, 0, 2, [2]], [1, 2, 0, [1]], [2, 1, 0, [2]]]
    path = tmp_path / "sl2_gf3.json"
    path.write_text(json.dumps({"dim": 3, "level": "3^(1*1)",
                                "triples": triples}))
    code, out = run(["chevalley", "--type", "A1", "--algebra", str(path)])
    assert code == 2 and out == ""
    assert "characteristic must exceed 3" in capsys.readouterr().err


def test_chevalley_unscrambled():
    code, out = run(["chevalley", "--type", "A1", "--p", "5", "--seed",
                     "3"])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_chevalley_external_algebra(tmp_path):
    rd = rootdata.build("A2")
    tower = ff.make_tower(7)
    L = liealg.from_root_datum(rd, tower)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(L.to_json()))
    code, out = run(["chevalley", "--type", "A2", "--algebra", str(path),
                     "--seed", "2"])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_chevalley_recognition_failure(tmp_path):
    rd = rootdata.build("A2")
    tower = ff.make_tower(7)
    L = liealg.from_root_datum(rd, tower)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(L.to_json()))
    code, _ = run(["chevalley", "--type", "B2", "--algebra", str(path),
                   "--seed", "2"])
    assert code == 4


def test_weyl_examples():
    code, out = run(["weyl", "--type", "G2", "--what", "derangements",
                     "--output", "text"])
    assert code == 0 and out.strip() == "1/3"
    code, out = run(["weyl", "--type", "A4", "--what", "qw", "--element",
                     "coxeter", "--output", "text"])
    assert code == 0
    assert [int(c) for c in out.split()] == \
        [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1]
    code, out = run(["weyl", "--type", "B2", "--what", "cis", "--element",
                     "subcox", "--output", "text"])
    assert code == 0 and out.strip() == "c=8 c_1=4 c_2=0"


def test_weyl_large_gate():
    code, _ = run(["weyl", "--type", "E7", "--what", "derangements"])
    assert code == 5


def test_weyl_e7_allow_large_pinned():
    code, out = run(["weyl", "--type", "E7", "--what", "derangements",
                     "--allow-large"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["count"], payload["total"]) == (1217536, 2903040)
    code, out = run(["weyl", "--type", "E7", "--what", "cis", "--element",
                     "subcox", "--allow-large"])
    assert code == 0
    assert json.loads(out)["c"] == 60


def test_weyl_never_builds_structure_constants(monkeypatch):
    calls = []
    build = rootdata.RootDatum._build_structure_constants

    def counted(self):
        calls.append(self.cartan_type)
        return build(self)

    monkeypatch.setattr(rootdata.RootDatum, "_build_structure_constants",
                        counted)
    for argv in (["--what", "derangements"],
                 ["--what", "qw", "--element", "coxeter"],
                 ["--what", "cis", "--element", "subcox"]):
        code, _ = run(["weyl", "--type", "E6"] + argv)
        assert code == 0
    assert calls == []
    rd = rootdata.build("E6")
    table = rd._N
    assert rd._N is table
    assert rootdata.structure_constant(rd, *rd.extraspecial[6]) > 0
    assert calls == ["E6"]


def test_weyl_unknown_type():
    code, _ = run(["weyl", "--type", "Z9", "--what", "derangements"])
    assert code == 2


def test_determinism_same_seed():
    a = run(["chevalley", "--type", "A2", "--p", "7", "--scramble", "3",
             "--seed", "11"])
    b = run(["chevalley", "--type", "A2", "--p", "7", "--scramble", "3",
             "--seed", "11"])
    assert a == b
    c = run(["lang", "--group", "GL", "--p", "5", "--c", "[[2]]",
             "--seed", "4"])
    d = run(["lang", "--group", "GL", "--p", "5", "--c", "[[2]]",
             "--seed", "4"])
    assert c == d


def test_env_seed(monkeypatch):
    monkeypatch.setenv("LANGCHEV_SEED", "17")
    a = run(["chevalley", "--type", "A1", "--p", "7"])
    monkeypatch.setenv("LANGCHEV_SEED", "17")
    b = run(["chevalley", "--type", "A1", "--p", "7"])
    assert a == b


@pytest.mark.parametrize("fixture,what,element", [
    ("constants_table.txt", "cis", "subcox"),
    ("qw_coxeter_table.txt", "qw", "coxeter"),
    ("derangements_table.txt", "derangements", None),
])
def test_table_fixtures(fixture, what, element):
    path = os.path.join(FIXTURES, fixture)
    for line in open(path).read().splitlines():
        t, expected = line.split(maxsplit=1)
        argv = ["weyl", "--type", t, "--what", what, "--output", "text"]
        if element:
            argv += ["--element", element]
        code, out = run(argv)
        assert code == 0
        assert out.strip() == expected.strip(), (t, out, expected)


def test_chevalley_bad_algebra_rejected(tmp_path):
    # a Jacobi-violating tensor is an input error, not a recognition one
    data = {"dim": 3, "level": "5^(1*1)",
            "triples": [[0, 1, 0, [1]], [1, 0, 0, [4]],
                        [0, 2, 2, [1]], [2, 0, 2, [4]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _ = run(["chevalley", "--type", "A1", "--algebra", str(path)])
    assert code == 2


def test_chevalley_algebra_that_is_not_p_closed_fails_recognition(tmp_path):
    # [x, y] = y, [x, z] = zeta z over GF(25): (ad x)^5 = diag(1, zeta^5) on
    # (y, z) is no ad w, yet ad x is split; the toral test reads only
    # (ad h)^q, so the run ends in a recognition failure, not exit 6
    data = {"dim": 3, "level": "5^(2*1)",
            "triples": [[0, 1, 1, [1, 0]], [1, 0, 1, [4, 0]],
                        [0, 2, 2, [0, 1]], [2, 0, 2, [0, 4]]]}
    path = tmp_path / "not_p_closed.json"
    path.write_text(json.dumps(data))
    code, _ = run(["chevalley", "--type", "A1", "--algebra", str(path)])
    assert code in (3, 4)


def test_chevalley_dense_algebra_file(tmp_path):
    # a scrambled B3 (d = 21, dense tensor) passes the exhaustive Jacobi
    # check and is recognised; one corrupted bracket makes it an input error
    L = liealg.from_root_datum(rootdata.build("B3"), ff.make_tower(7))
    rng = random.Random(5)
    while True:
        P = liealg.Mat.random(L.level, L.dim, L.dim, rng)
        if P.try_inverse() is not None:
            break
    data = liealg.scramble_basis(L, P).to_json()
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(data))
    code, out = run(["chevalley", "--type", "B3", "--algebra", str(path),
                     "--seed", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] is True
    i, j, k, _ = data["triples"][0]
    for t in data["triples"]:
        if t[:3] == [i, j, k]:
            t[3] = [(t[3][0] + 1) % 7]
        elif t[:3] == [j, i, k]:
            t[3] = [(t[3][0] - 1) % 7]
    path.write_text(json.dumps(data))
    code, _ = run(["chevalley", "--type", "B3", "--algebra", str(path),
                   "--seed", "1"])
    assert code == 2


def test_in_process_calls_build_the_parser_once(monkeypatch):
    # (argv, exit code, sha256 prefix of stdout); a rejected option in the
    # middle of the session must not leave the shared parser changed
    session = [
        (["lang", "--group", "GL", "--p", "5", "--c", "[[0,1],[3,0]]",
          "--seed", "1"], 0, "8ae1dab9f169"),
        (["lang", "--group", "Torus", "--p", "5", "--c", "[[0,1],[1,0]]",
          "--seed", "2"], 0, "68af695975cf"),
        (["lang", "--group", "GL", "--p", "3", "--c", "[[1,1],[1,1]]"], 2,
         "e3b0c44298fc"),
        (["weyl", "--type", "B3", "--what", "cis", "--output", "text"], 0,
         "7bfc0f1e4969"),
        (["chevalley", "--type", "A2", "--p", "7", "--scramble", "2",
          "--seed", "3"], 0, "fdb29e9c06d8"),
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    run(session[0][0])
    del built[:]
    for _ in range(2):
        for argv, code, digest in session:
            got, out = run(argv)
            assert got == code
            assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest
        with pytest.raises(SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            main(["lang", "--group", "XX"])
    assert built == []
