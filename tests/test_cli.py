"""CLI subcommands, exit codes and JSON round-trips."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import khtorsion
from khtorsion import (Diagram, Smoothing, TorsionError, all_even_tuples,
                       certify_torsion, monocircular)
from khtorsion.cli import main
from khtorsion.knotdata import HOPF_2
from khtorsion.torsion import route_setup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--pretzel", "-1,3")
    assert code == 0
    assert "j\\i" in out


def test_table_json_roundtrip(capsys):
    code, out, _ = run(capsys, "table", "--pretzel", "-1,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == json.loads(json.dumps(payload))
    assert payload["schema"] == 1
    assert payload["offsets"] == {"p": 3, "n": 1}
    assert all(not entry["torsion"] for entry in payload["table"].values())


def test_table_pd_inline_and_mirror(capsys):
    code, out, _ = run(capsys, "table", "--pd-inline", HOPF_2, "--mirror",
                       "--json")
    assert code == 0
    json.loads(out)


def test_table_size_guard_exit_code(capsys):
    entries = ",".join(["1"] * 19)
    code, _, err = run(capsys, "table", "--pretzel", entries)
    assert code == 4
    assert "guard" in err


def test_table_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "table", "--pd-inline", "X(1,2,3)")
    assert code == 2


def test_certify_monocircular(capsys):
    code, out, _ = run(capsys, "certify", "--monocircular", "3,6",
                       "--mu", "2,2", "--verify-oracle")
    assert code == 0
    assert "(i,j)=(5,7)" in out and "order=2" in out


def test_certify_rejection_exit_code(capsys):
    code, _, err = run(capsys, "certify", "--pretzel", "-1,3", "--mu", "2,2")
    assert code == 3
    assert "height-1" in err


def test_certify_all_even_braid(capsys):
    code, out, _ = run(capsys, "certify", "--braid3", "7,2", "--all-even",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    mus = [tuple(c["mu"]) for c in payload["certificates"]]
    assert mus == [(2, 2), (4, 2), (6, 2)]
    degrees = [c["degrees"]["i"] for c in payload["certificates"]]
    assert degrees == [5, 7, 9]
    assert degrees == [c["degrees"]["h"] for c in payload["certificates"]]


def test_certify_all_even_sets_up_once(capsys, count_calls):
    # one hypothesis check and one ladder-first reorder for all six tuples
    calls = count_calls("check_hypotheses", "ladder_first")
    code, out, _ = run(capsys, "certify", "--all-even", "--json",
                       "--monocircular", "5,6")
    assert code == 0
    assert len(json.loads(out)["certificates"]) == 6
    assert calls == {"check_hypotheses": 1, "ladder_first": 1}


def test_certify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "certify", "--monocircular", "3,6",
                       "--mu", "2,2", "--json")
    payload = json.loads(out)
    cert = payload["certificates"][0]
    assert cert["schema"] == 1
    assert cert["order"] == 2
    assert payload == json.loads(json.dumps(payload))


D36_ALL_EVEN = ("certify", "--monocircular", "3,6", "--all-even",
                "--verify-even", "--json")


@pytest.mark.parametrize("empty", [False, True])
def test_certify_json_layout_is_one_dumps(capsys, monkeypatch, empty):
    # each certificate is encoded as it is made, the last tuple first;
    # the whole payload must still read as one json.dumps(indent=2) of
    # the certificates in tuple order, `[]` when empty, and the text
    # mode must list them in that order too
    if empty:
        monkeypatch.setattr(khtorsion.cli, "all_even_tuples", lambda h: [])
    for h1, h2 in [(3, 6), (5, 6)]:
        d = monocircular(h1, h2)
        mus = all_even_tuples(route_setup(d, 0).report.mu_heights())
        assert len(mus) > 1
        if empty:
            mus = []
        certs = [certify_torsion(d, 0, mu, verify_even=True) for mu in mus]
        argv = ("certify", "--monocircular", f"{h1},{h2}", "--all-even",
                "--verify-even")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert out == json.dumps(
            {"schema": 1, "certificates": [c.to_json() for c in certs]},
            indent=2, sort_keys=True) + "\n"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "".join(
            f"mu={list(c.mu)} route={c.route} order={c.order} "
            f"(i,j)=({c.i},{c.j}) (h,q)=({c.h},{c.q}) "
            f"[{', '.join(f'{k}={v}' for k, v in sorted(c.flags.items()))}]\n"
            for c in certs)


def test_certificate_json_is_json_dumps():
    # the hand-written chains of `_certificate_json` against json.dumps,
    # on every certificate of the benchmark's certify and oracle items
    for family, params, state, oracle in [
            ("monocircular", (6, 7), "sA", False),
            ("monocircular", (7, 7), "sA", False),
            ("pretzel", (5, -3, 2, 3, -2), "signed", False),
            ("braid3", (7, 2), "sA", False),
            ("pretzel", (5, -3, 2, 3, -2), "signed", True),
            ("monocircular", (5, 5), "sA", True),
            ("monocircular", (3, 6), "sA", True)]:
        d = khtorsion.cli._family_diagram(family, list(params))
        s0 = khtorsion.cli._state_mask(d, state)
        for mu in all_even_tuples(route_setup(d, s0).report.mu_heights()):
            cert = certify_torsion(d, s0, mu, verify_even=not oracle,
                                   oracle=oracle)
            assert khtorsion.cli._certificate_json(cert) == json.dumps(
                cert.to_json(), indent=2, sort_keys=True)


def test_certify_error_after_a_certificate_prints_nothing(capsys,
                                                         monkeypatch):
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(args[2])
        if len(calls) == 2:
            raise TorsionError("no certificate")
        return certify_torsion(*args, **kwargs)

    monkeypatch.setattr(khtorsion.cli, "certify_torsion", second_fails)
    code, out, err = run(capsys, *D36_ALL_EVEN)
    assert (code, out, err) == (2, "", "error: no certificate\n")
    assert len(calls) == 2


def test_certify_json_working_set_stays_small():
    # the traced peak of one certify --json of D(6,7), stdout captured:
    # 6.0-6.7 MiB with every certificate kept until the end and `sides`
    # a tuple, 2.6-3.3 MiB with each certificate encoded as it is made
    # and `sides` as bytes (Python 3.11)
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["certify", "--monocircular", "6,7", "--all-even",
                         "--verify-even", "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(json.loads(out.getvalue())["certificates"]) > 1
    assert peak < 4.5 * 2**20, peak / 2**20


def test_grid_text_and_json(capsys):
    code, out, _ = run(capsys, "grid", "10", "15")
    assert code == 0
    assert "0,1,0,2,1,3,2,4,3,5,4,5,5,5,5,4,5,4,4,3,3,2,2,1,1" in out
    code, out, _ = run(capsys, "grid", "3", "6", "--json")
    payload = json.loads(out)
    assert payload["counts"] == [0, 1, 0, 1, 1, 2, 1, 1, 1]


def test_bound_pretzel_with_classes(capsys):
    code, out, _ = run(capsys, "bound", "--pretzel", "5,-3,2,3,-2")
    assert code == 0
    assert "at least 1" in out
    assert "4 distinct classes" in out


def test_bound_braid_json(capsys):
    code, out, _ = run(capsys, "bound", "--braid3", "7,2", "--json")
    payload = json.loads(out)
    assert payload["bound"] == 2 and payload["applicable"]


def test_bound_inapplicable_is_report_not_error(capsys):
    code, out, _ = run(capsys, "bound", "--pretzel", "3,2,-2")
    assert code == 0
    assert "not applicable" in out


def test_bound_rational_includes_existence(capsys):
    code, out, _ = run(capsys, "bound", "--rational", "4,2,6", "--json")
    payload = json.loads(out)
    assert payload["bound"] == 5
    assert payload["torsion_exists"]["exists"] is True


def test_bound_rational_checks_hypotheses_once(capsys, count_calls):
    # cmd_bound, rational_torsion_exists and the certificate's route
    # setup share one diagram and one hypothesis report
    calls = count_calls("check_hypotheses", "rational")
    code, out, _ = run(capsys, "bound", "--rational", "4,2,6", "--json")
    assert code == 0
    assert calls == {"check_hypotheses": 1, "rational": 1}
    # the stdout recorded before the report was shared, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "80ec7fa027836f4f0345b56aee58d1edf24e0ad190e8a5098f793e2377cf5481")


@pytest.mark.parametrize("argv, prefix", [
    (("--pretzel", "5,-3,2,3,-2", "--state", "signed"), "d31a8291242947da"),
    (("--monocircular", "5,5"), "929845f9f7848779")])
def test_certify_oracle_json_pinned(capsys, argv, prefix):
    # the oracle's gate: the sha256 of `certify --verify-oracle --json`,
    # which holds every certificate's order and exactness flags
    code, out, err = run(capsys, "certify", *argv, "--all-even",
                         "--verify-oracle", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


@pytest.mark.slow
@pytest.mark.parametrize("h1, h2, prefix", [
    (6, 6, "23d4d8d31acc9781"), (5, 7, "e1cfed13d799b707"),
    (6, 7, "3b877dfedd8ab49f"), (7, 7, "448fd1b1882fe186")])
def test_table_json_census_sizes_pinned(capsys, h1, h2, prefix):
    # the table path's gate: the sha256 of `table --json` at census sizes
    code, out, err = run(capsys, "table", "--monocircular", f"{h1},{h2}",
                         "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


@pytest.mark.slow
@pytest.mark.parametrize("argv, prefix", [
    (("--monocircular", "6,8"), "fae3b3fea00b9c14"),
    (("--pretzel", "5,-3,2,3,-2", "--limit", "20"), "475fe58c36c84b0c")])
def test_table_json_largest_pinned(capsys, argv, prefix):
    # the same gate on D(6,8) (14 crossings) and P(5,-3,2,3,-2) (15),
    # about 20 s and 160 MiB each
    code, out, err = run(capsys, "table", *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


def test_pd_file_input(tmp_path, capsys):
    f = tmp_path / "hopf.pd"
    f.write_text(HOPF_2)
    code, out, _ = run(capsys, "table", "--pd", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(not e["torsion"] for e in payload["table"].values())


@pytest.mark.parametrize("text", ["[[1,2,2,1]]", "X(1,2,2,1)"])
def test_pd_file_with_byte_order_mark(tmp_path, capsys, text):
    f = tmp_path / "bom.pd"
    f.write_text(text, encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run(capsys, "table", "--pd", str(f), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["offsets"] == {"n": 1, "p": 0}


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "table", "--pd", "/nonexistent.pd")
    assert code == 2


@pytest.mark.parametrize("spec", ["-1", "-ff", "x"])
def test_state_mask_rejects_negative_and_non_hex(capsys, spec):
    code, _, err = run(capsys, "certify", "--pretzel", "3,3,3",
                       f"--state={spec}", "--mu", "2")
    assert code == 2
    assert err == ("error: --state must be sA, signed or a hex mask; "
                   f"got {spec!r}\n")


def test_ladder_first_order_flag(capsys):
    code, out, _ = run(capsys, "table", "--pretzel", "-1,3",
                       "--order", "ladder-first", "--json")
    assert code == 0


@pytest.mark.parametrize("argv, expected", [
    # blue scars that do not form ladders: the pattern hypotheses fail
    (("certify", "--pretzel", "2,2", "--mu", "2"), 3),
    (("table", "--pretzel", "3,3", "--order", "ladder-first"), 3),
    # a state mask wider than the diagram
    (("certify", "--pretzel", "3,3,3", "--state", "ffff", "--mu", "2"), 2),
    # empty diagram sources
    (("table", "--pretzel", ""), 2),
    (("table", "--pd-inline", ""), 2),
    # family parameters that no constructor accepts
    (("bound", "--pretzel", ""), 2),
    (("bound", "--rational", "0"), 2),
    (("bound", "--braid3", "0,0"), 2),
    (("bound", "--braid3", "7"), 2),
    # a PD file that is not UTF-8 text; {binary} is its path
    (("table", "--pd", "{binary}"), 2),
    # a negative state mask
    (("certify", "--pretzel", "3,3,3", "--state", "-1", "--mu", "2"), 2),
    # the all-B state of 301 circles, more than a byte can number
    (("certify", "--pretzel", "300", "--state", "f" * 75, "--all-even"), 3),
    # PD text that parse_pd rejects: truncated JSON, a JSON object, and
    # a PD[] wrapper with no terms
    (("table", "--pd-inline", "[[1,2"), 2),
    (("table", "--pd-inline", '{"a": 1}'), 2),
    (("table", "--pd-inline", "PD[]"), 2),
])
def test_bad_input_exit_code_without_traceback(capsys, tmp_path, argv,
                                               expected):
    binary = tmp_path / "binary.pd"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    argv = [a.replace("{binary}", str(binary)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in out + err
    assert err.startswith("rejected: " if expected == 3 else "error: ")


@pytest.mark.parametrize("flags", [["--mu", "2,2", "--all-even"], []])
def test_certify_takes_one_of_mu_and_all_even(capsys, flags):
    # a usage error: --mu is never dropped in favour of --all-even
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--monocircular", "3,6", *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--mu" in captured.err and "--all-even" in captured.err


@pytest.mark.parametrize("limit", ["-1", "x"])
def test_table_limit_must_be_nonnegative(capsys, limit):
    # a usage error, not the size guard's exit 4
    with pytest.raises(SystemExit) as exc:
        main(["table", "--pretzel", "1,1", "--limit", limit])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --limit: not an integer >= 0: '{limit}'" \
        in captured.err


def test_family_entries_must_be_integers(capsys):
    # a usage error from argparse, before any diagram is built
    with pytest.raises(SystemExit) as exc:
        main(["table", "--pretzel", "1,x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --pretzel: not an integer list: '1,x'" in captured.err


def test_closed_stdout_pipe_exits_ok():
    """A reader that closes the pipe before the command writes: exit 0
    and nothing on stderr."""
    src = str(Path(khtorsion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen(
            [sys.executable, "-m", "khtorsion.cli", "certify",
             "--monocircular", "3,6", "--all-even", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("argv", [
    "table --pretzel -3,3,-3",
    "certify --monocircular 3,6 --all-even --verify-even",
    "certify --pretzel 5,-3,2,3,-2 --state signed --mu 2,2,2 "
    "--verify-oracle",
    "certify --rational 3,2,-2,2 --state signed --all-even",
    "bound --pretzel 5,-3,2,3,-2",
    "bound --rational 4,2,6",
    "grid 3 4",
    "certify --pretzel 2,2 --mu 2",
])
def test_cli_call_leaves_no_cyclic_garbage(capsys, argv):
    """The per-diagram data of a call is freed by reference counting
    when the call returns, not left for the cycle collector.  Argparse
    leaves a cycle of its own, so only diagrams and smoothings count."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv.split())
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (Diagram, Smoothing))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert left == []


# at most about 6 crossings; the fixed lists pass the ladder hypotheses
# as braid3, rational and monocircular parameters, so some certificates
# are built
_PARAMS = st.one_of(
    st.lists(st.integers(-4, 4), max_size=4).filter(
        lambda a: sum(map(abs, a)) <= 6).map(
        lambda a: ",".join(map(str, a))),
    st.sampled_from(("2,3", "3,3", "3,2")))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("table", "certify", "bound", "grid")))
    if command == "grid":
        return [command] + [str(draw(st.integers(-1, 6))) for _ in range(2)]
    families = ("pretzel", "braid3", "rational")
    if command != "bound":
        families += ("monocircular",)
    argv = [command, f"--{draw(st.sampled_from(families))}", draw(_PARAMS)]
    if command != "bound" and draw(st.booleans()):
        argv.append("--mirror")
    if command == "table" and draw(st.booleans()):
        argv.append(f"--limit={draw(st.integers(-1, 8))}")
    if command == "certify":
        if draw(st.booleans()):
            argv += ["--state", draw(st.sampled_from(
                ("sA", "signed", "0", "3", "ff", "", "x")))]
        argv += (["--all-even"] if draw(st.booleans())
                 else ["--mu", draw(_PARAMS)])
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, fence):
    """The first `fence` code block after the README heading."""
    text = README.read_text()
    body = text[text.index(heading):]
    start = body.index(fence) + len(fence)
    return body[start:body.index("```", start)]


def _readme_commands():
    lines = [line.split("#")[0].split()
             for line in _readme_block("## CLI", "```sh").splitlines()]
    return [pytest.param(argv[1:], id=" ".join(argv[1:3]))
            for argv in lines if argv[:1] == ["khtorsion"]]


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_cli_lines_exit_ok(capsys, tmp_path, monkeypatch, argv):
    # each line runs as written; `--pd diagram.pd` reads the 6_1 PD code
    # from that name in the working directory
    from khtorsion.knotdata import KNOT_6_1
    (tmp_path / "diagram.pd").write_text(KNOT_6_1)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, ""), argv
    assert out


def test_readme_cli_block_is_read():
    # an empty parametrization would pass silently
    assert len(_readme_commands()) >= 8


def test_readme_library_sketch_values():
    # the sketch runs as written, and its commented values hold
    ns = {}
    exec(_readme_block("## Library sketch", "```python"), ns)
    assert tuple(l.height for l in ns["ladders"]) == (3, 6)
    assert (ns["cert"].i, ns["cert"].j) == (5, 7)
    assert ns["cert"].order == 2
    assert ns["khovanov_table"](ns["d"]).entry_hq(3, 9) == (1, (2, 2))
