"""Command line interface: exit codes, files written, and report contents."""

import json
import warnings

import numpy as np
import pytest
from oracles import json_document

from qubit_retro import ChannelRep, bayes, boundary_chi, cli, dump_json, is_cptp, scans
from qubit_retro.cli import main


@pytest.fixture
def files(tmp_path):
    paths = {
        "channel": tmp_path / "chan.json",
        "state": tmp_path / "state.json",
        "boundary": tmp_path / "boundary.json",
        "offaxis": tmp_path / "offaxis.json",
        "nonunital": tmp_path / "nonunital.json",
        "noncp": tmp_path / "noncp.json",
        "out": tmp_path / "out",
    }
    dump_json(paths["channel"], {"kind": "pauli", "p": [0.8, 0.1, 0.06, 0.04]})
    dump_json(paths["state"], {"bloch": [0.3, 0.2, -0.4]})
    dump_json(paths["boundary"], {"kind": "pauli", "p": [0.25, 0.75, 0.0, 0.0]})
    dump_json(paths["offaxis"], {"bloch": [0.0, 0.5, 0.0]})
    g = 0.3
    root = float(np.sqrt(1.0 - g))
    dump_json(
        paths["nonunital"],
        {"kind": "ptm", "m": [1, 0, 0, 0, 0, root, 0, 0, 0, 0, root, 0, g, 0, 0, 1 - g]},
    )
    dump_json(
        paths["noncp"],
        {"kind": "ptm", "m": [1, 0, 0, 0, 0, 0.9, 0, 0, 0, 0, 0.9, 0, 0, 0, 0, -0.9]},
    )
    return paths


# A minimal valid argv of each subcommand, in the parser's order, and the
# options it parses to.
_MINIMAL = {
    "invert": (["--channel", "c", "--state", "s"],
               {"channel": "c", "state": "s", "tol": 1e-9, "out": None}),
    "unscathed": (["--channel", "c", "--state", "s"],
                  {"channel": "c", "state": "s", "tol": 1e-10}),
    "verify": (["--channel", "c", "--state", "s", "--inverse", "i"],
               {"channel": "c", "state": "s", "inverse": "i", "tol": 1e-9, "out": None}),
    "scan": (["--family", "bb84"], {"family": "bb84", "resolution": 201, "tol": 1e-9, "out": None}),
    "kraus": (["--channel", "c"], {"channel": "c", "tol": 1e-9, "out": None}),
    "three-entry": ([], {"resolution": 8, "seed": 0, "tol": 1e-9, "out": None}),
}


def test_parser_pins_every_subcommand_option_and_default():
    parser = cli._build_parser()
    assert "{" + ",".join(_MINIMAL) + "}" in parser.format_usage()
    for command, (argv, options) in _MINIMAL.items():
        assert vars(parser.parse_args([command, *argv])) == {"command": command, **options}


def test_usage_errors_exit_1_never_2(tmp_path, capsys):
    # Exit 2 means "no inverse", so no usage error may exit with argparse's 2.
    out = str(tmp_path / "out")
    for argv in (
        ["fly"],
        ["scan", "--family", "bell", "--out", out],
        ["scan", "--family", "bb84", "--tol", "-1", "--out", out],
        ["scan", "--family", "bb84", "--resolution", "1", "--out", out],
        ["three-entry", "--resolution", "2", "--out", out],
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1, argv
        assert "error" in capsys.readouterr().err, argv
    assert not (tmp_path / "out").exists()


def test_three_entry_names_a_negative_seed(tmp_path, capsys):
    # NumPy's own error for it, "expected non-negative integer", names no option.
    out = tmp_path / "out"
    assert main(["three-entry", "--resolution", "4", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_non_finite_tol_is_rejected(tmp_path, capsys):
    # At the default tol this prior has no inverse (slack3 < 0); an infinite
    # tol would accept the candidate and call any inverse symmetric.
    channel, state, wrong = tmp_path / "c.json", tmp_path / "s.json", tmp_path / "w.json"
    dump_json(channel, {"kind": "pauli", "p": [0.4, 0.3, 0.2, 0.1]})
    dump_json(state, {"bloch": [0.9, 0.3, -0.2]})
    dump_json(wrong, {"kind": "pauli", "p": [0.7, 0.1, 0.1, 0.1]})
    invert = ["invert", "--channel", str(channel), "--state", str(state)]
    assert main(invert) == 2
    capsys.readouterr()
    out = tmp_path / "out"
    for args in (
        invert,
        ["verify", "--channel", str(channel), "--state", str(state), "--inverse", str(wrong)],
        ["scan", "--family", "depolarizing", "--resolution", "5", "--out", str(out)],
    ):
        for tol in ("inf", "nan", "0"):
            assert main(args + ["--tol", tol]) == 1, (args[0], tol)
            captured = capsys.readouterr()
            assert "tolerance must be positive and finite" in captured.err
            assert "verdict" not in captured.out
    assert not out.exists()


def test_invert_writes_inverse_and_report(files, capsys):
    code = main(
        ["invert", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--out", str(files["out"])]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: inverse exists" in out
    report = json.loads((files["out"] / "invert_report.json").read_text())
    assert report["verdict"] == "inverse"
    assert report["residual"] <= 1e-9
    inverse = json.loads((files["out"] / "inverse.json").read_text())
    assert inverse["kind"] == "kraus" and len(inverse["ops"]) >= 1


def test_invert_then_verify_roundtrip(files, capsys):
    assert main(
        ["invert", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--out", str(files["out"])]
    ) == 0
    capsys.readouterr()
    code = main(
        ["verify", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--inverse", str(files["out"] / "inverse.json"), "--out", str(files["out"])]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: symmetric" in out
    report = json.loads((files["out"] / "verify_report.json").read_text())
    assert report["symmetric"] is True
    assert report["discrepancy"] <= 1e-9


def test_verify_flags_a_wrong_inverse(files, tmp_path, capsys):
    # A CPTP channel that is not the Bayesian inverse: the discrepancy is
    # macroscopic and the exit code distinguishes it from an input error.
    wrong = tmp_path / "wrong.json"
    dump_json(wrong, {"kind": "pauli", "p": [0.7, 0.1, 0.1, 0.1]})
    code = main(
        ["verify", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--inverse", str(wrong)]
    )
    assert code == 1
    assert "NOT symmetric" in capsys.readouterr().out


def test_verify_rejects_noncp_candidate(files, capsys):
    code = main(
        ["verify", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--inverse", str(files["noncp"])]
    )
    assert code == 3
    assert "not CPTP" in capsys.readouterr().err


def test_verify_rejects_noncp_channel(files, tmp_path, capsys):
    # A transfer matrix that stretches the Bloch ball: its forward
    # expectations would read 2, which is no verdict on any inverse.
    stretch, small = tmp_path / "stretch.json", tmp_path / "small.json"
    dump_json(stretch, {"kind": "ptm", "m": [1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2]})
    dump_json(small, {"bloch": [0.1, 0.0, 0.0]})
    code = main(
        ["verify", "--channel", str(stretch), "--state", str(small),
         "--inverse", str(files["channel"]), "--out", str(files["out"])]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "error: channel is not CPTP\n"
    assert captured.out == ""
    assert not files["out"].exists()


def test_verify_reads_the_transfer_matrices_not_the_projector(files, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("verify called two_time_projector")

    monkeypatch.setattr(bayes, "two_time_projector", boom)
    monkeypatch.setattr(cli, "two_time_projector", boom, raising=False)
    assert main(
        ["invert", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--out", str(files["out"])]
    ) == 0
    assert main(
        ["verify", "--channel", str(files["channel"]), "--state", str(files["state"]),
         "--inverse", str(files["out"] / "inverse.json")]
    ) == 0
    assert "verdict: symmetric" in capsys.readouterr().out


def test_invert_no_inverse_exit_code(files, capsys):
    code = main(
        ["invert", "--channel", str(files["boundary"]), "--state", str(files["offaxis"]),
         "--out", str(files["out"])]
    )
    assert code == 2
    assert "no Bayesian inverse" in capsys.readouterr().out
    report = json.loads((files["out"] / "invert_report.json").read_text())
    assert report["verdict"] == "no-inverse"
    assert report["reason"] == "not-unscathed"


def test_invert_certifies_a_rotated_channel_at_tiny_tol(tmp_path, capsys):
    # The boundary channel p = (0.6, 0, 0.4, 0), conjugated by a rotation,
    # as a ptm file: its Choi spectrum and trace carry roundoff of a few
    # 1e-16, so only a CPTP test at max(tol, 1e-9) lets it invert as the
    # pauli file does.
    m = [1.0000000000000004, 0.0, 0.0, 0.0,
         0.0, 0.3420020487106811, 0.04538143155065655, -0.3022872521310274,
         0.0, 0.04538143155065657, 0.21450313110469948, -0.09660584735062651,
         0.0, -0.3022872521310274, -0.09660584735062651, 0.84349482018462]
    assert not is_cptp(ChannelRep.from_ptm(np.reshape(m, (4, 4))), 1e-17)
    files = {
        "ptm": ({"kind": "ptm", "m": m},
                [-0.21065526393158995, -0.06732182759119498, 0.4484329730379934]),
        "pauli": ({"kind": "pauli", "p": [0.6, 0.0, 0.4, 0.0]}, [0.0, 0.5, 0.0]),
    }
    for kind, (channel_doc, bloch) in files.items():
        channel, state = tmp_path / f"{kind}.json", tmp_path / f"{kind}_state.json"
        dump_json(channel, channel_doc)
        dump_json(state, {"bloch": bloch})
        code = main(["invert", "--channel", str(channel), "--state", str(state), "--tol", "1e-17"])
        assert code == 0, kind
        assert "verdict: inverse exists" in capsys.readouterr().out, kind


def test_invert_rejects_nonunital_channel(files, capsys):
    code = main(
        ["invert", "--channel", str(files["nonunital"]), "--state", str(files["state"])]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "first column" in err and "0.3" in err


def test_invert_rejects_malformed_channel(tmp_path, files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "pauli", "p": [1.0]}')
    code = main(["invert", "--channel", str(bad), "--state", str(files["state"])])
    assert code == 1
    assert "4-entry" in capsys.readouterr().err


def test_non_number_entries_exit_1_with_an_error_line(files, tmp_path, capsys):
    for i, text in enumerate(('{"bloch": [null, 0.2, -0.4]}', '{"bloch": [[0.3], 0.2, -0.4]}',
                              '{"bloch": ["0.8", 0.2, -0.4]}', '{"bloch": [true, 0.2, -0.4]}')):
        state = tmp_path / f"state{i}.json"
        state.write_text(text)
        code = main(["invert", "--channel", str(files["channel"]), "--state", str(state)])
        assert code == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and '"bloch"' in err, text


def test_non_number_kraus_pairs_exit_1_with_an_error_line(tmp_path, capsys):
    docs = ['{"kind": "kraus", "ops": [[[[true, 0], [0, 0]], [[0, 0], [true, false]]]]}']
    for entry in ('["1", 0]', "[1, 0, 0]", "[1" + "0" * 400 + ", 0]"):
        docs.append('{"kind": "kraus", "ops": [[[[1, 0], [0, 0]], [[0, 0], %s]]]}' % entry)
    for i, doc in enumerate(docs):
        channel = tmp_path / f"kraus{i}.json"
        channel.write_text(doc)
        assert main(["kraus", "--channel", str(channel)]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and '"ops"' in err, doc


def test_out_naming_a_file_exits_1_with_an_error_line(files, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    common = ["--channel", str(files["channel"]), "--state", str(files["state"])]
    for args in (
        ["invert", *common],
        ["verify", *common, "--inverse", str(files["channel"])],
        ["kraus", "--channel", str(files["channel"])],
        ["scan", "--family", "bb84", "--resolution", "5"],
        ["three-entry", "--resolution", "4"],
    ):
        assert main([*args, "--out", str(afile)]) == 1, args[0]
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write to ") and str(afile) in err, args[0]
    assert afile.read_text() == "keep"


def test_unscathed_exit_codes(files, tmp_path, capsys):
    axis = tmp_path / "axis.json"
    dump_json(axis, {"bloch": [0.6, 0.0, 0.0]})
    assert main(["unscathed", "--channel", str(files["boundary"]), "--state", str(axis)]) == 0
    assert "sigma_0" in capsys.readouterr().out
    assert main(
        ["unscathed", "--channel", str(files["boundary"]), "--state", str(files["offaxis"])]
    ) == 2
    assert "not unscathed" in capsys.readouterr().out
    # The conjugation test is specific to pauli-kind channel files.
    assert main(
        ["unscathed", "--channel", str(files["nonunital"]), "--state", str(axis)]
    ) == 1


def test_invert_rejects_nan_prior(files, tmp_path, capsys):
    nan_state = tmp_path / "nan.json"
    nan_state.write_text('{"bloch": [NaN, 0, 0]}')
    code = main(["invert", "--channel", str(files["channel"]), "--state", str(nan_state)])
    assert code == 1
    assert "NaN" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--channel", str(files["channel"])])
    assert exc.value.code == 1
    assert "--state" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--help"])
    assert exc.value.code == 0


def test_kraus_command(files, capsys):
    code = main(["kraus", "--channel", str(files["channel"]), "--out", str(files["out"])])
    assert code == 0
    doc = json.loads((files["out"] / "kraus.json").read_text())
    assert doc["kind"] == "kraus"
    ops = [np.array([[complex(re, im) for re, im in row] for row in op]) for op in doc["ops"]]
    total = sum(k.conj().T @ k for k in ops)
    assert np.abs(total - np.eye(2)).max() < 1e-9


def test_kraus_rejects_noncp_channel(files, capsys):
    assert main(["kraus", "--channel", str(files["noncp"])]) == 3
    assert "eigenvalue" in capsys.readouterr().err


def test_kraus_extracts_at_the_tolerance_of_its_cptp_test(tmp_path, capsys):
    # Choi eigenvalue -2e-7: not CPTP at the default tol, CPTP at --tol 1e-6.
    near = tmp_path / "near.json"
    dump_json(near, {"kind": "ptm", "m": np.diag([1, 1, 1 - 2e-7, 1 + 2e-7]).ravel().tolist()})
    assert main(["kraus", "--channel", str(near)]) == 3
    assert "eigenvalue -2.000e-07" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["kraus", "--channel", str(near), "--tol", "1e-6", "--out", str(out)]) == 0
    doc = json.loads((out / "kraus.json").read_text())
    ops = [np.array([[complex(re, im) for re, im in row] for row in op]) for op in doc["ops"]]
    assert np.abs(sum(k.conj().T @ k for k in ops) - np.eye(2)).max() < 1e-6


def test_kraus_rejects_non_trace_preserving_kraus_file(files, tmp_path, capsys):
    doubled = tmp_path / "doubled.json"
    dump_json(doubled, {"kind": "kraus", "ops": [[[[2, 0], [0, 0]], [[0, 0], [2, 0]]]]})
    assert main(["kraus", "--channel", str(doubled), "--out", str(files["out"])]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not CPTP" in captured.err
    assert "kraus operators" not in captured.out
    assert not (files["out"] / "kraus.json").exists()


def test_kraus_file_whose_products_overflow_is_rejected_by_name(tmp_path, capsys):
    # The error names the Kraus operators, and NumPy's overflow warning stays silent.
    state = tmp_path / "state.json"
    dump_json(state, {"bloch": [0.0, 0.0, 0.0]})
    inverse = tmp_path / "inverse.json"
    dump_json(inverse, {"kind": "pauli", "p": [1.0, 0.0, 0.0, 0.0]})
    huge = tmp_path / "huge.json"
    for entry, message in (
        # Finite entries whose outer products overflow a float.
        (1e200, "their Choi matrix overflows"),
        # Products of 1.69e308 fit a float; the Pauli sums of the transfer matrix do not.
        (1.3e154, "the transfer matrix overflows"),
    ):
        dump_json(huge, {"kind": "kraus", "ops": [[[[entry, 0], [0, 0]], [[0, 0], [entry, 0]]]]})
        for argv in (
            ["invert", "--state", str(state)],
            ["kraus"],
            ["verify", "--state", str(state), "--inverse", str(inverse)],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*argv, "--channel", str(huge)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: kraus operators are too large: {message}\n", (entry, argv)


def test_scan_requires_out_directory(capsys):
    assert main(["scan", "--family", "depolarizing", "--resolution", "11"]) == 1
    assert "--out" in capsys.readouterr().err


def test_scan_writes_named_files_and_reruns_identically(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["scan", "--family", "bb84", "--resolution", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    csv1 = (out1 / "bb84_11.csv").read_bytes()
    csv2 = (out2 / "bb84_11.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "bb84_11.svg").read_bytes() == (out2 / "bb84_11.svg").read_bytes()
    assert csv1.startswith(b"p,t,feasible,slack1,slack2,slack3\n")


def test_scan_error_mid_stream_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    # The p and t axes take the first two _g17_fields calls and the first
    # block of slacks the third, after the CSV is open and its header written.
    out = tmp_path / "out"
    csv_open = []
    g17_fields = scans._g17_fields

    def failing(*args, **kwargs):
        csv_open.append((out / "bb84_101.csv").exists())
        if len(csv_open) == 3:
            raise ValueError("formatting failed")
        return g17_fields(*args, **kwargs)

    monkeypatch.setattr(scans, "_g17_fields", failing)
    assert main(["scan", "--family", "bb84", "--resolution", "101", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: formatting failed\n"
    assert "wrote" not in captured.out
    assert csv_open == [True, True, True]
    assert list(out.iterdir()) == []


def test_scan_depolarizing_prints_chi_table(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_chi(*args, **kwargs):
        calls.append(args)
        return boundary_chi(*args, **kwargs)

    monkeypatch.setattr(cli, "boundary_chi", counting_chi)
    assert main(
        ["scan", "--family", "depolarizing", "--resolution", "11", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "feasible cells" in out
    # All 11 values of chi come from one batched call.
    assert len(calls) == 1
    assert out.count("chi = ") == 11
    assert (tmp_path / "depolarizing_11.csv").exists()


def test_scan_tol_reaches_the_chi_lines(tmp_path, capsys):
    def chi_lines(*tol):
        argv = ["scan", "--family", "depolarizing", "--resolution", "41", *tol]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if "chi = " in line]

    loose, default = chi_lines("--tol", "5e-2"), chi_lines()
    p_axis = np.linspace(0.0, 1.0, 11)
    assert loose == [
        f"  p = {p:.2f}   chi = {boundary_chi(p, 5e-2):.8f}" for p in p_axis
    ]
    assert len(default) == 11 and loose != default


def test_three_entry_command(tmp_path, capsys):
    code = main(["three-entry", "--resolution", "4", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "maximally mixed prior feasible: 12/12" in out
    doc = json.loads((tmp_path / "three-entry_4.json").read_text())
    assert doc["channels"] == 12
    assert doc["hits_confirmed"] == 0


def test_three_entry_command_lists_confirmed_examples(monkeypatch, tmp_path, capsys):
    # Every real search so far confirms no hit, so the examples come from a stub.
    examples = (((0.7, 0.2, 0.1, 0.0), (0.25, -0.5, 0.125)), ((0.5, 0.5, 0.0, 0.0), (1.0, 0, 0)))
    summary = scans.ThreeEntrySummary(
        resolution=4, seed=7, channels=12, samples_per_channel=1000, queries=12000,
        mu_feasible=12, hits=3, hits_confirmed=2, examples=examples,
    )
    monkeypatch.setattr(cli, "scan_three_entry", lambda *args, **kwargs: summary)
    assert main(["three-entry", "--resolution", "4", "--seed", "7", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("confirmed examples:")
    assert lines[at : at + 3] == [
        "confirmed examples:",
        "  p = [0.69999999999999996, 0.20000000000000001, 0.10000000000000001, 0]"
        "   r = [0.25, -0.5, 0.125]",
        "  p = [0.5, 0.5, 0, 0]   r = [1, 0, 0]",
    ]
    doc = json.loads((tmp_path / "three-entry_4.json").read_text())
    assert doc["examples"] == [
        {"p": [0.7, 0.2, 0.1, 0.0], "r": [0.25, -0.5, 0.125]},
        {"p": [0.5, 0.5, 0.0, 0.0], "r": [1.0, 0.0, 0.0]},
    ]
    assert all(type(x) is float for e in doc["examples"] for x in e["p"] + e["r"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_entry_file_is_indented_json_dumps(seed, tmp_path, capsys):
    assert main(["three-entry", "--resolution", "5", "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "three-entry_5.json").read_text(encoding="utf-8")
    assert text == json_document(json.loads(text))


def test_scan_family_three_entry_alias(tmp_path, capsys):
    # The alias is gone; the three-entry search is its own command.
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "three-entry", "--resolution", "4", "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert not (tmp_path / "three-entry_4.json").exists()


def test_main_calls_share_one_parser(files, capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["kraus", "--channel", str(files["channel"])]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # The shared parser still turns usage errors into exit 1 after a clean run.
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--family", "bell", "--out", str(files["out"])])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--channel", str(files["channel"])])
    assert exc.value.code == 1
    assert "--state" in capsys.readouterr().err
    assert main(["kraus", "--channel", str(files["channel"])]) == 0
