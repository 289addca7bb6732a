import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trotterlab.cli
import trotterlab.experiments
import trotterlab.quantize
from trotterlab import numkit
from trotterlab.cli import (
    COMMAND_DEFAULTS,
    COMMANDS,
    THRESHOLDS,
    RunConfig,
    _dispatch,
    evaluate_criteria,
    main,
    parse_config,
    run,
)
from trotterlab.errors import ParseError, ValidationError
from trotterlab.experiments import ExperimentResult, SweepTable


# The paper's run documents, one per command, as a user writes them.
PAPER_RUNS = {
    "lte_s": {"command": "sweep-s", "h": 2.0**-6,
              "s_values": [2.0**-k for k in range(4, 12)]},
    "lte_h": {"command": "sweep-h", "mode": "local", "s_fixed": 0.1,
              "h_values": [2.0**-k for k in range(3, 11)]},
    "long_s": {"command": "long-time", "h": 2.0**-8,
               "s_values": [2.0**-k for k in range(4, 12)], "t_total": 1.0},
    "long_h": {"command": "sweep-h", "mode": "global", "s_fixed": 0.02, "t_total": 1.0,
               "h_values": [2.0**-k for k in range(3, 11)]},
    "commutator_scan": {"command": "commutator-scan",
                        "h_values": [2.0**-k for k in range(3, 9)]},
    "calculus_check": {"command": "calculus-check", "N_values": [16, 32, 64, 128, 256]},
    "query_count": {"command": "query-count", "epsilons": [0.03, 0.01],
                    "h_values": [2.0**-6, 2.0**-8], "schemes": ["Strang2"],
                    "observables": ["cos_3x"]},
}


@pytest.fixture
def rejects(tmp_path, capsys, monkeypatch):
    """rejects(command, doc, field): ``main`` exits 1 on the configuration ``doc``
    (a dict or JSON text) with ``error: <field>: `` on stderr, before any
    decomposition of H and without writing a CSV; returns the stderr text.

    The checks of the numbers a driver reads run in the driver, so only a run
    through ``main`` shows that they reject a document before any compute."""
    eigs = []
    polished_svd = numkit.polished_svd
    monkeypatch.setattr(numkit, "polished_svd",
                        lambda matrix: eigs.append(matrix) or polished_svd(matrix))

    def check(command, doc, field):
        path, out = tmp_path / "cfg.json", tmp_path / "x.csv"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {field}: ")
        assert "Traceback" not in stderr
        assert not out.exists() and eigs == []
        return stderr

    return check


@pytest.fixture
def check_calls(monkeypatch):
    """Counts of the drivers' per-value checks: grids, wave packets and step counts."""
    calls = {"sweep_grid": 0, "wavepacket": 0, "step_count": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(trotterlab.experiments, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(trotterlab.experiments, name, counted)
    return calls


class TestParseConfig:
    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_parse_builds_no_grid(self, command, check_calls):
        # the document is parsed here; the driver checks the numbers it reads
        parse_config("{}", command=command)
        assert check_calls == {"sweep_grid": 0, "wavepacket": 0, "step_count": 0}

    def test_minimal_document_gives_defaults(self):
        cfg = parse_config('{"command": "sweep-s"}')
        expected = RunConfig("sweep-s", {**COMMAND_DEFAULTS["sweep-s"], "mode": "local"})
        assert cfg == expected

    def test_empty_document_with_cli_command(self):
        cfg = parse_config("{}", command="commutator-scan")
        assert cfg.command == "commutator-scan"
        assert cfg.values["h_values"] == tuple(2.0**-k for k in range(3, 9))

    def test_invalid_h_rejected(self, rejects):
        rejects("sweep-s", '{"command": "sweep-s", "h": 2.0}', "h")

    def test_off_lattice_h_rejected(self, rejects):
        for command, doc, field in (("sweep-s", '{"h": 0.0137}', "h"),
                                    ("sweep-h", '{"h_values": [0.125, 0.0137]}', "h_values"),
                                    ("query-count", '{"h_values": [0.0137]}', "h_values")):
            assert "not an integer" in rejects(command, doc, field)

    @pytest.mark.parametrize("command, doc, field", [
        pytest.param("long-time", '{"t_total": Infinity}', "t_total", id="t_total"),
        pytest.param("calculus-check", '{"N_values": [16, NaN]}', "N_values", id="N_values"),
        pytest.param("sweep-s", '{"domain": [-Infinity, 1]}', "domain", id="domain"),
        pytest.param("sweep-s", '{"h": NaN}', "h", id="h"),
        pytest.param("sweep-s", '{"s_values": [0.0625, -Infinity]}', "s_values", id="s_values"),
        pytest.param("sweep-h", '{"s_fixed": 1%s}' % ("0" * 400), "s_fixed",
                     id="s_fixed-int-beyond-float"),
    ])
    def test_non_finite_number_rejected(self, command, doc, field, tmp_path, capsys):
        with pytest.raises(ValidationError) as err:
            parse_config(doc, command=command)
        assert err.value.field == field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(doc)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_domain_of_other_length_rejected(self, rejects):
        # [-pi, pi/2] gives integral N = 32 .. 256, yet cos x and cos_x wrap
        # discontinuously there: the run would fail all 8 h-flat checks
        # while its labels claim the cos potential and the cos_x observable
        doc = {"command": "sweep-h", "domain": [-math.pi, math.pi / 2],
               "h_values": [3 / 128, 3 / 256, 3 / 512, 3 / 1024]}
        rejects("sweep-h", doc, "domain")

    @pytest.mark.parametrize("domain", [[0], [-math.pi, math.pi, 9.0]], ids=["one", "three"])
    def test_domain_not_a_pair_rejected(self, domain, rejects):
        # the driver checks the shape of the domain, for a document as for a direct call
        assert "needs a pair [a, b]" in rejects("sweep-s", {"domain": domain}, "domain")

    @pytest.mark.parametrize("h, n", [(0.2, 5), (0.1, 10), (0.04, 25)])
    def test_grid_without_frame_rejected(self, h, n, rejects):
        # domain [0, 2 pi] puts N = 1/h points on the grid; the commands that
        # evolve observables form their errors in the time-reversal frame,
        # which needs 4 | N, whatever the observable
        base = {"observables": ["momentum_fd"], "domain": [0, 6.283185307179586]}
        for doc, field in (({"command": "sweep-h", "h_values": [0.25, h]}, "h_values"),
                           ({"command": "sweep-s", "h": h}, "h"),
                           ({"command": "long-time", "h": h, "s_values": [0.5, 0.25]}, "h"),
                           ({"command": "query-count", "h_values": [h]}, "h_values")):
            stderr = rejects(doc["command"], {**base, **doc}, field)
            assert f"h={h:g} gives N = {n}" in stderr
            assert "divisible by 4" in stderr
        # the commutator scan forms no error and accepts any N
        assert trotterlab.experiments.canonical_grid(h, base["domain"], "h_values").N == n

    def test_packet_at_domain_edge_rejected_before_compute(self, rejects):
        # at h = 1/4 the grid has N = 4 nodes and the packet is not negligible at
        # the last one; the sweep checks it before any compute and names the field
        for doc, field in (({"command": "sweep-h", "h_values": [0.125, 0.25]}, "h_values"),
                           ({"command": "sweep-s", "h": 0.25}, "h"),
                           ({"command": "long-time", "h": 0.25}, "h")):
            assert "h = 0.25" in rejects(doc["command"], doc, field)
        # the commutator scan and the query count evolve no packet
        assert len(trotterlab.experiments.commutator_scan([0.25, 0.125, 0.0625]).table.rows) == 15

    @pytest.mark.parametrize("command, doc, field", [
        pytest.param("commutator-scan", '{"h_values": [0.25, 1.0]}', "h_values",
                     id="commutator-scan"),
        pytest.param("query-count", '{"h_values": [1.0]}', "h_values", id="query-count"),
        pytest.param("sweep-s", '{"h": 1.0}', "h", id="sweep-s"),
    ])
    def test_single_node_grid_rejected_before_compute(self, command, doc, field, rejects):
        # h = 1 on [-pi, pi] gives N = 1, where the finite-difference stencil is undefined
        assert "N = 1" in rejects(command, doc, field)

    def test_query_count_takes_one_observable(self, rejects):
        rejects("query-count", '{"observables": ["cos_3x", "cos_x"]}', "observables")
        assert parse_config('{"command": "query-count", "observables": ["cos_x"]}') \
            .values["observables"] == ("cos_x",)

    def test_unknown_key_rejected(self):
        for key in ("stepsize", "seed"):
            with pytest.raises(ValidationError) as err:
                parse_config(f'{{"command": "sweep-s", "{key}": 0}}')
            assert err.value.field == key
            assert "unknown key" in str(err.value)

    def test_step_that_does_not_divide_horizon_rejected(self, rejects):
        assert "does not divide" in rejects("sweep-h", '{"mode": "global", "s_fixed": 0.3}',
                                            "s_fixed")
        assert "does not divide" in rejects("long-time", '{"s_values": [0.25, 0.3]}', "s_values")

    def test_bad_json_gives_position(self):
        with pytest.raises(ParseError) as err:
            parse_config('{"command": "sweep-s",}')
        assert "line 1" in str(err.value)

    def test_command_mismatch(self):
        with pytest.raises(ValidationError):
            parse_config('{"command": "sweep-s"}', command="sweep-h")

    @pytest.mark.parametrize("doc", ['{"command": ["sweep-s"]}', '{"command": {}}',
                                     '{"command": {"sweep-s": 1}}'])
    def test_non_string_command_rejected(self, doc):
        # a list or an object is rejected by name before the command table is read
        with pytest.raises(ValidationError) as err:
            parse_config(doc)
        assert err.value.field == "command" and "needs a command name" in str(err.value)

    def test_negative_s_rejected(self, rejects):
        rejects("sweep-s", '{"command": "sweep-s", "s_values": [0.1, -0.1]}', "s_values")

    def test_bad_observable_rejected(self):
        with pytest.raises(ValidationError):
            parse_config('{"command": "sweep-s", "objservables": []}')
        with pytest.raises(ValidationError):
            parse_config('{"command": "sweep-s", "observables": ["x_hat"]}')

    def test_potential_key_applied(self):
        assert parse_config('{"command": "sweep-h", "potential": "zero"}') \
            .values["potential"] == "zero"
        with pytest.raises(ValidationError) as err:
            parse_config('{"command": "sweep-h", "potential": "quartic"}')
        assert err.value.field == "potential"

    def test_bad_n_values_rejected(self, rejects):
        rejects("calculus-check", '{"command": "calculus-check", "N_values": [0]}', "N_values")

    @pytest.mark.parametrize("command, doc, field", [
        ("sweep-s", {"s_values": [0.0625, 0.03125, 0.0625]}, "s_values"),
        ("commutator-scan", {"h_values": [0.125, 0.125, 0.0625, 0.03125]}, "h_values"),
        ("calculus-check", {"N_values": [16, 32, 16.0]}, "N_values"),
        ("query-count", {"epsilons": [0.03, 0.03]}, "epsilons"),
        ("sweep-h", {"observables": ["cos_x", "momentum_fd", "cos_x"]}, "observables"),
        ("long-time", {"schemes": ["Strang2", "Strang2"]}, "schemes"),
    ])
    def test_duplicate_list_entries_rejected(self, command, doc, field, tmp_path, capsys):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc), command=command)
        assert err.value.field == field
        assert "distinct" in str(err.value)
        path, out = tmp_path / "cfg.json", tmp_path / "x.csv"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}:")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        pytest.param(command, key, id=f"{command}-{key}")
        for command, table in COMMAND_DEFAULTS.items() for key, default in table.items()
        if isinstance(default, tuple) and key != "domain"])
    def test_empty_list_rejected(self, command, key, rejects):
        # the driver names an empty list, before any compute
        assert "nonempty" in rejects(command, {key: []}, key)

    def test_lte_s_preset_matches_paper_defaults(self):
        cfg = parse_config(json.dumps(PAPER_RUNS["lte_s"]))
        assert cfg.command == "sweep-s"
        assert cfg.values["h"] == pytest.approx(1.0 / 64.0)
        assert cfg.values["s_values"] == tuple(2.0**-k for k in range(4, 12))
        assert cfg == parse_config("{}", command="sweep-s")

    def test_all_presets_parse(self):
        for doc in PAPER_RUNS.values():
            cfg = parse_config(json.dumps(doc))
            assert cfg.command in COMMAND_DEFAULTS
            mode = {"mode": doc["mode"]} if "mode" in doc else {}
            assert cfg == parse_config(json.dumps(mode), command=cfg.command)

    def test_defaults_pinned(self):
        # the driver arguments of every command at its defaults, written out
        evolve = {"domain": (-math.pi, math.pi), "potential": "cos",
                  "observables": ("cos_x", "momentum_fd"), "schemes": ("Lie1", "Strang2")}
        s_ladder = tuple(2.0**-k for k in range(4, 12))
        expected = {
            "sweep-s": {**evolve, "s_values": s_ladder, "h": 2.0**-6, "mode": "local"},
            "long-time": {**evolve, "s_values": s_ladder, "h": 2.0**-8, "mode": "global",
                          "t_total": 1.0},
            "sweep-h": {**evolve, "h_values": tuple(2.0**-k for k in range(3, 11)),
                        "mode": "local", "s_fixed": 0.1, "t_total": 1.0},
            "commutator-scan": {"domain": (-math.pi, math.pi), "potential": "cos",
                                "h_values": tuple(2.0**-k for k in range(3, 9))},
            "calculus-check": {"N_values": (16, 32, 64, 128, 256)},
            "query-count": {**evolve, "observables": ("cos_3x",), "schemes": ("Strang2",),
                            "epsilons": (0.03, 0.01), "h_values": (2.0**-6, 2.0**-8),
                            "t_total": 1.0},
        }
        assert sorted(expected) == sorted(COMMAND_DEFAULTS)
        for command, values in expected.items():
            assert parse_config("{}", command=command) == RunConfig(command, values)
        assert parse_config('{"mode": "global"}', command="sweep-h") == RunConfig(
            "sweep-h", {**expected["sweep-h"], "mode": "global", "s_fixed": 0.02})

    @pytest.mark.parametrize("command, doc", [
        pytest.param(command, doc, id=f"{command}-{'-'.join(doc)}") for command, doc in (
            ("calculus-check", {"h": 0.5, "domain": [0, 1], "t_total": 3}),
            ("commutator-scan", {"observables": ["cos_x"]}),
            ("commutator-scan", {"schemes": ["Lie1"]}),
            ("sweep-s", {"t_total": 1.0}),
            ("sweep-s", {"h_values": [0.125]}),
            ("sweep-h", {"h": 0.125}),
            ("query-count", {"mode": "global"}))])
    def test_key_the_command_does_not_read_rejected(self, command, doc):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(doc), command=command)
        assert err.value.field == sorted(doc)[0]
        assert f"unknown key; {command} reads " in str(err.value)

    def test_global_sweep_h_default_step(self):
        cfg = parse_config('{"command": "sweep-h", "mode": "global"}')
        assert cfg.values["s_fixed"] == pytest.approx(0.02)
        cfg = parse_config('{"command": "sweep-h"}')
        assert cfg.values["s_fixed"] == pytest.approx(0.1)


SMALL_SCAN = {"command": "commutator-scan",
              "h_values": [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]}
SWEEP_H_LIE1 = {"command": "sweep-h", "schemes": ["Lie1"], "observables": ["cos_x"]}
# The criteria that read a slope fit, for SWEEP_H_LIE1 and for commutator-scan.
SWEEP_H_FITTED = ("unitary-growth/Lie1", "h-flat-slope/Lie1/cos_x")
SCAN_FITTED = tuple(f"norm-scaling/{m}" for m in (
    "norm_A_over_h", "norm_B_over_h", "norm_comm_AB", "norm_comm_A_AB", "norm_comm_B_AB"))


class TestRun:
    def test_writes_csv_and_exits_zero(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = parse_config(json.dumps(SMALL_SCAN))
        code = run(cfg, out=str(out), stream=io.StringIO())
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "h,N,metric,value"
        assert len(lines) == 1 + 4 * 5 + 1   # header + rows + trailing newline

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SCAN))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(cfg, out=str(out1), stream=io.StringIO())
        run(cfg, out=str(out2), stream=io.StringIO())
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_s_csv_header_and_row_count(self, tmp_path):
        doc = {"command": "sweep-s", "h": 2.0**-5,
               "s_values": [2.0**-k for k in range(4, 12)],
               "observables": ["cos_x"], "schemes": ["Lie1"]}
        out = tmp_path / "s.csv"
        code = run(parse_config(json.dumps(doc)), out=str(out), stream=io.StringIO())
        assert code == 0
        lines = [l for l in out.read_text().split("\n") if l]
        assert lines[0] == "s,h,N,scheme,observable,metric,value"
        obs_rows = [l for l in lines[1:] if ",observable_error," in l]
        assert len(obs_rows) == 8   # one per s value in the series

    def test_assert_pass_exit_zero(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SCAN))
        code = run(cfg, assert_criteria=True, out=str(tmp_path / "x.csv"),
                   stream=io.StringIO())
        assert code == 0

    def test_assert_broken_quantizer_exit_two(self, tmp_path, monkeypatch):
        # negative control: a commutator remainder with first-order scaling
        # must trip the calculus criteria
        monkeypatch.setattr(trotterlab.quantize, "commutator_remainder",
                            lambda a, b, ctx: ctx.h)
        doc = {"command": "calculus-check", "N_values": [16, 32, 64]}
        stream = io.StringIO()
        code = run(parse_config(json.dumps(doc)), assert_criteria=True,
                   out=str(tmp_path / "x.csv"), stream=stream)
        assert code == 2
        assert "commutator-order: FAIL" in stream.getvalue()

    def test_assert_empty_h_window_exit_two(self, tmp_path):
        # both h lie above the fit window: the flatness ratio fails instead of crashing
        doc = {"command": "sweep-h", "h_values": [0.125, 0.0625],
               "schemes": ["Lie1"], "observables": ["cos_x"]}
        stream = io.StringIO()
        code = run(parse_config(json.dumps(doc)), assert_criteria=True,
                   out=str(tmp_path / "x.csv"), stream=stream)
        assert code == 2
        assert "h-flat-ratio/Lie1/cos_x: FAIL" in stream.getvalue()

    @pytest.mark.parametrize("doc, names, reason", [
        # two grids, neither inside the fit window h <= 2^-5; nothing at the floor
        ({**SWEEP_H_LIE1, "h_values": [0.125, 0.0625]}, SWEEP_H_FITTED,
         "(fewer than three points in the fit window)"),
        # zero potential: the split is exact, so every error sits at the floor
        ({**SWEEP_H_LIE1, "h_values": [2.0**-5, 2.0**-6, 2.0**-7], "potential": "zero"},
         SWEEP_H_FITTED, "(series at round-off floor, 3 points excluded)"),
        # two points support no slope fit of any series
        ({"command": "calculus-check", "N_values": [16, 32]},
         ("composition-order", "commutator-order", "egorov-order"),
         "(fewer than three points in the fit window)"),
        ({"command": "commutator-scan", "h_values": [0.125, 0.0625]}, SCAN_FITTED,
         "(fewer than three points in the fit window)"),
    ], ids=["window", "floor", "calculus-check", "commutator-scan"])
    def test_missing_fit_reason(self, doc, names, reason, tmp_path):
        stream = io.StringIO()
        code = run(parse_config(json.dumps(doc)), assert_criteria=True,
                   out=str(tmp_path / "x.csv"), stream=stream)
        assert code == 2
        lines = stream.getvalue().splitlines()
        for name in names:
            assert f"criterion {name}: FAIL (no usable fit {reason})" in lines

    def test_two_point_scan_without_assert_writes_csv(self, tmp_path):
        doc = {"command": "commutator-scan", "h_values": [0.125, 0.0625]}
        out = tmp_path / "x.csv"
        assert run(parse_config(json.dumps(doc)), out=str(out), stream=io.StringIO()) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 5

    def test_fit_reports_printed(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SCAN))
        stream = io.StringIO()
        run(cfg, out=str(tmp_path / "x.csv"), stream=stream)
        text = stream.getvalue()
        assert "fit norm_A_over_h:" in text and "slope=" in text

    def test_config_out_key_rejected(self, rejects, tmp_path):
        # --out is the one way to set the output path
        path = tmp_path / "from_config.csv"
        rejects("commutator-scan", {**SMALL_SCAN, "out": str(path)}, "out")
        assert not path.exists()

    def test_unwritable_path_exit_one(self):
        cfg = parse_config(json.dumps(SMALL_SCAN))
        code = run(cfg, out="/nonexistent-dir/x.csv", stream=io.StringIO())
        assert code == 1

    def test_missing_out_directory_rejected_before_compute(self, tmp_path, monkeypatch, capsys):
        def no_run(cfg, threads):
            raise AssertionError("the run started before the output path was checked")
        monkeypatch.setattr(trotterlab.cli, "_dispatch", no_run)
        out = tmp_path / "missing" / "x.csv"
        cfg = parse_config(json.dumps(SMALL_SCAN))
        assert run(cfg, out=str(out), stream=io.StringIO()) == 1
        assert capsys.readouterr().err.startswith("error: out: ")
        assert main(["commutator-scan", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: out: ")

    def test_out_naming_a_directory_rejected_before_compute(self, tmp_path, monkeypatch, capsys):
        def no_run(cfg, threads):
            raise AssertionError("the run started before the output path was checked")
        monkeypatch.setattr(trotterlab.cli, "_dispatch", no_run)
        cfg = parse_config(json.dumps(SMALL_SCAN))
        assert run(cfg, out=str(tmp_path), stream=io.StringIO()) == 1
        assert capsys.readouterr().err == f"error: out: {tmp_path} is a directory\n"

    def test_any_grid_size_for_calculus_check(self, tmp_path):
        # N = 96 is no power of two; the calculus orders hold there as well
        doc = {"command": "calculus-check", "N_values": [16, 32, 96]}
        stream = io.StringIO()
        code = run(parse_config(json.dumps(doc)), assert_criteria=True,
                   out=str(tmp_path / "x.csv"), stream=stream)
        assert code == 0, stream.getvalue()


class TestMain:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for command in ("sweep-s", "sweep-h", "long-time", "commutator-scan",
                        "calculus-check", "query-count"):
            assert command in text

    def test_subcommand_help_lists_the_keys_it_reads(self, capsys):
        expected = {"sweep-s": "domain, h, observables, potential, s_values, schemes",
                    "sweep-h": "domain, h_values, mode, observables, potential, s_fixed, "
                               "schemes, t_total",
                    "calculus-check": "N_values",
                    "query-count": "domain, epsilons, h_values, observables, potential, schemes, "
                                   "t_total"}
        for command, keys in expected.items():
            for argv in (["--help"], [command, "--help"]):
                with pytest.raises(SystemExit):
                    main(argv)
                assert f"(keys: {keys})" in " ".join(capsys.readouterr().out.split())

    def test_missing_config_file_exit_one(self, capsys):
        code = main(["commutator-scan", "--config", "/no/such/file.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_end_to_end_with_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "scan.json"
        cfg_path.write_text(json.dumps(SMALL_SCAN))
        out = tmp_path / "scan.csv"
        code = main(["commutator-scan", "--config", str(cfg_path),
                     "--out", str(out), "--assert"])
        assert code == 0
        assert out.exists()
        assert "criterion" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, threads, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["commutator-scan", "--out", str(out), "--threads", threads]) == 1
        assert "error: threads:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_h_checks_each_grid_once(self, check_calls, monkeypatch, tmp_path):
        # the default sweep-h: 8 grids, one packet each and one step count,
        # each checked once, by the driver (the stand-in setup and rows skip the compute)
        monkeypatch.setattr(trotterlab.experiments, "_build_setup", lambda grid, *args: grid)
        monkeypatch.setattr(trotterlab.experiments, "_error_rows",
                            lambda grid, packet, schemes, s, n, with_unitary:
                            [(s, grid.h, grid.N, "Lie1", "-", "unitary_error", 1.0)])
        assert main(["sweep-h", "--out", str(tmp_path / "x.csv")]) == 0
        assert check_calls == {"sweep_grid": 8, "wavepacket": 8, "step_count": 1}

    def test_threads_flag(self, tmp_path):
        _assert_threads_invariant(SMALL_SCAN, tmp_path)

    @pytest.mark.parametrize("doc", [
        {"command": "long-time", "h": 2.0**-5, "s_values": [0.25, 0.125, 0.0625]},
        {"command": "sweep-h", "h_values": [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]},
        # one task per h, each searching every epsilon of both schemes
        {"command": "query-count", "h_values": [2.0**-4, 2.0**-5], "epsilons": [0.03],
         "schemes": ["Lie1", "Strang2"]},
    ], ids=lambda doc: doc["command"])
    def test_threads_flag_sweeps(self, doc, tmp_path):
        _assert_threads_invariant(doc, tmp_path)


def test_cli_import_leaves_thread_pool_out():
    # concurrent.futures (with logging) costs every CLI start about 10 ms, and
    # only --threads > 1 uses it: a fresh interpreter that imports the CLI
    # must not load it
    src = str(Path(trotterlab.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, trotterlab.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def _assert_threads_invariant(doc, tmp_path):
    """The CSV of `doc`'s command is byte-identical for --threads 1 and 2."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([doc["command"], "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main([doc["command"], "--config", str(cfg_path), "--out", str(out2),
                 "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


class TestDispatch:
    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_values_are_driver_keywords(self, command):
        # the keys the command reads, with the arguments it fixes; bind raises
        # TypeError on a key the driver does not take by name
        values = parse_config("{}", command=command).values
        assert sorted(values) == sorted({**COMMAND_DEFAULTS[command], **COMMANDS[command].fixed})
        driver = getattr(trotterlab.experiments, COMMANDS[command].driver)
        inspect.signature(driver).bind(**values, threads=1)

    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_dispatch_calls_module_attribute(self, command, monkeypatch):
        # the driver is looked up on the module at call time, so a replaced
        # attribute (as a profiler installs) is the one that runs, and it
        # receives exactly the values of the configuration
        calls = []
        monkeypatch.setattr(trotterlab.experiments, COMMANDS[command].driver,
                            lambda **kwargs: calls.append(kwargs) or "stub result")
        cfg = parse_config("{}", command=command)
        assert _dispatch(cfg, threads=3) == "stub result"
        assert calls == [{**cfg.values, "threads": 3}]

    @pytest.mark.parametrize("command", ["sweep-s", "long-time"])
    @pytest.mark.parametrize("doc", [{"mode": "local"}, {"mode": "global"}, {"out": "x.csv"}],
                             ids=lambda doc: "-".join(f"{k}={v}" for k, v in doc.items()))
    def test_fixed_mode_and_out_not_keys(self, command, doc, rejects):
        # the command fixes the mode, and --out alone sets the output path
        field = next(iter(doc))
        assert "unknown key" in rejects(command, doc, field)


class TestCriteria:
    def test_expectation_domination(self):
        # criterion 7 on a small sweep-s: every expectation error lies below its
        # observable error; raised above it by twice the slack, every row fails
        cfg = parse_config(json.dumps({"command": "sweep-s", "h": 2.0**-5,
                                       "s_values": [0.25, 0.125, 0.0625]}))
        result = _dispatch(cfg, threads=1)
        name = "expectation-domination"
        (check,) = [c for c in evaluate_criteria(cfg, result) if c.name == name]
        assert check.passed and check.detail.startswith("rows=12 ")
        bound = {row[:5]: row[6] for row in result.table.select(metric="observable_error")}
        slack = THRESHOLDS["domination_slack"]
        raised = [row[:6] + (bound[row[:5]] + 2 * slack,) if row[5] == "expectation_error"
                  else row for row in result.table.rows]
        for rows in (raised, []):
            broken = ExperimentResult(SweepTable.build(result.table.columns, rows))
            (check,) = [c for c in evaluate_criteria(cfg, broken) if c.name == name]
            assert not check.passed

    def test_commutator_criteria_names(self):
        cfg = parse_config(json.dumps(SMALL_SCAN))
        result = _dispatch(cfg, threads=1)
        checks = evaluate_criteria(cfg, result)
        assert len(checks) == 5
        assert all(c.passed for c in checks)
