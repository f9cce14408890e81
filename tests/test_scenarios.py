import json
import logging
import os
from dataclasses import replace

import numpy as np
import pytest

from wgqed import cli, runner
from wgqed.cli import main
from wgqed.config import ConfigError, ExperimentConfig, apply_overrides
from wgqed.integrator import IntegrationError, Trajectory
from wgqed.presets import expand_preset, list_presets
from wgqed.runner import RunSummary, emit_csv, emit_summary_csv, run, run_many, summarize

TINY = ExperimentConfig(dt=2e-3, t_end=1.0, label="tiny")


def empty_trajectory(n=2):
    pairs = [(1, 2)] if n == 2 else []
    return Trajectory(
        times=np.zeros(0),
        n_qubits=n,
        pair_labels=pairs,
        p_ground=np.zeros(0),
        p_one=np.zeros(0),
        p_two=np.zeros(0),
        p_total=np.zeros(0),
        p_excited=np.zeros((0, n)),
        pair_concurrence=np.zeros((0, len(pairs))),
        c_avg_all_pairs=np.zeros(0),
        c_avg_half_n=np.zeros(0),
        pulse_intensity=np.zeros(0),
        trace_err=np.zeros(0),
        herm_err=np.zeros(0),
        zero_block_trace=np.zeros(0),
        min_eigenvalue=np.zeros(0),
    )


class TestPresets:
    def test_registry_lists_all_ids(self):
        ids = set(list_presets())
        assert ids == {
            "fig2", "fig3", "fig4", "fig5", "fig5c-sweep",
            "fig6", "fig6c-sweep", "fig7a", "fig7b",
        }

    def test_fig3_single_member_all_rates_unit(self):
        members = expand_preset("fig3")
        assert len(members) == 1
        cfg = members[0]
        assert cfg.n == 2
        assert cfg.gamma_r == (1.0, 1.0)
        assert cfg.gamma_l == (1.0, 1.0)
        assert cfg.tbar == 5.0 and cfg.width == 1.5

    def test_fig2_is_single_atom(self):
        (cfg,) = expand_preset("fig2")
        assert cfg.n == 1

    def test_fig4_chain_lengths(self):
        assert [cfg.n for cfg in expand_preset("fig4")] == [3, 4, 5]

    def test_fig5_small_rates(self):
        members = expand_preset("fig5")
        assert [cfg.n for cfg in members] == [2, 3, 4, 5]
        assert all(set(cfg.gamma_r) == {0.1} and set(cfg.gamma_l) == {0.1} for cfg in members)

    def test_fig6_ratio_five(self):
        for cfg in expand_preset("fig6"):
            assert all(r == 5.0 * l for r, l in zip(cfg.gamma_r, cfg.gamma_l))

    def test_fig7a_detuning_half(self):
        members = expand_preset("fig7a")
        detuned = [cfg for cfg in members if "detuned" in cfg.label]
        resonant = [cfg for cfg in members if "resonant" in cfg.label]
        assert {cfg.n for cfg in detuned} == {2, 3, 4, 5}
        assert all(set(cfg.delta) == {0.5} for cfg in detuned)
        assert all(set(cfg.delta) == {0.0} for cfg in resonant)

    def test_fig7b_separations(self):
        members = expand_preset("fig7b")
        assert {cfg.n for cfg in members} == {2, 4}
        assert {round(cfg.spacing, 6) for cfg in members} == {1.0, 0.125, 0.0625}

    def test_fig5c_grid(self):
        members = expand_preset("fig5c-sweep")
        widths = sorted({cfg.width for cfg in members})
        assert widths == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        rates = {cfg.gamma_r[0] for cfg in members}
        assert rates == {1.0, 0.1}

    def test_unique_labels(self):
        all_labels = []
        for preset in list_presets():
            all_labels += [cfg.label for cfg in expand_preset(preset)]
        assert len(all_labels) == len(set(all_labels))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            expand_preset("fig99")


class TestRunner:
    def test_drive_none_is_stationary(self):
        traj, summary = run(replace(TINY, mode="none"))
        assert np.allclose(traj.p_ground, 1.0)
        assert np.allclose(traj.c_avg_all_pairs, 0.0)
        assert summary.c_max_all_pairs == 0.0

    def test_csv_columns_for_two_qubits(self, tmp_path):
        traj, _ = run(TINY)
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == [
            "t", "P_G", "P_1", "P_2", "P_e_1", "P_e_2", "C_pair_1_2",
            "C_avg_allpairs", "C_avg_halfN", "pulse_intensity", "trace_err", "herm_err",
        ]
        assert header.count("C_pair_1_2") == 1

    def test_empty_trajectory_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(empty_trajectory(), path)
        content = path.read_text()
        assert content.count("\n") == 1
        assert content.startswith("t,P_G,")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = replace(TINY, path=str(tmp_path / "a.csv"))
        run(cfg)
        first = (tmp_path / "a.csv").read_bytes()
        run(cfg)
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_metadata_sidecar(self, tmp_path):
        cfg = replace(TINY, path=str(tmp_path / "b.csv"))
        _, summary = run(cfg)
        meta = json.loads((tmp_path / "b.meta.json").read_text())
        assert meta["config"]["n"] == 2
        assert meta["config"]["normalization"] == "unit-l2"
        assert meta["summary"]["label"] == summary.label
        assert meta["package"] == "wgqed"

    def test_summary_metrics(self):
        traj, summary = run(replace(TINY, t_end=2.0))
        assert summary.n == 2
        assert 0.0 <= summary.peak_p_one <= 1.0
        assert summary.max_trace_err < 1e-8
        assert summary.peak_p_two <= summary.peak_p_one

    def test_single_qubit_summary_has_zero_concurrence(self):
        traj, summary = run(replace(TINY, n=1, gamma_r=(1.0,), gamma_l=(1.0,), delta=(0.0,)))
        assert summary.c_max_all_pairs == 0.0
        assert traj.pair_concurrence.shape[1] == 0

    def test_run_many_starts_no_more_workers_than_members(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        configs = [replace(TINY, label=label, t_end=0.1) for label in "abc"]
        summaries = run_many(configs, jobs=1000)
        assert started == [3]
        assert [s.label for s in summaries] == ["a", "b", "c"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_member_does_not_lose_the_others(self, tmp_path, jobs):
        # at dt = 0.5 rates of 5 make RK4 unstable: the trace deviation is
        # 0 at t = 0 and past 1e3 at the next sample, t = 5, whatever the
        # last bits; rates 0.1 do not breach
        coarse = dict(n=3, dt=0.5, t_end=16.0)
        configs = [
            ExperimentConfig(label="fast", gamma_r=5.0, gamma_l=5.0, **coarse),
            ExperimentConfig(label="small", gamma_r=0.1, gamma_l=0.1, **coarse),
        ]
        fast, small = run_many(configs, out_dir=str(tmp_path), jobs=jobs)
        assert isinstance(fast, IntegrationError)
        assert str(fast).startswith("trace deviation") and str(fast).endswith("at t=5")
        assert float(str(fast).split()[2]) > 1e3
        assert isinstance(small, RunSummary) and small.label == "small"
        assert sorted(os.listdir(tmp_path)) == ["small.csv", "small.meta.json"]

    def test_positivity_warning_names_the_member(self):
        # strong driving makes the evolved state dip below the monitor threshold
        cfg = ExperimentConfig(dt=2e-3, t_end=8.0, sample_every=5, label="dip")
        with pytest.warns(RuntimeWarning, match="^reported state dipped below") as caught:
            traj, _ = run(cfg)
        # the warning names the worst eigenvalue, the time it was sampled and the member
        worst = int(np.argmin(traj.min_eigenvalue))
        assert 0.0 < traj.times[worst] < 8.0
        assert str(caught[0].message).endswith(
            f"(min eigenvalue {traj.min_eigenvalue[worst]:.3e} at t={traj.times[worst]:.6g}) in dip"
        )
        # a sweep warns in config order, whichever member finishes first
        configs = [replace(cfg, label="long", t_end=8.0), replace(cfg, label="short", t_end=6.0)]
        for jobs in (1, 2):
            with pytest.warns(RuntimeWarning) as caught:
                run_many(configs, jobs=jobs)
            assert [str(w.message).rsplit(" ", 1)[1] for w in caught] == ["long", "short"]

    def test_positivity_anomaly_is_logged(self, caplog):
        # the RuntimeWarning is silenced by the pytest filter; the record is not
        cfg = ExperimentConfig(dt=2e-3, t_end=8.0, sample_every=5, label="dip")
        with caplog.at_level(logging.WARNING, logger="wgqed"):
            traj, _ = run(cfg)
            run_many([replace(cfg, label="swept")], jobs=1)
        worst = int(np.argmin(traj.min_eigenvalue))
        want = (
            f"reported state dipped below positivity tolerance (min eigenvalue "
            f"{traj.min_eigenvalue[worst]:.3e} at t={traj.times[worst]:.6g}) in "
        )
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("wgqed", logging.WARNING, want + "dip"),
            ("wgqed", logging.WARNING, want + "swept"),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batched_members_write_the_files_run_writes(self, tmp_path, jobs):
        # one stack of mixed widths, rates and lengths: the width-0.5 pulse
        # underflows to exactly 0 from t = 24.5 while others still drive, and
        # the unit-rate member breaches the trace bound at this step
        coarse = dict(n=3, dt=0.5, sample_every=2)
        configs = [
            ExperimentConfig(label="w0p5", gamma_r=0.1, gamma_l=0.1, width=0.5, t_end=30.0,
                             **coarse),
            ExperimentConfig(label="unit", t_end=20.0, **coarse),
            ExperimentConfig(label="w3", gamma_r=0.3, gamma_l=0.1, width=3.0, t_end=28.0, **coarse),
            ExperimentConfig(label="verb", gamma_r=0.2, gamma_l=0.2, width=2.0,
                             normalization="verbatim", t_end=26.0, **coarse),
            ExperimentConfig(label="short", gamma_r=0.1, gamma_l=0.3, t_end=3.0, **coarse),
        ]
        batched = run_many(configs, out_dir=str(tmp_path / "batched"), jobs=jobs)
        for cfg, result in zip(configs, batched):
            try:
                _, alone = run(cfg, out_dir=str(tmp_path / "alone"))
            except IntegrationError as exc:
                assert cfg.label == "unit"
                assert type(result) is IntegrationError and str(result) == str(exc)
                continue
            assert result == alone
            for suffix in (".csv", ".meta.json"):
                name = f"{cfg.label}{suffix}"
                assert (tmp_path / "batched" / name).read_bytes() == \
                    (tmp_path / "alone" / name).read_bytes()
        assert len(os.listdir(tmp_path / "batched")) == 8

    def test_batches_balance_steps_times_coefficients(self):
        # twelve fig5c members share one system, so their step counts alone
        # split them on two workers: three long and three short each
        configs = [replace(cfg, dt=0.01) for cfg in expand_preset("fig5c-sweep")]
        batches = runner._batches(configs, 2)
        lengths = [sorted(configs[i].t_end for i in batch) for batch in batches]
        assert lengths == [[25.0] * 3 + [50.0] * 3] * 2
        # fig4's chains are symmetric and step through tabulated maps of
        # 19, 22 and 22 float64 entries: the n = 5 member goes first, as its
        # samples cost the most (26 basis states), and the n = 3 and n = 4
        # ones share the other batch
        fig4 = expand_preset("fig4")
        assert [cfg.n for cfg in fig4] == [3, 4, 5]
        assert runner._batches(fig4, 2) == [[2], [0, 1]]
        # a step's fixed cost puts a twice as long symmetric n = 3 member
        # ahead of a symmetric n = 5 one
        mixed = [apply_overrides(TINY, n=5, label="n5"),
                 apply_overrides(TINY, n=3, t_end=2.0, label="n3"),
                 apply_overrides(TINY, n=3, label="n3b")]
        assert runner._batches(mixed, 2) == [[1], [0, 2]]
        # the chains below are asymmetric (gamma_l 0.5) and evolve every
        # stored entry.  An n = 5 member outweighs a twice as long n = 3 one
        # (478 coefficients), but not a sixteen times longer one: the cube
        # of the basis (26^3 against 8^3) would still put the n = 5 member
        # first
        tiny = apply_overrides(TINY, gamma_l=(0.5,))
        mixed = [apply_overrides(tiny, n=5, label="n5"),
                 apply_overrides(tiny, n=3, t_end=2.0, label="n3"),
                 apply_overrides(tiny, n=3, label="n3b")]
        assert runner._batches(mixed, 2) == [[0], [1, 2]]
        mixed[1] = apply_overrides(tiny, n=3, t_end=16 * TINY.t_end, label="n3")
        assert runner._batches(mixed, 2) == [[1], [0, 2]]
        assert runner._batches(mixed[:1], 1) == [[0]] and runner._batches([], 0) == []
        # an n = 3 member steps through its tabulated map (57 entries), at
        # less than an eighth of the step cost of an n = 4 one through the
        # RHS stages (1,599 coefficients): twice as long, it goes after it,
        # eight times as long, ahead of it
        mixed = [apply_overrides(tiny, n=3, t_end=2.0, label="n3"),
                 apply_overrides(tiny, n=4, label="n4"), apply_overrides(tiny, label="n2")]
        assert runner._batches(mixed, 2) == [[1], [0, 2]]
        mixed[0] = apply_overrides(tiny, n=3, t_end=8.0, label="n3")
        assert runner._batches(mixed, 2) == [[0], [1, 2]]
        # a complex coefficient costs 1.6 real ones: a detuned n = 4 member
        # (1,639 complex coefficients) goes ahead of a 1.2 times longer real
        # n = 4 one (1,599), but not of a 1.3 times longer one; a 1.5 times
        # longer real n = 5 member (4,359) goes ahead of it
        mixed = [apply_overrides(tiny, n=4, delta=0.5, label="detuned"),
                 apply_overrides(tiny, n=4, t_end=1.2, label="n4"),
                 apply_overrides(tiny, label="n2")]
        assert runner._batches(mixed, 2) == [[0], [1, 2]]
        mixed[1] = apply_overrides(tiny, n=4, t_end=1.3, label="n4")
        assert runner._batches(mixed, 2) == [[1], [0, 2]]
        mixed[1] = apply_overrides(tiny, n=5, t_end=1.5, label="n5")
        assert runner._batches(mixed, 2) == [[1], [0, 2]]

    def test_summary_csv_layout(self, tmp_path):
        configs = [replace(TINY, label="a"), replace(TINY, label="b", t_end=0.5)]
        summaries = run_many(configs)
        path = tmp_path / "summary.csv"
        emit_summary_csv(configs, summaries, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "label"
        assert "c_max_all_pairs" in header
        assert lines[1].split(",")[0] == "a"
        # per-qubit lists are echoed ;-separated so rows stay one CSV cell each
        assert ";" in lines[1].split(",")[2]


class TestCli:
    def test_list_presets_exit_zero(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out

    def test_run_with_config_and_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[chain]\nn = 2\n[integrator]\nt_end = 1.0\ndt = 0.002\n")
        out_path = tmp_path / "run.csv"
        code = main([
            "run", "--config", str(cfg_path), "--out", str(out_path),
            "--drive", "one-photon", "--pulse-norm", "verbatim",
        ])
        assert code == 0
        assert out_path.exists()
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["config"]["mode"] == "one-photon"
        assert meta["config"]["normalization"] == "verbatim"

    def test_run_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[chain]\nn = -3\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.ini"]) == 2

    def test_preset_with_overrides(self, tmp_path, capsys):
        code = main(["sweep", "fig3", "--out", str(tmp_path), "--t-end", "1.0", "--dt", "0.002"])
        assert code == 0
        assert (tmp_path / "fig3.csv").exists()
        assert (tmp_path / "fig3.meta.json").exists()
        assert capsys.readouterr().out.startswith("fig3: C_max(all-pairs)=")

    def test_sweep_writes_summary(self, tmp_path, capsys):
        code = main([
            "sweep", "fig6c-sweep", "--out", str(tmp_path),
            "--t-end", "0.5", "--dt", "0.005",
        ])
        assert code == 0
        summary = (tmp_path / "fig6c-sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 9  # header + 8 members
        assert (tmp_path / "fig6c_chiral_n2.csv").exists()

    def test_sweep_with_failing_members_exits_one(self, tmp_path, capsys):
        # the six unit-rate members breach the trace bound at this step
        assert main(["sweep", "fig5c-sweep", "--dt", "0.5", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        failed = [line for line in err.splitlines() if ": failed: " in line]
        assert [line.split(":")[0] for line in failed] == [
            f"fig5c_unit_w{w}" for w in ("0p5", "1", "1p5", "2", "2p5", "3")
        ]
        assert all("trace deviation" in line for line in failed)
        assert out.count("fig5c_small_") == 6
        summary = (tmp_path / "fig5c-sweep_summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == [
            f"fig5c_small_w{w}" for w in ("0p5", "1", "1p5", "2", "2p5", "3")
        ]
        assert len(list(tmp_path.glob("fig5c_small_*"))) == 12
        assert not list(tmp_path.glob("fig5c_unit_*"))

    def test_failed_pool_member_prints_its_traceback(self, tmp_path, monkeypatch, capsys):
        # an integer output path raises TypeError in the worker that writes it
        def members(preset_id):
            return [replace(TINY, label="good", t_end=0.1),
                    replace(TINY, label="bad", t_end=0.1, path=123)]

        monkeypatch.setattr(cli, "expand_preset", members)
        assert main(["sweep", "fig2", "--jobs", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("bad: failed: ") and "not int" in err[0]
        assert err[1] == "Traceback (most recent call last):"
        assert any("_finish" in line for line in err)
        assert err[-1].startswith("TypeError: ")

    def test_unknown_preset_exit_code(self, capsys):
        assert main(["sweep", "fig99"]) == 2
        known = ", ".join(sorted(list_presets()))
        assert capsys.readouterr().err == (
            f"error: unknown preset 'fig99'; expected one of: {known}\n"
        )

    def test_internal_key_error_is_not_a_config_error(self, monkeypatch):
        # only ConfigError and OSError are reported as bad input (exit 2)
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "run_many", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["sweep", "fig2"])

    @pytest.mark.parametrize("flag,value", [("--dt", "nan"), ("--t-end", "inf"), ("--jobs", "0")])
    def test_non_finite_override_exits_two(self, flag, value, capsys):
        assert main(["sweep", "fig2", flag, value]) == 2
        assert "error:" in capsys.readouterr().err
