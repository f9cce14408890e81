import json
import logging
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
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
        started, submitted = [], []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, members, out_dir):
                submitted.append([cfg.label for cfg in members])
                future = Future()
                future.set_result(fn(members, out_dir))
                return future

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        configs = [replace(TINY, label=label, t_end=0.1) for label in "abc"]
        summaries = run_many(configs, jobs=1000)
        assert started == [3]
        assert [s.label for s in summaries] == ["a", "b", "c"]
        # three keys make three units, which two workers share; the n = 4
        # unit goes first, and the summaries return in config order
        configs = [apply_overrides(TINY, n=n, t_end=0.1, label=f"n{n}") for n in (2, 4, 3)]
        submitted.clear()
        summaries = run_many(configs, jobs=2)
        assert started == [3, 2] and submitted == [["n4"], ["n3"], ["n2"]]
        assert [s.label for s in summaries] == ["n2", "n4", "n3"]

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

    def test_units_slice_each_stack_key_more_qubits_first(self):
        # fig5c's twelve members share one key, so their steps alone deal
        # them into two units of three long and three short members each
        configs = [replace(cfg, dt=0.01) for cfg in expand_preset("fig5c-sweep")]
        units = runner._units(configs, 2)
        assert [sorted(configs[i].t_end for i in unit) for unit in units] == \
            [[25.0] * 3 + [50.0] * 3] * 2
        # fig6c's chiral and symmetric members share a key at each n: two
        # jobs give eight single-member units, the n = 5 ones first
        fig6c = expand_preset("fig6c-sweep")
        units = runner._units(fig6c, 2)
        assert [len(unit) for unit in units] == [1] * 8
        assert [fig6c[unit[0]].n for unit in units] == [5, 5, 4, 4, 3, 3, 2, 2]
        # fig7b's three members at each n share a key: of equal n, the unit
        # of two members goes ahead of the unit of one
        fig7b = expand_preset("fig7b")
        units = runner._units(fig7b, 2)
        assert [(fig7b[unit[0]].n, len(unit)) for unit in units] == [(4, 2), (4, 1), (2, 2), (2, 1)]
        # every member is in exactly one unit, and no unit mixes keys
        for preset in list_presets():
            configs = expand_preset(preset)
            for jobs in (1, 2, 3):
                units = runner._units(configs, jobs)
                assert sorted(i for unit in units for i in unit) == list(range(len(configs)))
                assert all(len({runner._stack_key(configs[i]) for i in unit}) == 1
                           for unit in units)
        assert run_many([]) == []

    @pytest.mark.parametrize("jobs", [0, -1, 1.5])
    def test_run_many_refuses_jobs_that_are_not_positive_integers(self, jobs):
        with pytest.raises(ConfigError, match=f"^jobs must be an integer of at least 1, got {jobs}$"):
            run_many([TINY], jobs=jobs)

    def test_dead_worker_loses_only_its_unfinished_unit(self, tmp_path, monkeypatch):
        finish = runner._finish

        def dying(cfg, traj, out_dir):
            if cfg.label == "dies":
                # the other unit finishes first: its files are its last step
                deadline = time.monotonic() + 30.0
                while not (tmp_path / "lives.meta.json").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.1)
                os._exit(1)
            return finish(cfg, traj, out_dir)

        monkeypatch.setattr(runner, "_finish", dying)  # forked workers inherit it
        configs = [replace(TINY, label="dies", t_end=0.1), replace(TINY, label="lives", t_end=0.1)]
        died, lived = run_many(configs, out_dir=str(tmp_path), jobs=2)
        assert isinstance(died, BrokenProcessPool)
        assert isinstance(lived, RunSummary) and lived.label == "lives"
        assert sorted(os.listdir(tmp_path)) == ["lives.csv", "lives.meta.json"]

    def test_units_that_shared_a_dead_worker_run_again(self, tmp_path, monkeypatch):
        # three single-member units on three workers.  "dies" kills its
        # worker whenever it runs, the first time once "fast" has written its
        # files; "slow" is unfinished when that breaks the pool.  "dies" and
        # "slow" run once more, each in a pool of its own: "slow" finishes
        # only after "dies" has killed its worker again, and keeps its files
        finish, died, out = runner._finish, tmp_path / "died", tmp_path / "out"

        def wait_until(ready):
            deadline = time.monotonic() + 30.0
            while not ready() and time.monotonic() < deadline:
                time.sleep(0.01)

        def deaths():
            return len(died.read_text()) if died.exists() else 0

        def dying(cfg, traj, out_dir):
            if cfg.label == "dies":
                if not deaths():
                    wait_until((out / "fast.meta.json").exists)
                    time.sleep(0.1)
                with died.open("a") as handle:
                    handle.write("x")
                os._exit(1)
            if cfg.label == "slow":
                retry = deaths() > 0
                wait_until(lambda: deaths() == 1 + retry)
                time.sleep(0.3 if retry else 5.0)  # a broken pool stops its workers
            return finish(cfg, traj, out_dir)

        monkeypatch.setattr(runner, "_finish", dying)  # forked workers inherit it
        configs = [replace(TINY, label=label, t_end=0.1) for label in ("dies", "slow", "fast")]
        assert len(runner._units(configs, 3)) == 3
        dies, slow, fast = run_many(configs, out_dir=str(out), jobs=3)
        assert deaths() == 2 and isinstance(dies, BrokenProcessPool)
        assert isinstance(slow, RunSummary) and slow.label == "slow"
        assert isinstance(fast, RunSummary) and fast.label == "fast"
        assert sorted(os.listdir(out)) == \
            ["fast.csv", "fast.meta.json", "slow.csv", "slow.meta.json"]

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
