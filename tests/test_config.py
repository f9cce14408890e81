from pathlib import Path

import pytest

from wgqed.config import ConfigError, ExperimentConfig, apply_overrides, parse_config
from wgqed.hierarchy import DriveMode


def test_empty_document_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.n == 2
    assert cfg.gamma_r == (1.0, 1.0)
    assert cfg.gamma_l == (1.0, 1.0)
    assert cfg.delta == (0.0, 0.0)
    assert cfg.spacing == 0.0
    assert cfg.mode == "two-photon"
    assert cfg.tbar == 5.0
    assert cfg.width == 1.5
    assert cfg.dt == 1e-3
    assert cfg.t_end == 15.0
    assert cfg.normalization == "unit-l2"
    assert cfg.threshold == 0.05
    assert cfg.rho21_hc is True


def test_scalar_broadcast_and_lists():
    cfg = parse_config(
        """
        [chain]
        n = 3
        gamma_r = 0.5
        gamma_l = 0.1, 0.2, 0.3
        delta = -0.5
        positions = 0.0, 0.25, 0.25
        rho21_hc = false
        """
    )
    assert cfg.gamma_r == (0.5, 0.5, 0.5)
    assert cfg.gamma_l == (0.1, 0.2, 0.3)
    assert cfg.delta == (-0.5, -0.5, -0.5)
    assert cfg.positions == (0.0, 0.25, 0.25)
    assert cfg.rho21_hc is False
    assert parse_config("[chain]\nn = 3\npositions = 0.5\n").positions == (0.5, 0.5, 0.5)
    # the same rule holds for configs built in code and for overrides
    assert ExperimentConfig(n=3).gamma_r == (1.0, 1.0, 1.0)
    assert ExperimentConfig(n=3).positions is None
    assert ExperimentConfig(n=3, gamma_r=2.0).gamma_r == (2.0, 2.0, 2.0)
    assert apply_overrides(ExperimentConfig(), gamma_r=(2.0,)).gamma_r == (2.0, 2.0)


def test_readme_ini_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.n == 3 and cfg.gamma_r == (1.0, 1.0, 1.0)


def test_wrong_list_length_names_field():
    with pytest.raises(ConfigError, match=r"gamma_r"):
        parse_config("[chain]\nn = 2\ngamma_r = 1, 2, 3\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[chain]\nn = 2\nbogus = 1\n")
    # both pair normalizations are always written, so there is nothing to select
    with pytest.raises(ConfigError, match="unknown key 'pair_norm'"):
        parse_config("[observables]\npair_norm = everything\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[shenanigans]\nx = 1\n")


@pytest.mark.parametrize(
    "snippet,field",
    [
        ("[chain]\nn = 0\n", "n"),
        ("[chain]\nn = 11\n", "n = 11"),
        ("[chain]\ngamma_r = -1\n", "gamma_r"),
        ("[pulse]\nwidth = -2\n", "width"),
        ("[pulse]\nnormalization = sideways\n", "normalization"),
        ("[pulse]\nmode = three-photon\n", "mode"),
        ("[integrator]\ndt = 0\n", "dt"),
        ("[integrator]\ndt = nan\n", "dt"),
        ("[integrator]\nt_end = inf\n", "t_end"),
        ("[integrator]\nsample_every = 0\n", "sample_every"),
        ("[observables]\nthreshold = 1.5\n", "threshold"),
        ("[observables]\npair_norm = everything\n", "pair_norm"),
        ("[chain]\nn = 2\npositions = 1.0, 0.5\n", "positions"),
        ("[chain]\nn = 3\npositions = 0.0, 0.5\n", "positions"),
        # keyword values, which skip the document's int() parsing
        (dict(sample_every=2.0), "sample_every must be an integer, got 2.0"),
        (dict(n=2.5), "n must be an integer, got 2.5"),
    ],
)
def test_validation_errors_name_the_field(snippet, field):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**snippet) if isinstance(snippet, dict) else parse_config(snippet)


def test_object_builders():
    cfg = parse_config("[chain]\nn = 2\nspacing = 0.125\n[pulse]\nmode = one-photon\n")
    params = cfg.chain_params()
    assert params.n == 2
    assert params.positions[1] == pytest.approx(0.125)
    assert cfg.drive_mode() is DriveMode.ONE_PHOTON
    assert cfg.gaussian_pulse().width == 1.5
    assert cfg.integrator_config().dt == 1e-3


def test_apply_overrides_validates():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, dt=2e-3, normalization="verbatim", mode=None)
    assert out.dt == 2e-3
    assert out.normalization == "verbatim"
    assert out.mode == cfg.mode
    with pytest.raises(ConfigError):
        apply_overrides(cfg, nonsense=3)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, threshold=2.0)
    with pytest.raises(ConfigError, match=r"\[chain\] gamma_r: expected numbers"):
        apply_overrides(cfg, gamma_r=("a", "b"))
    with pytest.raises(ConfigError, match="gamma_l"):
        apply_overrides(cfg, gamma_l=(1.0, 1.0, 1.0))
    # numbers are coerced as a config document would read them
    coerced = apply_overrides(cfg, t_end=10, gamma_r=(2, 1))
    assert coerced == parse_config("[chain]\ngamma_r = 2, 1\n[integrator]\nt_end = 10\n")
    assert type(coerced.t_end) is float and type(coerced.gamma_r[0]) is float


def test_apply_overrides_changing_n_broadcasts_uniform_fields():
    out = apply_overrides(ExperimentConfig(), n=3)
    assert (out.gamma_r, out.gamma_l, out.delta) == ((1.0,) * 3, (1.0,) * 3, (0.0,) * 3)
    assert out.positions is None
    cfg = ExperimentConfig(gamma_r=(0.5, 0.5), delta=(0.2, 0.2), positions=(0.25, 0.25))
    out = apply_overrides(cfg, n=4, gamma_l=(1.0, 2.0, 3.0, 4.0))
    assert out.gamma_r == (0.5,) * 4 and out.delta == (0.2,) * 4
    assert out.positions == (0.25,) * 4 and out.gamma_l == (1.0, 2.0, 3.0, 4.0)
    # a non-uniform field must be restated, and the error names it
    uneven = ExperimentConfig(gamma_r=(1.0, 2.0))
    with pytest.raises(ConfigError, match=r"\[chain\] gamma_r"):
        apply_overrides(uneven, n=3)
    assert apply_overrides(uneven, n=3, gamma_r=(1.0, 2.0, 3.0)).gamma_r == (1.0, 2.0, 3.0)
    with pytest.raises(ConfigError, match=r"\[chain\] positions"):
        apply_overrides(ExperimentConfig(positions=(0.0, 0.5)), n=3)
