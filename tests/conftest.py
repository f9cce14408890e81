import numpy as np
import pytest

from wgqed.config import ExperimentConfig
from wgqed.hierarchy import HierarchyState
from wgqed.integrator import IntegratorConfig, evolve
from wgqed.presets import expand_preset


class FigureRuns:
    """Lazy, session-wide cache of preset trajectories.

    Labels follow the preset member labels; resonant/symmetric baselines that
    duplicate the fig3/fig4 parameter sets are aliased onto those runs instead
    of being integrated twice.  The labels the acceptance suite reads that
    share n, drive mode, rho21_hc, dt and sample_every are integrated together
    through one ``evolve`` call, as ``run_many`` does, when the first of them
    is asked for; each trajectory is bit for bit the one ``integrate`` gives.
    """

    ALIASES = {
        "fig7a_resonant_n2": "fig3",
        "fig7a_resonant_n3": "fig4_n3",
        "fig7a_resonant_n4": "fig4_n4",
        "fig7a_resonant_n5": "fig4_n5",
        "fig6c_symmetric_n2": "fig3",
        "fig6c_symmetric_n3": "fig4_n3",
        "fig6c_symmetric_n4": "fig4_n4",
        "fig6c_symmetric_n5": "fig4_n5",
    }

    KEEP_STATES = {"fig3"}

    READ = (
        "fig2", "fig3", "fig4_n3", "fig4_n4", "fig4_n5", "fig5_n2", "fig5_n3",
        "fig6_n2", "fig6_n3", "fig6_n4", "fig6_n5",
        "fig7a_detuned_n2", "fig7a_detuned_n3", "fig7a_detuned_n4", "fig7a_detuned_n5",
        "fig7b_n2_sep16th", "fig7b_n4_sep1", "fig7b_n4_sep16th",
    )

    def __init__(self):
        self._configs = {}
        for preset in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b"):
            for cfg in expand_preset(preset):
                self._configs[cfg.label] = cfg
        self._cache = {}

    def config(self, label: str) -> ExperimentConfig:
        label = self.ALIASES.get(label, label)
        return self._configs[label]

    def traj(self, label: str, dt: float | None = None):
        label = self.ALIASES.get(label, label)
        if (label, dt) not in self._cache:
            batch = [label]
            if dt is None:
                batch += [
                    other for other in self.READ
                    if other != label and (other, None) not in self._cache
                    and self._shape(other) == self._shape(label)
                ]
            cfg = self._configs[label]
            keep_states = dt is None and not self.KEEP_STATES.isdisjoint(batch)
            members = [self._member(other, dt) for other in batch]
            for i, outcome in evolve(members, cfg.drive_mode(), cfg.rho21_hc, keep_states):
                self._cache[batch[i], dt] = outcome
        outcome = self._cache[label, dt]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _shape(self, label: str) -> tuple:
        cfg = self._configs[label]
        return (cfg.n, cfg.mode, cfg.rho21_hc, cfg.dt, cfg.sample_every)

    def _member(self, label: str, dt: float | None) -> tuple:
        cfg = self._configs[label]
        config = cfg.integrator_config()
        if dt is not None:
            # keep the sampling instants aligned with the default-step run
            stride = max(1, int(round(config.sample_every * config.dt / dt)))
            config = IntegratorConfig(dt, config.t_end, stride)
        return (HierarchyState.ground(cfg.n), cfg.chain_params(), cfg.gaussian_pulse(), config)


@pytest.fixture(scope="session")
def figures():
    return FigureRuns()


def pytest_configure(config):
    np.set_printoptions(linewidth=140)
