import pytest

from rician_mimo.config import ConfigError, SystemConfig


def make_config(**overrides):
    base = dict(
        n_antennas=16,
        n_users=4,
        coherence_len=100,
        training_len=4,
        snr_data=1.0,
        snr_training=1.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def test_valid_config_roundtrips():
    cfg = make_config()
    assert cfg.n_antennas == 16
    assert cfg.prelog == pytest.approx(1.0 - 4 / 100)


def test_tau_below_k_rejected():
    with pytest.raises(ConfigError):
        make_config(training_len=3)


def test_tau_at_t_rejected():
    with pytest.raises(ConfigError):
        make_config(training_len=100)


@pytest.mark.parametrize("field", ["n_antennas", "n_users", "coherence_len"])
def test_nonpositive_integers_rejected(field):
    with pytest.raises(ConfigError):
        make_config(**{field: 0})


def test_noninteger_rejected():
    with pytest.raises(ConfigError):
        make_config(n_antennas=16.0)


@pytest.mark.parametrize("field", ["snr_data", "snr_training"])
def test_nonpositive_snr_rejected(field):
    with pytest.raises(ConfigError):
        make_config(**{field: 0.0})

