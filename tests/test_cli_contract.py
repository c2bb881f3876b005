"""The exit contract of the command line, as a property.

Every configuration the validator accepts either runs, or fails with a
named stage and the documented exit status, never with a traceback: 0 for
a run whose checks pass, 1 for a stage that fails or a check that does, 2
for a configuration refused before anything runs. Hypothesis draws small
configurations (MacIver et al., JOSS 4(43), 1891, 2019) and runs each
through cli.main on one worker.
"""

import contextlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import retrodyn as rd
from retrodyn import cli, dynamics

#: Most steps a drawn horizon spans, those of the reference run. The
#: reference parameters' backward burn-in is 9120 steps at 0.95 of the
#: coarsest step the grid guard admits and 17 328 at half of it.
MAX_STEPS = 30_000


@st.composite
def _runs(draw):
    """(command, config file text) of a small configuration the validator
    accepts, on the reference parameters with eta_det and n_th drawn."""
    base = vars(rd.default_params())
    eta = draw(st.sampled_from([0.0, 1e-6, 0.74, 1.0]) | st.floats(0.0, 1.0))
    n_th = draw(st.sampled_from([0.0, 14.0, 1e7]) | st.floats(0.0, 1e7))
    p = rd.PhysParams(**{**base, "eta_det": eta, "n_th": n_th})
    rates = rd.derive_rates(p)
    fastest = 0.5 * p.gamma_m + 4.0 * rates.gamma_meas * rates.v_uc
    dt = draw(st.floats(0.05, 0.95)) * dynamics.GRID_GUARD / fastest
    # Half the horizons end past the backward burn-in, where it is defined
    # and fits.
    burn_in = rd.burn_in_steps(p, dt) if 0 < rates.lambda_b < math.inf else MAX_STEPS
    past = draw(st.booleans()) and burn_in < MAX_STEPS
    steps = draw(st.integers(burn_in if past else 1, MAX_STEPS))
    settings_ = {
        **vars(p),
        "dt": dt,
        "t_final": steps * dt,
        "n_traj": draw(st.integers(1, 6)),
        "master_seed": draw(st.integers(0, 2**32)),
        "decimation": draw(st.integers(1, steps) | st.sampled_from([1, 10])),
        "chunk_size": draw(st.integers(1, 7)),
        "n_display": draw(st.integers(0, 7)),
        "mode": draw(st.sampled_from(["exact", "paper-approx"])),
        "tail_fraction": draw(st.sampled_from([0.2, 1.0]) | st.floats(0.01, 1.0)),
        "n_workers": 1,
    }
    command = draw(st.sampled_from(sorted(cli._COMMAND_PIPELINES)))
    try:
        rd.config_from_mapping(settings_, pipelines=cli._COMMAND_PIPELINES[command])
    except rd.RetrodynError:
        assume(False)
    return command, "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                            for k, v in settings_.items())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_runs())
def test_accepted_configurations_keep_the_exit_contract(run):
    command, text = run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    stderr = err.getvalue()
    assert status in (0, 1, 2), (status, stderr)
    assert "Traceback" not in stderr
    if status:
        assert "stage '" in stderr or "failed checks" in stderr, stderr


@pytest.mark.parametrize("content, named", [
    (None, "run.cfg"),
    ("directory", "run.cfg"),
    (b"gamma_m = \xff\n", "run.cfg"),
    (b"gamma_m = abc\n", "gamma_m"),
    (b"gamma_m =\n", "gamma_m"),
], ids=["missing", "directory", "not-utf8", "not-a-number", "no-value"])
def test_bad_config_file_is_refused_at_stage_config(tmp_path, content, named):
    # A config file that cannot be read, or a parameter that is not a
    # number, is a refusal naming the file or the key, before any output.
    path = tmp_path / "run.cfg"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")])
    stderr = err.getvalue()
    assert status == 2, stderr
    assert "stage 'config'" in stderr and named in stderr, stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()
