import pytest
import yaml

from latgas.cli import main
from latgas.hydro import FieldTrajectory


def test_hydro_rejects_wall_data_below_margin_floor(tmp_path, capsys):
    # Densities inside (0, 1) pass ReservoirProfiles but put the wall data
    # within 1e-9 of the hull boundary, below the floor of BoundaryData.
    config = {
        "model": {"d": 1, "velocities": [[0.5], [-0.5]],
                  "alpha": ["1e-9", "1e-9"], "beta": ["0.5", "0.5"],
                  "N": 16, "seed": 1},
        "hydro": {"m1": 17, "horizon": 0.01, "n_frames": 2},
    }
    path = tmp_path / "floor.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["hydro", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "margin" in capsys.readouterr().err


def test_hydro_dt_against_advective_bound(tmp_path, capsys):
    # m1 = 17, max|v_1| = 1/2: the bound is h_1 / (1/2) = 0.125.
    out = tmp_path / "out"
    for dt, code in ((0.13, 2), (0.005, 0)):
        config = {
            "model": {"d": 1, "velocities": [[0.5], [-0.5]],
                      "alpha": ["0.3", "0.4"], "beta": ["0.6", "0.5"],
                      "N": 16, "seed": 1},
            "hydro": {"m1": 17, "horizon": 0.01, "n_frames": 2, "dt": dt},
        }
        path = tmp_path / f"dt{dt}.yaml"
        path.write_text(yaml.safe_dump(config))
        assert main(["hydro", "--config", str(path), "--out", str(out)]) == code
    assert "advective" in capsys.readouterr().err
    meta = FieldTrajectory.load(out / "hydro_traj.npz").meta
    assert meta == {"dt": pytest.approx(0.005), "n_steps": 2, "controlled": False}
