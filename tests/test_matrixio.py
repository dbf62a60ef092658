import json

import numpy as np
import pytest

from pqsim import RngStream
from pqsim.errors import DimensionError
from pqsim.linalg import haar_unitary
from pqsim.matrixio import (
    load_matrix,
    load_matrix_csv,
    load_matrix_json,
    matrix_from_dict,
    matrix_to_dict,
)

from conftest import matrix_csv_text


@pytest.fixture
def matrix():
    return haar_unitary(3, RngStream(33)) * np.sqrt(0.8)


def test_json_round_trip(tmp_path, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_dict(matrix)))
    assert np.array_equal(load_matrix_json(path), matrix)
    assert np.array_equal(load_matrix(path), matrix)


def test_csv_round_trip(tmp_path, matrix):
    path = tmp_path / "m.csv"
    path.write_text(matrix_csv_text(matrix))
    assert np.array_equal(load_matrix_csv(path), matrix)
    assert np.array_equal(load_matrix(path), matrix)


def test_csv_header_carries_shape(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n1.0,0.0\n0.5,-0.5\n")
    assert np.array_equal(load_matrix_csv(path), [[1.0, 0.5 - 0.5j]])


def test_dict_round_trip(matrix):
    assert np.array_equal(matrix_from_dict(matrix_to_dict(matrix)), matrix)


def test_entry_count_mismatch_rejected():
    with pytest.raises(DimensionError):
        matrix_from_dict({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


def test_nonfinite_rejected():
    with pytest.raises(DimensionError):
        matrix_from_dict({"rows": 1, "cols": 1, "re": [float("nan")], "im": [0.0]})


def test_infinite_imaginary_part_rejected_before_any_arithmetic():
    # 1j * inf is nan + inf j and warns; the check comes first.
    with pytest.raises(DimensionError, match="matrix entries must be finite"):
        matrix_from_dict({"rows": 1, "cols": 1, "re": [1.0], "im": [float("inf")]})


@pytest.mark.parametrize("entry", ["nan,0", "1,inf", "-inf,0"])
def test_nonfinite_csv_rejected(tmp_path, entry):
    path = tmp_path / "m.csv"
    path.write_text(f"1,1\n{entry}\n")
    with pytest.raises(DimensionError, match="matrix entries must be finite"):
        load_matrix_csv(path)


def test_unknown_extension_rejected(tmp_path):
    with pytest.raises(DimensionError):
        load_matrix(tmp_path / "m.txt")


def test_malformed_csv_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2,2\n1.0,0.0\n")
    with pytest.raises(DimensionError):
        load_matrix_csv(path)
