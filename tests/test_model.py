"""Instance schema parsing and validation."""

import math

import pytest

from chainforge.errors import ParseError, ValidationError
from chainforge.model import (euclidean_distance, instance_from_dict,
                              load_instance, running_sum)
from conftest import QATAR_PATH, tiny_dict


def test_tiny_parses(tiny):
    assert [w.id for w in tiny.warehouses] == ["W1", "W2"]
    assert [r.id for r in tiny.regions] == ["R1", "R2"]
    assert [dc.id for dc in tiny.dcs()] == ["D1", "D2", "D3"]
    assert len(tiny.customers()) == 5
    assert tiny.horizon == 3
    assert tiny.safety_stock_fraction == 0.2


def test_demand_variance_becomes_std(tiny):
    assert tiny.demand.mean == 40.0
    assert tiny.demand.std == pytest.approx(5.0)


def test_customer_demand_defaults_and_overrides(tiny):
    by_id = {c.id: c for c in tiny.customers()}
    assert by_id["C1"].demand.mean == 40.0
    assert by_id["C5"].demand.mean == 25.0
    assert by_id["C5"].demand.std == 4.0


def test_region_population(tiny):
    assert tiny.regions[0].population == 400
    assert tiny.regions[1].population == 200


def test_path_weight_defaults_to_one(tiny):
    assert tiny.path_weight("D1", "C1") == 1.0


def test_path_weights_parse():
    data = tiny_dict()
    data["path_weights"] = [{"dc": "D1", "customer": "C2", "factor": 2.5}]
    instance = instance_from_dict(data)
    assert instance.path_weight("D1", "C2") == 2.5
    assert instance.path_weight("D1", "C1") == 1.0


@pytest.mark.parametrize("entry, error", [
    ({"dc": "DX", "customer": "C1", "factor": 1.0}, ValidationError),
    ({"dc": "D1", "customer": "CX", "factor": 1.0}, ValidationError),
    ({"dc": "D1", "customer": "C1", "factor": -0.5}, ValidationError),
    ({"dc": "D1", "customer": "C1"}, ParseError),
])
def test_path_weight_rejects(entry, error):
    data = tiny_dict()
    data["path_weights"] = [entry]
    with pytest.raises(error):
        instance_from_dict(data)


def test_duplicate_path_weight_pair_rejected():
    data = tiny_dict()
    data["path_weights"] = [
        {"dc": "D1", "customer": "C1", "factor": 1.0},
        {"dc": "D1", "customer": "C1", "factor": 2.0},
    ]
    with pytest.raises(ValidationError, match="duplicate pair"):
        instance_from_dict(data)


def test_both_variance_and_std_rejected():
    data = tiny_dict()
    data["stochastic"]["demand"] = {
        "family": "normal", "mean": 10.0, "variance": 4.0, "std": 2.0}
    with pytest.raises(ParseError, match="exactly one"):
        instance_from_dict(data)


def test_missing_spread_rejected():
    data = tiny_dict()
    data["stochastic"]["demand"] = {"family": "normal", "mean": 10.0}
    with pytest.raises(ParseError):
        instance_from_dict(data)


def test_supply_loss_interval_checked():
    data = tiny_dict()
    data["stochastic"]["supply_loss"] = {
        "family": "uniform", "low": 0.9, "high": 0.8}
    with pytest.raises(ValidationError):
        instance_from_dict(data)
    data["stochastic"]["supply_loss"] = {
        "family": "uniform", "low": 0.5, "high": 1.2}
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_duplicate_customer_id_rejected():
    data = tiny_dict()
    data["regions"][1]["customers"][0]["id"] = "C1"
    with pytest.raises(ValidationError, match="duplicate customer"):
        instance_from_dict(data)


def test_bad_safety_stock_rejected():
    data = tiny_dict()
    data["safety_stock_fraction"] = 1.5
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_bad_horizon_rejected():
    data = tiny_dict()
    data["horizon"] = 0
    with pytest.raises(ValidationError):
        instance_from_dict(data)
    data["horizon"] = 2.5
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_mistyped_values_are_parse_errors():
    # A whole number of another JSON type, or accessibility weights of
    # null, are malformed, not out of range; the message names the key.
    for edit, key in (
            (lambda d: d.update(horizon="3"), r"instance\.horizon"),
            (lambda d: d["regions"][0].update(residential_areas=[4]),
             r"instance\.regions\[0\]\.residential_areas"),
            (lambda d: d["regions"][0].update(accessibility_weights=None),
             r"instance\.regions\[0\]\.accessibility_weights")):
        data = tiny_dict()
        edit(data)
        with pytest.raises(ParseError, match=key):
            instance_from_dict(data)


def test_nonpositive_capacity_rejected():
    data = tiny_dict()
    data["regions"][0]["dcs"][0]["capacity"] = 0.0
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_unknown_key_rejected():
    data = tiny_dict()
    data["surprise"] = 1
    with pytest.raises(ParseError, match="surprise"):
        instance_from_dict(data)


def test_order_cost_mapping():
    data = tiny_dict()
    data["warehouses"][0]["order_unit_cost"] = {"D1": 2.0, "D2": 4.0}
    instance = instance_from_dict(data)
    w1 = instance.warehouses[0]  # W1
    assert w1.order_cost("D1") == 2.0
    assert w1.order_cost("D2") == 4.0
    with pytest.raises(ValidationError):
        w1.order_cost("D3")
    data["warehouses"][0]["order_unit_cost"] = {"D1": 2.0, "D2": math.nan}
    with pytest.raises(ParseError, match=r"order_unit_cost\.D2: must be finite"):
        instance_from_dict(data)


def test_dc_priced_by_no_warehouse_rejected():
    data = tiny_dict()
    for warehouse in data["warehouses"]:
        warehouse["order_unit_cost"] = {"D1": 3.0, "D2": 3.0}
    with pytest.raises(ValidationError, match="no order_unit_cost prices DC D3"):
        instance_from_dict(data)


def test_order_cost_mapping_unknown_dc_rejected():
    data = tiny_dict()
    data["warehouses"][0]["order_unit_cost"] = {"D9": 2.0}
    with pytest.raises(ValidationError, match="D9"):
        instance_from_dict(data)


def test_round_trip_keeps_path_weights():
    data = tiny_dict()
    data["path_weights"] = [{"dc": "D2", "customer": "C3", "factor": 3.0}]
    assert instance_from_dict(data).path_weights == {("D2", "C3"): 3.0}


def test_euclidean_distance():
    assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert euclidean_distance((1.0, 1.0), (1.0, 1.0)) == 0.0


def test_running_sum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum loses the
    # 1.0; a compensated sum (the built-in sum() from Python 3.12) keeps
    # it.
    assert running_sum([1e16, 1.0, -1e16]) == 0.0
    assert running_sum([]) == 0.0
    assert running_sum(iter([0.5, 0.25])) == 0.75


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_instance(str(tmp_path / "nope.json"))


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    for text in (b"{not json", b"\xff\xfe{"):
        path.write_bytes(text)
        with pytest.raises(ParseError, match="not valid JSON"):
            load_instance(str(path))


def test_packaged_instance_loads():
    instance = load_instance(QATAR_PATH)
    assert len(instance.warehouses) == 3
    assert len(instance.dcs()) == 8
    assert len(instance.customers()) == 38
    assert instance.horizon == 5
    assert len(instance.nutrients) == 12
    total_beta = sum(n.per_kg_content for n in instance.nutrients)
    assert math.isclose(total_beta, 1139.0)
