"""The five record types are read-only: a changed copy comes from ``_replace``."""

import pytest

from expanderlab import (
    build_certificate,
    check_instance,
    parse_field,
    parse_poly,
    refute_cover,
    search_extremal,
    theorem_bound,
)


def _instance():
    field = parse_field("13")
    return check_instance(field, parse_poly("x^2", field),
                          parse_poly("x", field), range(1, 7), range(4))


# Each record built the way the library builds it.
RECORDS = {
    "BoundReport": lambda: theorem_bound(6, 4, 2, 13),
    "ExpanderInstance": _instance,
    "Certificate": lambda: build_certificate(_instance(), [0, 1, 2]),
    "RefutationReport": lambda: refute_cover(_instance(), [0, 1, 2]),
    "ExperimentRecord": lambda: search_extremal("5", "x^2", "x", 2, 2)[0],
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    before = tuple(record)
    marker = object()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, marker)
        copy = record._replace(**{field: marker})
        assert type(copy) is type(record) and getattr(copy, field) is marker
        assert all(getattr(copy, other) is getattr(record, other)
                   for other in record._fields if other != field)
    assert all(now is then for now, then in zip(record, before))
