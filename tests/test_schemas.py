import hashlib
import json

from graphassoc.schemas import SCHEMAS

# sha256 of json.dumps(SCHEMAS, sort_keys=True): the published payload contract
SCHEMAS_DIGEST = "7ab71c52f9547bdec66c23b4d5452a8d14c6156b40ee7bcb599178f812d5d138"


def test_schemas_are_pinned():
    text = json.dumps(SCHEMAS, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SCHEMAS_DIGEST


def object_schemas(schema, path):
    """Every object schema under ``schema``, with its path of property names and array items."""
    if schema.get("type") == "object":
        yield path, schema
        for key, sub in schema["properties"].items():
            yield from object_schemas(sub, path + (key,))
    elif schema.get("type") == "array":
        yield from object_schemas(schema["items"], path + ("[]",))


def test_required_keys_are_properties_and_only_five_objects_are_open():
    found = [(path, schema) for name, top in SCHEMAS.items()
             for path, schema in object_schemas(top, (name,))]
    assert len({id(schema) for _path, schema in found}) == 24
    for path, schema in found:
        assert set(schema["required"]) <= set(schema["properties"]), path
    open_paths = {path for path, schema in found if schema.get("additionalProperties") is not False}
    assert open_paths == {
        ("polytope", "h_representation", "equality"),
        ("polytope", "h_representation", "inequalities", "[]"),
        ("relations", "generators", "Phi", "[]"),
        ("relations", "generators", "a", "[]"),
        ("relations", "relations", "[]", "word", "[]", "letter"),
    }
