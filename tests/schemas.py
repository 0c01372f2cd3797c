"""JSON schemas of the values the command line reads and writes.

Only the tests read these; jsonschema is a test-only dependency.
"""

PARTITION_SCHEMA = {"type": "array", "items": {"type": "integer", "minimum": 0}}
CELL_SCHEMA = {
    "type": "array",
    "items": {"type": "integer", "minimum": 1},
    "minItems": 2,
    "maxItems": 2,
}
SKEW_SHAPE_SCHEMA = {
    "type": "object",
    "properties": {"outer": PARTITION_SCHEMA, "inner": PARTITION_SCHEMA},
    "required": ["outer", "inner"],
    "additionalProperties": False,
}

SKEW_TABLEAU_SCHEMA = {
    "type": "object",
    "properties": {
        "outer": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "inner": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "rows": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        },
    },
    "required": ["outer", "inner", "rows"],
    "additionalProperties": False,
}

TWO_ROWED_ARRAY_SCHEMA = {
    "type": "object",
    "properties": {
        "top": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "bottom": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["top", "bottom"],
    "additionalProperties": False,
}

PICTURE_SCHEMA = {
    "type": "object",
    "properties": {
        "domain": SKEW_SHAPE_SCHEMA,
        "codomain": SKEW_SHAPE_SCHEMA,
        "pairs": {
            "type": "array",
            "items": {
                "type": "array",
                "items": CELL_SCHEMA,
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "required": ["domain", "codomain", "pairs"],
    "additionalProperties": False,
}

CRYSTAL_PAIR_SCHEMA = {
    "type": "object",
    "properties": {"first": SKEW_TABLEAU_SCHEMA, "second": SKEW_TABLEAU_SCHEMA},
    "required": ["first", "second"],
    "additionalProperties": False,
}

OUTPUT_SCHEMAS = {
    "pictures": {
        "type": "object",
        "properties": {
            "count": {"type": "integer", "minimum": 0},
            "pictures": {"type": "array"},
        },
        "required": ["count"],
        "additionalProperties": False,
    },
    "lr-coeff": {
        "type": "object",
        "properties": {
            "coefficient": {"type": "integer", "minimum": 0},
            "routes_agree": {"type": "boolean"},
        },
        "required": ["coefficient"],
        "additionalProperties": False,
    },
    "rsk": {
        "type": "object",
        "properties": {"p": {"type": "object"}, "q": {"type": "object"}},
        "required": ["p", "q"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "status": {"enum": ["ok", "violation"]},
            "payload": {"type": "object"},
        },
        "required": ["status", "payload"],
        "additionalProperties": False,
    },
}
